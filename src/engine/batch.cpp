#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/net_cache.hpp"
#include "engine/thread_pool.hpp"
#include "obs/encode.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rctree/mapped_file.hpp"
#include "rctree/units.hpp"
#include "robust/deadline.hpp"
#include "robust/fault.hpp"

namespace rct::engine {

using obs::append_json_double;
using obs::append_json_string;

namespace {

/// Wall + process-CPU stopwatch for one phase.
class PhaseTimer {
 public:
  PhaseTimer()
      : wall_start_(std::chrono::steady_clock::now()), cpu_start_(std::clock()) {}

  [[nodiscard]] PhaseTime elapsed() const {
    PhaseTime t;
    t.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
                   .count();
    t.cpu_s = static_cast<double>(std::clock() - cpu_start_) / CLOCKS_PER_SEC;
    return t;
  }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  std::clock_t cpu_start_;
};

/// Cached references into the global obs registry.  These counters ARE the
/// engine's bookkeeping: EngineStats is computed as per-run deltas over
/// them (see run_batch), so the stderr summary, the `--metrics-out`
/// snapshot and the `--progress` meter all read one source of truth.
struct EngineCounters {
  obs::Counter& nets_total = obs::registry().counter("engine.nets.total");
  obs::Counter& nets_completed = obs::registry().counter("engine.nets.completed");
  obs::Counter& nets_failed = obs::registry().counter("engine.nets.failed");
  obs::Counter& nets_degraded = obs::registry().counter("engine.nets.degraded");
  obs::Counter& nets_retried = obs::registry().counter("engine.nets.retried");
  obs::Counter& nets_timed_out = obs::registry().counter("engine.nets.timed_out");
  obs::Counter& nets_cancelled = obs::registry().counter("engine.nets.cancelled");
  obs::Counter& tasks_run = obs::registry().counter("engine.tasks.run");
  obs::Counter& contexts_built = obs::registry().counter("engine.context.built");
  obs::Counter& context_reuses = obs::registry().counter("engine.context.reused");
  /// Incremented by NetCache itself (engine.cache.hits); read for deltas.
  obs::Counter& cache_hits = obs::registry().counter("engine.cache.hits");

  static EngineCounters& get() {
    static EngineCounters instance;
    return instance;
  }
};

obs::Histogram& net_analyze_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.net.analyze_seconds");
  return h;
}
obs::Histogram& queue_wait_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.task.queue_wait_seconds");
  return h;
}
obs::Histogram& analyze_phase_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.batch.analyze_seconds");
  return h;
}
obs::Histogram& merge_phase_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.batch.merge_seconds");
  return h;
}

/// Brackets one traced pipeline step; costs one branch when `hooks` is
/// nullptr.
class StepScope {
 public:
  StepScope(NetHooks* hooks, NetHooks::Step step) : hooks_(hooks), step_(step) {
    if (hooks_ != nullptr) hooks_->step_begin(step_);
  }
  ~StepScope() {
    if (hooks_ != nullptr) hooks_->step_end(step_);
  }
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

 private:
  NetHooks* hooks_;
  NetHooks::Step step_;
};

/// One analysis attempt; never throws (failures land in result.error with
/// a typed code).  `report` is the per-attempt option set — the deadline
/// pointer and the retry's with_exact flip live there, not in
/// options.report.
NetResult analyze_one_impl(const SpefNet& net, const core::ReportOptions& report,
                           NetCache* cache, TreeOwnership ownership, NetHooks* hooks) {
  const obs::Span span("engine.net.analyze", "engine", net.name);
  const obs::ScopedTimer timer(net_analyze_histogram());
  EngineCounters& ec = EngineCounters::get();
  NetResult r;
  r.name = net.name;
  r.driver = net.driver;
  r.loads = net.loads;
  r.nodes = net.tree.size();
  try {
    robust::fault::maybe_sleep("engine.net.analyze");
    robust::fault::maybe_throw("engine.net.analyze", robust::Code::kTaskFailure);
    if (net.tree.empty())
      throw robust::Error(robust::Code::kEmptyTree,
                          "net '" + net.name + "' has an empty RC tree");
    r.total_capacitance = net.tree.total_capacitance();
    if (cache != nullptr) {
      const NetKey key = NetKey::of(net.tree, report);
      {
        const StepScope step(hooks, NetHooks::Step::kCacheLookup);
        if (auto hit = cache->lookup(key, net.tree, &r.source)) {
          r.rows = std::move(*hit);
          return r;
        }
      }
      ec.tasks_run.add();
      // Share derived arrays by content: a content-identical net analyzed
      // under different options (or concurrently) reuses the same context.
      std::shared_ptr<const analysis::TreeContext> ctx;
      {
        const StepScope step(hooks, NetHooks::Step::kContextBuild);
        const NetKey ckey = NetKey::content_of(net.tree);
        ctx = cache->lookup_context(ckey);
        if (ctx != nullptr) {
          ec.context_reuses.add();
        } else {
          auto built = ownership == TreeOwnership::kCopy
                           ? std::make_shared<const analysis::TreeContext>(
                                 std::make_shared<const RCTree>(net.tree))
                           : std::make_shared<const analysis::TreeContext>(net.tree);
          ctx = cache->insert_context(ckey, built);
          if (ctx == built)
            ec.contexts_built.add();
          else
            ec.context_reuses.add();  // lost the insert race
        }
      }
      const StepScope step(hooks, NetHooks::Step::kReportBuild);
      r.rows = core::build_report(*ctx, report);
      // A donor context computed the rows under its own tree's names.
      if (&ctx->tree() != &net.tree) rebind_report_names(r.rows, net.tree);
      cache->insert(key, r.rows);
    } else {
      ec.tasks_run.add();
      ec.contexts_built.add();
      const analysis::TreeContext ctx(net.tree);
      r.rows = core::build_report(ctx, report);
    }
  } catch (const robust::Error& e) {
    r.rows.clear();
    r.error = e.what();
    r.code = e.code();
  } catch (const std::exception& e) {
    // Untyped escapee (lower-layer solver, allocator, ...): record it as a
    // task failure so it still gets a structured code and a retry shot.
    r.rows.clear();
    r.error = e.what();
    r.code = robust::Code::kTaskFailure;
  }
  return r;
}

/// analyze_one_impl plus the per-attempt shell: a fresh deadline of
/// `timeout_ms` (announced to the hooks, which may cancel it), a flight
/// recorder event covering the attempt (named by `phase`) and
/// plain-chrono wall timing into NetResult::analyze_seconds.  The chrono
/// clock is deliberately independent of RCT_OBS so `--top-slow` works in
/// every build.
NetResult analyze_attempt(const SpefNet& net, core::ReportOptions report,
                          std::uint64_t timeout_ms, NetCache* cache, TreeOwnership ownership,
                          NetHooks* hooks, const char* phase) {
  const robust::Deadline deadline = robust::Deadline::after_ms(timeout_ms);
  // An unarmed deadline still matters when hooks can cancel it.
  report.deadline = deadline.armed() || hooks != nullptr ? &deadline : nullptr;
  if (hooks != nullptr) hooks->attempt_begin(deadline);
  obs::flight::Recorder& fr = obs::flight::recorder();
  obs::flight::Recorder::Handle flight = fr.begin(net.name, phase);
  const auto wall_start = std::chrono::steady_clock::now();
  NetResult r = analyze_one_impl(net, report, cache, ownership, hooks);
  r.analyze_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  obs::flight::Outcome outcome = obs::flight::Outcome::kOk;
  if (!r.ok()) {
    outcome = r.code == robust::Code::kTimeout ? obs::flight::Outcome::kTimeout
                                               : obs::flight::Outcome::kFailed;
  }
  fr.end(flight, outcome, r.code);
  if (hooks != nullptr) hooks->attempt_end(deadline);
  return r;
}

void note_timeout(const NetResult& r, const char* phase, std::uint64_t timeout_ms) {
  EngineCounters::get().nets_timed_out.add();
  obs::log::warn("engine.net.timeout",
                 {{"net", r.name}, {"phase", phase}, {"timeout_ms", timeout_ms}});
}

/// Run-level bookkeeping shared by analyze_nets() and analyze_spef_file():
/// the run's NetCache, the failure budget, the per-slot task body, the
/// counter baselines EngineStats is a delta over, the robustness tallies
/// and the engine.batch.start/done events.
class BatchRun {
 public:
  /// `tasks` nets (or *D_NET sections) will run; `bytes` is the input
  /// size when the run parses its own file, else 0.
  BatchRun(const BatchOptions& options, std::size_t tasks, std::size_t bytes)
      : options_(options),
        cache_(16, options.cache_max_entries),
        // Failure budget: once `budget_` nets have failed, remaining tasks
        // skip their analysis and record kCancelled instead (cooperative —
        // running nets finish).  0 = unlimited.
        budget_(options.fail_fast ? std::size_t{1} : options.max_failures),
        // More workers than tasks is pure thread-create/join overhead.
        jobs_(options.jobs == 0 ? 0
                                : std::min(options.jobs, std::max<std::size_t>(tasks, 1))) {
    if (options.cache_backend != nullptr) cache_.set_backend(options.cache_backend);
    // EngineStats is a per-run delta over the process-global registry:
    // runs are assumed not to interleave (concurrent runs would fold into
    // each other's deltas, while the registry totals stay correct).
    EngineCounters& ec = EngineCounters::get();
    base_tasks_ = ec.tasks_run.value();
    base_built_ = ec.contexts_built.value();
    base_reused_ = ec.context_reuses.value();
    base_hits_ = ec.cache_hits.value();
    obs::log::info("engine.batch.start",
                   {{"nets", static_cast<std::uint64_t>(tasks)},
                    {"bytes", static_cast<std::uint64_t>(bytes)},
                    {"jobs", static_cast<std::uint64_t>(jobs_)},
                    {"use_cache", options.use_cache},
                    {"net_timeout_ms", options.net_timeout_ms}});
  }

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// The complete per-net task: queue-wait sample, failure-budget
  /// cancellation, analyze_net, completion counters.  The batch borrows
  /// its nets' trees: they outlive the run's cache.
  void run_slot(const SpefNet& net, NetResult& slot, std::uint64_t enqueue_ns) {
    EngineCounters& ec = EngineCounters::get();
    if constexpr (obs::kTimingEnabled)
      queue_wait_histogram().observe(static_cast<double>(obs::timestamp_ns() - enqueue_ns) *
                                     1e-9);
    if (budget_ != 0 && failed_so_far_.load(std::memory_order_relaxed) >= budget_) {
      slot.name = net.name;
      slot.driver = net.driver;
      slot.loads = net.loads;
      slot.nodes = net.tree.size();
      slot.error = "cancelled: failure budget (" + std::to_string(budget_) + ") exhausted";
      slot.code = robust::Code::kCancelled;
      slot.phase = "cancelled";
      ec.nets_cancelled.add();
      ec.nets_failed.add();
      ec.nets_completed.add();
      obs::flight::recorder().record(net.name, "cancelled", obs::flight::Outcome::kCancelled,
                                     robust::Code::kCancelled, 0);
      obs::log::debug("engine.net.cancelled", {{"net", net.name}});
      return;
    }
    slot = analyze_net(net, options_, options_.use_cache ? &cache_ : nullptr,
                       TreeOwnership::kBorrow);
    if (!slot.ok()) {
      ec.nets_failed.add();
      failed_so_far_.fetch_add(1, std::memory_order_relaxed);
    }
    ec.nets_completed.add();
  }

  /// Fills `stats`' counter deltas and the deterministic robustness
  /// tallies (straight from the merged results; the global counters feed
  /// --metrics-out, these feed the summary).
  void tally(const std::vector<NetResult>& nets, EngineStats& stats) const {
    EngineCounters& ec = EngineCounters::get();
    stats.tasks_run = ec.tasks_run.value() - base_tasks_;
    stats.contexts_built = ec.contexts_built.value() - base_built_;
    stats.context_reuses = ec.context_reuses.value() - base_reused_;
    stats.cache_hits = ec.cache_hits.value() - base_hits_;
    for (const NetResult& r : nets) {
      if (!r.ok()) ++stats.failures;
      if (r.degraded) ++stats.degraded;
      if (r.retried) ++stats.retried;
      if (r.timed_out) ++stats.timed_out;
      if (r.code == robust::Code::kCancelled) ++stats.cancelled;
    }
  }

  /// Phase histograms and the engine.batch.done event, once `stats` is
  /// final.
  static void done(const EngineStats& stats) {
    if constexpr (obs::kTimingEnabled) {
      analyze_phase_histogram().observe(stats.analyze.wall_s);
      merge_phase_histogram().observe(stats.merge.wall_s);
    }
    obs::log::info("engine.batch.done",
                   {{"nets", static_cast<std::uint64_t>(stats.nets)},
                    {"failures", static_cast<std::uint64_t>(stats.failures)},
                    {"cache_hits", static_cast<std::uint64_t>(stats.cache_hits)},
                    {"wall_s", stats.total.wall_s}});
    // Every analyzed (non-cache-hit) net either built its TreeContext or
    // adopted one from a content-identical sibling — nothing else.
    assert(stats.contexts_built + stats.context_reuses == stats.tasks_run);
  }

 private:
  const BatchOptions& options_;
  NetCache cache_;
  const std::size_t budget_;
  const std::size_t jobs_;
  std::atomic<std::size_t> failed_so_far_{0};
  std::uint64_t base_tasks_ = 0;
  std::uint64_t base_built_ = 0;
  std::uint64_t base_reused_ = 0;
  std::uint64_t base_hits_ = 0;
};

}  // namespace

std::string EngineStats::summary() const {
  std::ostringstream os;
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "engine: %zu net(s), %zu analyzed, %zu cache hit(s), %zu failed, %zu thread(s); "
                "contexts %zu built / %zu reused; "
                "analyze %.3fs wall / %.3fs cpu, total %.3fs wall",
                nets, tasks_run, cache_hits, failures, threads, contexts_built, context_reuses,
                analyze.wall_s, analyze.cpu_s, total.wall_s);
  os << buf;
  // Robustness line items only when something actually went sideways.
  if (degraded != 0 || retried != 0 || timed_out != 0 || cancelled != 0) {
    std::snprintf(buf, sizeof(buf),
                  "; robustness: %zu degraded, %zu retried, %zu timed out, %zu cancelled",
                  degraded, retried, timed_out, cancelled);
    os << buf;
  }
  // Per-net latency quantiles from the global histogram (process-lifetime,
  // not per-run — runs are sequential in practice, see the struct comment).
  // Absent when nothing was observed, which is also the -DRCT_OBS=OFF path:
  // scoped timers compile out, so the histogram stays empty.
  if (const obs::Histogram* h = obs::registry().find_histogram("engine.net.analyze_seconds");
      h != nullptr && h->count() > 0) {
    os << "; analyze latency p50 " << format_time(h->quantile(0.50)) << " / p95 "
       << format_time(h->quantile(0.95)) << " / p99 " << format_time(h->quantile(0.99));
  }
  return os.str();
}

NetResult analyze_net(const SpefNet& net, const BatchOptions& options, NetCache* cache,
                      TreeOwnership tree, NetHooks* hooks) {
  EngineCounters& ec = EngineCounters::get();
  const core::ReportOptions& report = options.report;
  NetResult r =
      analyze_attempt(net, report, options.net_timeout_ms, cache, tree, hooks, "analyze");
  if (!r.ok()) {
    r.phase = "analyze";
    if (r.code == robust::Code::kTimeout) {
      r.timed_out = true;
      note_timeout(r, "analyze", options.net_timeout_ms);
    }
    // Parse/topology defects fail identically on any path, and a cancelled
    // attempt was told to stop; everything else (non-convergence, NaN,
    // timeout, task failure) deserves the cheap O(N) moments path before
    // we give up on the net.
    const robust::Category cat = robust::category_of(r.code);
    const bool retryable = options.retry_on_failure && report.with_exact &&
                           cat != robust::Category::kParse &&
                           cat != robust::Category::kTopology &&
                           cat != robust::Category::kCancelled;
    if (retryable) {
      ec.nets_retried.add();
      obs::log::info("engine.net.retry",
                     {{"net", net.name}, {"code", robust::code_name(r.code)}});
      core::ReportOptions moments = report;
      moments.with_exact = false;
      NetResult second =
          analyze_attempt(net, moments, options.net_timeout_ms, cache, tree, hooks, "retry");
      second.retried = true;
      second.timed_out = r.timed_out;
      second.analyze_seconds += r.analyze_seconds;  // both attempts cost this net
      if (!second.ok()) {
        // Keep the retry's record: it is the failure that made the net
        // unsalvageable.
        second.phase = "retry";
        if (second.code == robust::Code::kTimeout) {
          second.timed_out = true;
          note_timeout(second, "retry", options.net_timeout_ms);
        }
      }
      r = std::move(second);
    }
  }
  if (!r.ok()) {
    obs::log::warn("engine.net.failed", {{"net", net.name},
                                         {"code", robust::code_name(r.code)},
                                         {"phase", r.phase},
                                         {"error", r.error}});
  }
  if (r.retried) r.degraded = true;
  for (const core::NodeReport& row : r.rows) {
    if (row.degraded) {
      r.degraded = true;
      break;
    }
  }
  if (r.degraded) ec.nets_degraded.add();
  return r;
}

BatchResult analyze_nets(std::span<const SpefNet> nets, const BatchOptions& options) {
  const PhaseTimer total;
  BatchResult out;
  out.nets.resize(nets.size());
  out.stats.nets = nets.size();
  BatchRun run(options, nets.size(), 0);
  EngineCounters::get().nets_total.add(nets.size());

  const PhaseTimer analyze;
  {
    const obs::Span span("engine.batch.analyze", "engine");
    ThreadPool pool(run.jobs());
    out.stats.threads = pool.thread_count();
    // One task per net; each writes only its own preassigned slot, so the
    // merged order is the input order regardless of scheduling.
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const SpefNet& net = nets[i];
      NetResult& slot = out.nets[i];
      const std::uint64_t enqueue_ns = obs::timestamp_ns();
      pool.submit([&run, &net, &slot, enqueue_ns] { run.run_slot(net, slot, enqueue_ns); });
    }
    pool.wait_idle();
  }
  out.stats.analyze = analyze.elapsed();

  const PhaseTimer merge;
  {
    const obs::Span span("engine.batch.merge", "engine");
    run.tally(out.nets, out.stats);
  }
  out.stats.merge = merge.elapsed();
  out.stats.total = total.elapsed();
  BatchRun::done(out.stats);
  return out;
}

BatchResult analyze_batch(const SpefFile& file, const BatchOptions& options) {
  BatchResult out = analyze_nets(file.nets, options);
  out.design = file.design;
  return out;
}

FileBatchResult analyze_spef_file(const std::string& path, const BatchOptions& options,
                                  const ParseOptions& parse_options) {
  const PhaseTimer total;
  FileBatchResult out;

  MappedFile mapped;
  if (!mapped.open(path))
    throw SpefError(robust::Code::kFileOpen, "cannot open '" + path + "'", {path, 0}, "spef");
  SpefParseOptions spef_opts = parse_options.spef;
  if (spef_opts.path.empty()) spef_opts.path = path;
  const std::string_view text = mapped.view();
  out.parse.bytes = text.size();

  const PhaseTimer index_timer;
  spef::ParsePlan plan = spef::prepare_spef(text, spef_opts);
  out.parse.index_seconds = index_timer.elapsed().wall_s;
  if constexpr (obs::kTimingEnabled)
    obs::registry().histogram("parse.index.seconds").observe(out.parse.index_seconds);

  const std::size_t n = plan.layout.sections.size();
  out.parse.sections = n;
  obs::registry().counter("parse.sections.total").add(n);
  BatchRun run(options, n, text.size());

  // One fused task per *D_NET section: parse it, then immediately analyze
  // the net it produced on the same worker — early nets are being timed
  // while late sections are still being tokenized.  Each task writes only
  // its own preassigned slots, and the compaction below walks them in file
  // order, so the output matches parse + analyze_batch() exactly.
  std::vector<spef::ShardResult> sections(n);
  std::vector<NetResult> slots(n);
  std::vector<unsigned char> has_net(n, 0);
  const PhaseTimer analyze;
  {
    const obs::Span span("engine.batch.analyze", "engine");
    ThreadPool pool(run.jobs());
    out.batch.stats.threads = pool.thread_count();
    out.parse.threads = pool.thread_count();
    pool.parallel_for(n, [&](std::size_t i) {
      sections[i] = detail::parse_section_task(text, plan, i, spef_opts);
      if (!sections[i].error && !sections[i].nets.empty()) {
        EngineCounters::get().nets_total.add();
        has_net[i] = 1;
        run.run_slot(sections[i].nets.front(), slots[i], obs::timestamp_ns());
      }
    });
  }
  out.batch.stats.analyze = analyze.elapsed();
  out.parse.sections_seconds = out.batch.stats.analyze.wall_s;

  // File-order merge: rethrows the earliest strict-mode error (discarding
  // any analysis the overlap already did for later sections) and assembles
  // the lenient diagnostics exactly as the serial parser ordered them.
  SpefFile parsed = spef::merge_spef(std::move(plan), std::move(sections), spef_opts);
  out.batch.design = parsed.design;
  out.diagnostics = std::move(parsed.diagnostics);
  out.nets_rejected = parsed.nets_rejected;
  out.parse.nets = parsed.nets.size();
  out.parse.nets_rejected = parsed.nets_rejected;

  const PhaseTimer merge;
  {
    const obs::Span span("engine.batch.merge", "engine");
    out.batch.nets.reserve(parsed.nets.size());
    for (std::size_t i = 0; i < n; ++i)
      if (has_net[i]) out.batch.nets.push_back(std::move(slots[i]));
    out.batch.stats.nets = out.batch.nets.size();
    run.tally(out.batch.nets, out.batch.stats);
  }
  out.batch.stats.merge = merge.elapsed();
  out.batch.stats.total = total.elapsed();
  out.parse.total_seconds = out.batch.stats.total.wall_s;
  BatchRun::done(out.batch.stats);
  return out;
}

std::string format_batch(const BatchResult& result) {
  std::ostringstream os;
  if (!result.design.empty())
    os << "design '" << result.design << "': " << result.nets.size() << " net(s)\n";
  for (const NetResult& net : result.nets) {
    os << "\n*D_NET " << net.name << "  (driver " << net.driver << ", " << net.nodes
       << " nodes, " << format_engineering(net.total_capacitance, "F") << " total)\n";
    if (!net.ok()) {
      os << "  error: " << net.error << "\n";
      os << "  record: code=" << robust::code_name(net.code)
         << " category=" << robust::category_name(robust::category_of(net.code))
         << " phase=" << net.phase << " net=" << net.name << "\n";
      continue;
    }
    if (net.retried)
      os << "  note: exact path failed; rows are moment bounds from the automatic retry\n";
    for (const NodeId load : net.loads) {
      const core::NodeReport& r = net.rows[load];
      char buf[256];
      std::snprintf(buf, sizeof(buf), "  load %-12s elmore %-10s bounds [%s, %s]",
                    r.name.c_str(), format_time(r.elmore).c_str(),
                    format_time(r.lower_bound).c_str(), format_time(r.elmore).c_str());
      os << buf;
      if (r.exact_delay) os << "  exact " << format_time(*r.exact_delay);
      if (r.degraded) os << "  degraded";
      os << "\n";
    }
  }
  return os.str();
}

std::string format_batch_json(const BatchResult& result) {
  std::string out;
  out += "{\"design\":";
  append_json_string(out, result.design);
  out += ",\"nets\":[";
  bool first_net = true;
  for (const NetResult& net : result.nets) {
    if (!first_net) out += ',';
    first_net = false;
    out += "{\"name\":";
    append_json_string(out, net.name);
    out += ",\"driver\":";
    append_json_string(out, net.driver);
    out += ",\"nodes\":" + std::to_string(net.nodes);
    out += ",\"total_capacitance_f\":";
    append_json_double(out, net.total_capacitance);
    out += ",\"degraded\":";
    out += net.degraded ? "true" : "false";
    out += ",\"retried\":";
    out += net.retried ? "true" : "false";
    out += ",\"timed_out\":";
    out += net.timed_out ? "true" : "false";
    if (!net.ok()) {
      out += ",\"error\":";
      append_json_string(out, net.error);
      out += ",\"code\":";
      append_json_string(out, std::string(robust::code_name(net.code)));
      out += ",\"category\":";
      append_json_string(out,
                         std::string(robust::category_name(robust::category_of(net.code))));
      out += ",\"phase\":";
      append_json_string(out, net.phase);
      out += ",\"loads\":[]}";
      continue;
    }
    out += ",\"error\":null,\"loads\":[";
    bool first_load = true;
    for (const NodeId load : net.loads) {
      const core::NodeReport& r = net.rows[load];
      if (!first_load) out += ',';
      first_load = false;
      out += "{\"name\":";
      append_json_string(out, r.name);
      out += ",\"elmore_s\":";
      append_json_double(out, r.elmore);
      out += ",\"sigma_s\":";
      append_json_double(out, r.sigma);
      out += ",\"lower_bound_s\":";
      append_json_double(out, r.lower_bound);
      out += ",\"exact_delay_s\":";
      if (r.exact_delay)
        append_json_double(out, *r.exact_delay);
      else
        out += "null";
      out += ",\"degraded\":";
      out += r.degraded ? "true" : "false";
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace rct::engine
