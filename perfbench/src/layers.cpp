// pblayers — the traced per-layer run.  Times calls into each rct module's
// public functions on one generated deck, records a span around each call
// (kept in memory, written out at the end) and prints the per-layer
// metrics as one JSON object.
//
//   pblayers DECK JOBS EXACT_LIMIT SPANS_OUT
//
// Run it from a scratch directory: the server layer puts its stores and a
// unix socket there.  README.md maps every metric to the end-to-end metric
// it should move.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/tree_context.hpp"
#include "core/report.hpp"
#include "engine/batch.hpp"
#include "engine/net_cache.hpp"
#include "load.hpp"
#include "rctree/arena.hpp"
#include "rctree/mapped_file.hpp"
#include "rctree/spef_pipeline.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/store.hpp"
#include "sim/exact.hpp"
#include "spans.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Nets the per-request server layers visit (the first ones in the deck).
constexpr std::size_t kServerSample = 40;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string request_line(const char* cmd, const std::string& net, std::uint64_t id) {
  rct::server::Request r;
  r.id = id;
  r.cmd = cmd;
  r.net = net;
  return rct::server::encode_request(r);
}

/// handle_line() on every line; latency per call in ms.  Throws when a
/// response is not ok, so a failure cannot pass for a fast answer.
std::vector<double> handle_all(pb::SpanLog& log, const char* span, rct::server::Server& server,
                               const std::vector<std::string>& lines) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto t0 = Clock::now();
    std::string response;
    {
      const pb::Scoped s(log, span, i);
      response = server.handle_line(lines[i]);
    }
    ms.push_back(seconds_since(t0) * 1e3);
    if (!rct::server::response_ok(response))
      throw std::runtime_error(std::string(span) + ": " + response);
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: pblayers DECK JOBS EXACT_LIMIT SPANS_OUT\n");
    return 2;
  }
  const std::string deck = argv[1];
  const std::size_t jobs = std::strtoul(argv[2], nullptr, 10);
  rct::core::ReportOptions report;
  report.exact_node_limit = std::strtoul(argv[3], nullptr, 10);
  rct::core::ReportOptions moments_only = report;
  moments_only.with_exact = false;
  pb::SpanLog log;
  std::map<std::string, double> m;
  try {
    // --- rctree: map + index, then every section parse (tree build included)
    rct::MappedFile file;
    std::optional<rct::spef::ParsePlan> plan;
    rct::SpefParseOptions parse_options;
    {
      const pb::Scoped s(log, "rctree.index");
      if (!file.open(deck)) throw std::runtime_error(file.error());
      plan.emplace(rct::spef::prepare_spef(file.view(), parse_options));
    }
    std::vector<rct::spef::ShardResult> sections;
    {
      rct::Arena arena;
      for (std::size_t i = 0; i < plan->layout.sections.size(); ++i) {
        const pb::Scoped s(log, "rctree.parse", i);
        sections.push_back(rct::spef::parse_spef_section(file.view(), *plan, i, parse_options, arena));
        arena.reset();
      }
    }
    const rct::SpefFile spef = rct::spef::merge_spef(std::move(*plan), std::move(sections), parse_options);
    m["rctree.index_s"] = log.total_s("rctree.index");
    m["rctree.parse_s"] = log.total_s("rctree.parse");
    m["rctree.parse_mb_per_s"] =
        static_cast<double>(file.size()) / 1e6 / (m["rctree.index_s"] + m["rctree.parse_s"]);

    // --- analysis / moments / sim / core, one net at a time on this thread
    double searches = 0.0;
    double used = 0.0;
    double sink = 0.0;
    for (std::size_t i = 0; i < spef.nets.size(); ++i) {
      const rct::SpefNet& net = spef.nets[i];
      const pb::Scoped per_net(log, "net", i);
      std::unique_ptr<rct::analysis::TreeContext> ctx;
      {
        const pb::Scoped s(log, "analysis.context", i);
        ctx = std::make_unique<rct::analysis::TreeContext>(net.tree);
      }
      {
        const pb::Scoped s(log, "moments.stats", i);
        sink += ctx->impulse_stats()[0].mean + ctx->prh_terms().tp;
      }
      if (report.with_exact && net.tree.size() <= report.exact_node_limit) {
        std::optional<rct::sim::ExactAnalysis> exact;
        {
          const pb::Scoped s(log, "sim.eigensolve", i);
          exact.emplace(net.tree);
        }
        {
          // Every row, as build_report searches them: 50% delay, then the
          // 10% and 90% points of the rise time.
          const pb::Scoped s(log, "sim.crossing", i);
          for (rct::NodeId k = 0; k < net.tree.size(); ++k)
            sink += exact->step_delay(k, report.fraction) + exact->step_rise_time_10_90(k);
        }
        searches += 3.0 * static_cast<double>(net.tree.size());
        used += static_cast<double>(net.loads.size());
      }
      {
        const pb::Scoped s(log, "core.report", i);
        sink += rct::core::build_report(*ctx, report).size();
      }
      {
        // The report's own work (rows, bounds, PRH), timed directly: the
        // same call with the exact path off.
        const pb::Scoped s(log, "core.report_rows", i);
        sink += rct::core::build_report(*ctx, moments_only).size();
      }
    }
    m["analysis.context_s"] = log.total_s("analysis.context");
    m["moments.stats_s"] = log.total_s("moments.stats");
    m["sim.eigensolve_s"] = log.total_s("sim.eigensolve");
    m["sim.crossing_s"] = log.total_s("sim.crossing");
    m["sim.crossing_searches"] = searches;
    m["sim.crossing_used_ratio"] = searches > 0 ? used * 3.0 / searches : 0.0;
    m["core.report_s"] = log.total_s("core.report");
    m["core.report_self_s"] = log.total_s("core.report_rows");

    // --- engine: the pool at the fixed worker count, cache on and off
    rct::engine::BatchOptions batch;
    batch.jobs = jobs;
    batch.report = report;
    rct::engine::BatchResult result;
    {
      const pb::Scoped s(log, "engine.analyze");
      result = rct::engine::analyze_nets(spef.nets, batch);
    }
    batch.use_cache = false;
    {
      const pb::Scoped s(log, "engine.analyze_nocache");
      const rct::engine::BatchResult uncached = rct::engine::analyze_nets(spef.nets, batch);
      sink += static_cast<double>(uncached.nets.size());
    }
    const double wall = log.total_s("engine.analyze");
    double busy = 0.0;
    for (const rct::engine::NetResult& r : result.nets) busy += r.analyze_seconds;
    const rct::engine::EngineStats& st = result.stats;
    m["engine.analyze_s"] = wall;
    m["engine.pool_busy_ratio"] = busy / (static_cast<double>(st.threads) * wall);
    m["engine.cache_hit_ratio"] = static_cast<double>(st.cache_hits) / static_cast<double>(st.nets);
    m["engine.contexts_built"] = static_cast<double>(st.contexts_built);
    m["engine.cache_overhead_s"] = wall - log.total_s("engine.analyze_nocache");
    {
      const pb::Scoped s(log, "engine.render_text");
      sink += static_cast<double>(rct::engine::format_batch(result).size());
    }
    {
      const pb::Scoped s(log, "engine.render_json");
      sink += static_cast<double>(rct::engine::format_batch_json(result).size());
    }
    m["engine.render_text_s"] = log.total_s("engine.render_text");
    m["engine.render_json_s"] = log.total_s("engine.render_json");

    // --- server: design load, handle_line per request kind, store, protocol
    std::vector<std::string> reports, bounds;
    for (std::size_t i = 0; i < std::min(kServerSample, spef.nets.size()); ++i) {
      reports.push_back(request_line("report", spef.nets[i].name, i));
      bounds.push_back(request_line("bounds", spef.nets[i].name, i));
    }
    std::filesystem::remove_all("layers_store");
    std::filesystem::remove_all("layers_entries");
    rct::server::ServeOptions serve;
    serve.jobs = jobs;
    serve.parse_jobs = jobs;
    serve.report = report;
    serve.store_dir = "layers_store";
    serve.listen = "layers.sock";
    {
      rct::server::Server server(serve);
      {
        const pb::Scoped s(log, "server.load");
        (void)server.load_design(deck, false);
      }
      m["server.handle_report_cold_ms"] = median(handle_all(log, "server.report_cold", server, reports));
      m["server.handle_report_memory_ms"] =
          median(handle_all(log, "server.report_memory", server, reports));
      m["server.handle_bounds_ms"] = median(handle_all(log, "server.bounds", server, bounds));
    }
    m["server.load_s"] = log.total_s("server.load");
    {
      // A restarted server on the warm store: first touches are store reads.
      rct::server::Server server(serve);
      (void)server.load_design(deck, false);
      m["server.handle_report_store_ms"] =
          median(handle_all(log, "server.report_store", server, reports));
      // Client-observed latency of memory hits over the socket, minus the
      // in-process handle_line time of the same requests.
      if (!server.start()) throw std::runtime_error(server.error());
      std::vector<double> client_ms;
      {
        pb::Client client(serve.listen);
        for (std::size_t i = 0; i < reports.size(); ++i) {
          const auto t0 = Clock::now();
          const pb::Scoped s(log, "server.socket_round_trip", i);
          if (!rct::server::response_ok(client.call(reports[i])))
            throw std::runtime_error("socket report failed");
          client_ms.push_back(seconds_since(t0) * 1e3);
        }
      }
      const double in_process = median(handle_all(log, "server.report_memory2", server, reports));
      m["server.socket_overhead_ms"] = median(client_ms) - in_process;
      server.stop();
    }
    {
      rct::server::DiskStore store("layers_entries");
      if (!store.ok()) throw std::runtime_error(store.error());
      std::vector<double> save_ms, load_ms;
      double misses = 0.0;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const rct::RCTree& tree = spef.nets[i].tree;
        const std::vector<rct::core::NodeReport> rows = rct::core::build_report(tree, report);
        const rct::engine::NetKey key = rct::engine::NetKey::of(tree, report);
        auto t0 = Clock::now();
        {
          const pb::Scoped s(log, "server.store_save", i);
          store.save(key, rows);
        }
        save_ms.push_back(seconds_since(t0) * 1e3);
        t0 = Clock::now();
        {
          const pb::Scoped s(log, "server.store_load", i);
          // An entry written a moment ago that does not read back is a
          // failed store read, counted rather than fatal.
          if (!store.load(key).has_value()) misses += 1.0;
        }
        load_ms.push_back(seconds_since(t0) * 1e3);
      }
      m["server.store_save_ms"] = median(save_ms);
      m["server.store_load_ms"] = median(load_ms);
      m["server.store_load_misses"] = misses;
    }
    {
      constexpr int kReps = 200;
      std::vector<double> us;
      std::vector<std::string> lines = reports;
      lines.insert(lines.end(), bounds.begin(), bounds.end());
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const pb::Scoped s(log, "server.protocol", i);
        const auto t0 = Clock::now();
        for (int r = 0; r < kReps; ++r) {
          const rct::server::ParsedRequest p = rct::server::parse_request(lines[i]);
          sink += static_cast<double>(rct::server::encode_request(p.request).size());
        }
        us.push_back(seconds_since(t0) * 1e6 / kReps);
      }
      m["server.protocol_us"] = median(us);
    }
    std::filesystem::remove_all("layers_store");
    std::filesystem::remove_all("layers_entries");
    if (sink == 0.0) std::fprintf(stderr, "pblayers: nothing was computed\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pblayers: %s\n", e.what());
    return 1;
  }
  if (!log.write(argv[4])) {
    std::fprintf(stderr, "pblayers: cannot write %s\n", argv[4]);
    return 1;
  }
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}\n");
  return 0;
}
