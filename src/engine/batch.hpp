#pragma once
// Parallel batch timing engine.
//
// Real extracted designs carry thousands of independent nets; bound reports
// for them are embarrassingly parallel.  analyze_batch()/analyze_nets() fan
// the nets of a SpefFile out across a ThreadPool — one task per net, each
// running analyze_net(), the per-net pipeline `rct serve` shares — consult
// a content-addressed NetCache so repeated nets (clock meshes, stamped
// macros) skip recomputation, and merge results deterministically in input
// order: the output is bit-identical for any thread count.
//
// Failures are per-net, never process-fatal: a net that throws gets a
// structured failure record (typed robust::Code, phase, message) and every
// other net still completes.  Nets whose exact path fails get one automatic
// retry on the cheap moments path; rows produced that way are flagged
// `degraded`.  A cooperative per-net deadline (net_timeout_ms) and a
// failure budget (max_failures / fail_fast) bound runaway batches.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "engine/net_cache.hpp"
#include "engine/parallel_parse.hpp"
#include "rctree/spef.hpp"
#include "robust/deadline.hpp"
#include "robust/error.hpp"

namespace rct::engine {

/// Knobs for one batch run.
struct BatchOptions {
  std::size_t jobs = 0;        ///< worker threads; 0 = hardware concurrency
  core::ReportOptions report;  ///< shared per-net report options
  bool use_cache = true;       ///< skip recomputation of content-identical nets
  /// LRU cap on the in-memory NetCache (rows and contexts each); 0 keeps
  /// the pre-cap unbounded behavior (stdout stays byte-identical).  Maps to
  /// the CLI's --cache-max-entries.
  std::size_t cache_max_entries = 0;
  /// Optional second-level persistent store consulted on cache misses and
  /// written through on inserts (e.g. server::DiskStore via `--store DIR`);
  /// nullptr = memory only.  Ignored when use_cache is false.
  std::shared_ptr<CacheBackend> cache_backend;
  /// Cooperative per-net deadline in milliseconds; 0 disables.  Checked at
  /// analysis checkpoints (threads are never killed): before the report,
  /// before the exact eigensolve and every 16 eigenvalues and 16
  /// eigenvectors inside it, and every 64 report rows.  Overshoot is
  /// bounded by the longest step between two checkpoints, not by luck.
  std::uint64_t net_timeout_ms = 0;
  /// Stop scheduling new nets once this many have failed; 0 = unlimited.
  /// Skipped nets get a kCancelled record.  WHICH nets get cancelled is
  /// scheduling-dependent, so — unlike the default path — stdout is not
  /// byte-identical across --jobs values once the budget trips.
  std::size_t max_failures = 0;
  /// Shorthand for max_failures = 1: cancel everything after the first
  /// failure.
  bool fail_fast = false;
  /// One automatic retry of a failed exact-path net on the moments path
  /// (with_exact = false, fresh deadline).  Parse/topology failures are
  /// not retried — they would fail identically.
  bool retry_on_failure = true;
};

/// Outcome for one input net.
struct NetResult {
  std::string name;
  std::string driver;
  std::vector<NodeId> loads;
  std::size_t nodes = 0;
  double total_capacitance = 0.0;       ///< farads
  std::vector<core::NodeReport> rows;   ///< empty when error is set
  std::string error;                    ///< per-net failure message, if any
  /// Typed failure code (kNone when ok); category via robust::category_of.
  robust::Code code = robust::Code::kNone;
  /// Where the final failure happened: "analyze", "retry" or "cancelled".
  /// Empty when ok.
  std::string phase;
  bool retried = false;    ///< rows (or final failure) came from the moments retry
  bool timed_out = false;  ///< a deadline expired (even if the retry then succeeded)
  /// Wall time spent analyzing this net, summed across attempts (0 for
  /// cancelled nets).  Feeds the CLI's `--top-slow` table; deliberately
  /// absent from the deterministic stdout renderers.
  double analyze_seconds = 0.0;
  /// Any row degraded (exact result discarded, see core::NodeReport), or
  /// the whole net fell back to the moments retry.
  bool degraded = false;
  /// Which cache level served the rows; kMiss when they were computed.
  CacheSource source = CacheSource::kMiss;

  [[nodiscard]] bool ok() const { return error.empty(); }
  [[nodiscard]] bool from_cache() const { return source != CacheSource::kMiss; }
};

/// Who owns the tree behind a TreeContext that analyze_net() builds and
/// caches.
enum class TreeOwnership {
  kBorrow,  ///< the net outlives the cache (one batch run): no copy
  kCopy,    ///< the cache outlives the net (the server evicts designs)
};

/// Optional observer of one analyze_net() call.  The server implements it
/// to tape its per-request trace phases and to let a drain cancel the
/// attempt in flight; the batch passes nullptr and pays one branch per
/// call site.
class NetHooks {
 public:
  /// The traced steps of an attempt on the cached path, in order.
  enum class Step { kCacheLookup, kContextBuild, kReportBuild };
  virtual void step_begin(Step step) = 0;
  virtual void step_end(Step step) = 0;
  /// `deadline` governs the attempt starting now and stays valid until the
  /// matching attempt_end().  Cancelling it ends the attempt with
  /// kCancelled, which is never retried.
  virtual void attempt_begin(const robust::Deadline& deadline) = 0;
  virtual void attempt_end(const robust::Deadline& deadline) = 0;

 protected:
  ~NetHooks() = default;
};

/// The per-net pipeline behind `rct batch`, `rct spef` and `rct serve`:
/// fault sites, the empty-tree check, cache lookup, a content-keyed shared
/// TreeContext, core::build_report, name rebinding and cache insert — then,
/// when the attempt failed for any reason but a parse/topology defect or a
/// cancellation, one retry on the moments path (with_exact = false).  Each
/// attempt gets a fresh deadline of options.net_timeout_ms.  Reads
/// options.report, net_timeout_ms and retry_on_failure; the run-level
/// fields (jobs, cache, budget) belong to the callers.  Never throws.
/// `cache` may be nullptr (compute every time); `tree` states whether a
/// context cached for this net may borrow the net's tree.
[[nodiscard]] NetResult analyze_net(const SpefNet& net, const BatchOptions& options,
                                    NetCache* cache, TreeOwnership tree,
                                    NetHooks* hooks = nullptr);

/// Wall and process-CPU time of one engine phase, seconds.
struct PhaseTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Observability: what the engine did and where the time went.  The
/// counter fields are a per-run view over the global obs::MetricsRegistry
/// (captured as before/after deltas of the `engine.*` counters), so this
/// summary, `--metrics-out` snapshots and the `--progress` meter all read
/// one source of truth.  Concurrent analyze_nets() runs in one process
/// would fold into each other's deltas; run batches sequentially when the
/// per-run stats matter.
struct EngineStats {
  std::size_t nets = 0;       ///< input nets
  std::size_t tasks_run = 0;  ///< analyze attempts (cache misses; retries count)
  std::size_t cache_hits = 0;
  std::size_t failures = 0;   ///< nets with a failure record (cancelled included)
  std::size_t degraded = 0;   ///< nets with any degraded row or a moments retry
  std::size_t retried = 0;    ///< nets that took the automatic moments retry
  std::size_t timed_out = 0;  ///< nets that hit the cooperative deadline
  std::size_t cancelled = 0;  ///< nets skipped after the failure budget tripped
  std::size_t threads = 0;    ///< pool size used
  /// Derived-array (TreeContext) accounting: every analyzed net either
  /// built its context or adopted one from a content-identical net, so
  /// contexts_built + context_reuses == tasks_run.
  std::size_t contexts_built = 0;
  std::size_t context_reuses = 0;
  PhaseTime analyze;        ///< fan-out + per-net analysis
  PhaseTime merge;          ///< in-order result collection
  PhaseTime total;

  /// One-line human-readable summary (for stderr; contains timings, so it is
  /// intentionally kept out of the deterministic stdout renderers below).
  [[nodiscard]] std::string summary() const;
};

/// A finished batch: one NetResult per input net, in input order.
struct BatchResult {
  std::string design;  ///< from the SPEF header; empty for raw net spans
  std::vector<NetResult> nets;
  EngineStats stats;
};

/// Analyzes a span of nets across `options.jobs` threads.
[[nodiscard]] BatchResult analyze_nets(std::span<const SpefNet> nets,
                                       const BatchOptions& options = {});

/// Analyzes every net of a parsed SPEF file.
[[nodiscard]] BatchResult analyze_batch(const SpefFile& file, const BatchOptions& options = {});

/// A batch run that parsed its own input: the BatchResult plus the
/// file-level parse outcome (lenient diagnostics in file order, rejected
/// section count, parse accounting).
struct FileBatchResult {
  BatchResult batch;
  std::vector<robust::Diagnostic> diagnostics;
  std::size_t nets_rejected = 0;
  ParseStats parse;
};

/// Maps `path` and overlaps parsing with analysis on one thread pool: each
/// *D_NET section is one task that parses the section and immediately
/// analyzes the net it produced, so early nets are being timed while late
/// sections are still being tokenized — there is no parse/analyze barrier.
/// Results land in per-section slots and are merged in file order, so
/// nets, rows, diagnostics and the strict-mode error choice are identical
/// to parse + analyze_batch() run back to back, for any thread count.
/// `parse_options.jobs` is ignored (the shared pool uses `options.jobs`);
/// its SpefParseOptions select strict/lenient.  Throws SpefError exactly
/// where parse_spef_file() would.
[[nodiscard]] FileBatchResult analyze_spef_file(const std::string& path,
                                                const BatchOptions& options = {},
                                                const ParseOptions& parse_options = {});

/// Plain-text renderer used by `rct batch`.  Deterministic: no timings,
/// thread counts or cache provenance, so output is byte-identical for any
/// --jobs value (except under max_failures/fail_fast, where the set of
/// cancelled nets is scheduling-dependent).
[[nodiscard]] std::string format_batch(const BatchResult& result);

/// JSON renderer (schema documented in README.md), same determinism
/// guarantee as format_batch().
[[nodiscard]] std::string format_batch_json(const BatchResult& result);

}  // namespace rct::engine
