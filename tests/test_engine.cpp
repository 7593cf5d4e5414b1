// Tests for src/engine: thread pool, content-addressed net cache, and the
// parallel batch analyzer.  The load-bearing guarantees:
//
//   * determinism — an N-thread batch is bit-identical to a 1-thread batch,
//   * caching — content-identical nets (names aside) skip recomputation,
//   * isolation — one net failing is reported per-net, never process-fatal.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "analysis/tree_context.hpp"
#include "engine/batch.hpp"
#include "engine/net_cache.hpp"
#include "engine/thread_pool.hpp"
#include "rctree/generators.hpp"
#include "rctree/spef.hpp"

namespace rct::engine {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Same topology and R/C values, fresh node names.
RCTree renamed(const RCTree& t, const std::string& prefix) {
  RCTreeBuilder b;
  for (NodeId i = 0; i < t.size(); ++i)
    b.add_node(prefix + std::to_string(i), t.parent(i), t.resistance(i), t.capacitance(i));
  return std::move(b).build();
}

SpefNet make_net(std::string name, RCTree tree) {
  SpefNet net;
  net.name = std::move(name);
  net.driver = tree.empty() ? "" : tree.name(tree.children_of_source().front());
  if (!tree.empty()) net.loads = tree.leaves();
  net.tree = std::move(tree);
  return net;
}

std::vector<SpefNet> random_nets(std::size_t count, std::size_t nodes) {
  std::vector<SpefNet> nets;
  nets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RCTree t = gen::random_tree(nodes, /*seed=*/1000 + i);
    nets.push_back(make_net("net" + std::to_string(i), renamed(t, "n" + std::to_string(i) + "_")));
  }
  return nets;
}

void expect_rows_identical(const std::vector<core::NodeReport>& a,
                           const std::vector<core::NodeReport>& b,
                           bool compare_names = true) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (compare_names) {
      EXPECT_EQ(a[i].name, b[i].name);
    }
    EXPECT_EQ(a[i].depth, b[i].depth);
    // Bit-identical, not approximately equal: the merge is deterministic and
    // each net's math is single-threaded, so nothing may perturb a ULP.
    EXPECT_EQ(a[i].elmore, b[i].elmore);
    EXPECT_EQ(a[i].sigma, b[i].sigma);
    EXPECT_EQ(a[i].skewness, b[i].skewness);
    EXPECT_EQ(a[i].lower_bound, b[i].lower_bound);
    EXPECT_EQ(a[i].single_pole, b[i].single_pole);
    EXPECT_EQ(a[i].prh_tmin, b[i].prh_tmin);
    EXPECT_EQ(a[i].prh_tmax, b[i].prh_tmax);
    EXPECT_EQ(a[i].exact_delay, b[i].exact_delay);
    EXPECT_EQ(a[i].exact_rise, b[i].exact_rise);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hit(257, 0);
  pool.parallel_for(hit.size(), [&hit](std::size_t i) { hit[i] = 1; });
  for (std::size_t i = 0; i < hit.size(); ++i) EXPECT_EQ(hit[i], 1) << i;
}

TEST(ThreadPool, SurvivesThrowingTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([] { throw std::runtime_error("task failure"); });
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitIdleOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&pool, &count] {
    for (int i = 0; i < 10; ++i)
      pool.submit([&count] { count.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

// ---------------------------------------------------------------------------
// NetKey / NetCache
// ---------------------------------------------------------------------------

TEST(NetCache, KeyIgnoresNodeNames) {
  const RCTree a = gen::random_tree(30, 7);
  const RCTree b = renamed(a, "other_");
  const core::ReportOptions opt;
  EXPECT_EQ(NetKey::of(a, opt), NetKey::of(b, opt));
  EXPECT_EQ(NetKey::of(a, opt).hash, NetKey::of(b, opt).hash);
}

TEST(NetCache, KeySeesValueAndOptionChanges) {
  const RCTree a = gen::random_tree(30, 7);
  RCTreeBuilder b;
  for (NodeId i = 0; i < a.size(); ++i)
    b.add_node(a.name(i), a.parent(i), a.resistance(i),
               a.capacitance(i) * (i == 5 ? 1.0000001 : 1.0));
  const RCTree perturbed = std::move(b).build();
  core::ReportOptions opt;
  EXPECT_FALSE(NetKey::of(a, opt) == NetKey::of(perturbed, opt));
  core::ReportOptions other = opt;
  other.fraction = 0.4;
  EXPECT_FALSE(NetKey::of(a, opt) == NetKey::of(a, other));
}

TEST(NetCache, HitReturnsRowsWithReboundNames) {
  const RCTree a = gen::random_tree(25, 11);
  const RCTree b = renamed(a, "copy_");
  const core::ReportOptions opt;
  NetCache cache;
  EXPECT_FALSE(cache.lookup(NetKey::of(a, opt), a).has_value());
  const auto rows = core::build_report(a, opt);
  cache.insert(NetKey::of(a, opt), rows);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(NetKey::of(b, opt), b);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), b.size());
  for (NodeId i = 0; i < b.size(); ++i) {
    EXPECT_EQ((*hit)[i].name, b.name(i));
    EXPECT_EQ((*hit)[i].elmore, rows[i].elmore);
  }
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(NetCache, ContentKeyIgnoresOptions) {
  const RCTree a = gen::random_tree(20, 13);
  core::ReportOptions opt;
  opt.fraction = 0.9;
  // Option changes separate the row keys but not the content key.
  EXPECT_FALSE(NetKey::of(a, {}) == NetKey::of(a, opt));
  EXPECT_EQ(NetKey::content_of(a), NetKey::content_of(renamed(a, "x_")));
}

TEST(NetCache, ContextInsertFirstWriterWins) {
  const RCTree a = gen::random_tree(20, 13);
  const NetKey key = NetKey::content_of(a);
  NetCache cache;
  EXPECT_EQ(cache.lookup_context(key), nullptr);
  EXPECT_EQ(cache.context_hits(), 0u);

  auto first = std::make_shared<const analysis::TreeContext>(a);
  auto second = std::make_shared<const analysis::TreeContext>(a);
  EXPECT_EQ(cache.insert_context(key, first), first);
  // The duplicate insert loses: the caller gets the stored winner back.
  EXPECT_EQ(cache.insert_context(key, second), first);
  EXPECT_EQ(cache.lookup_context(key), first);
  EXPECT_EQ(cache.context_count(), 1u);
  EXPECT_EQ(cache.context_hits(), 2u);  // one lost race + one lookup hit
}

TEST(NetCache, LruCapEvictsOldestAndCountsEvictions) {
  // One shard so the cap is exact, not split.
  NetCache cache(/*shards=*/1, /*max_entries=*/2);
  const core::ReportOptions opt;
  std::vector<RCTree> trees;
  std::vector<NetKey> keys;
  for (std::size_t i = 0; i < 3; ++i) {
    trees.push_back(gen::random_tree(20, /*seed=*/500 + i));
    keys.push_back(NetKey::of(trees[i], opt));
    cache.insert(keys[i], core::build_report(trees[i], opt));
  }
  // Third insert displaced the oldest (tree 0); the two newest remain.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(keys[0], trees[0]).has_value());
  EXPECT_TRUE(cache.lookup(keys[1], trees[1]).has_value());
  EXPECT_TRUE(cache.lookup(keys[2], trees[2]).has_value());
}

TEST(NetCache, LruLookupRefreshesRecency) {
  NetCache cache(/*shards=*/1, /*max_entries=*/2);
  const core::ReportOptions opt;
  std::vector<RCTree> trees;
  std::vector<NetKey> keys;
  for (std::size_t i = 0; i < 2; ++i) {
    trees.push_back(gen::random_tree(20, /*seed=*/600 + i));
    keys.push_back(NetKey::of(trees[i], opt));
    cache.insert(keys[i], core::build_report(trees[i], opt));
  }
  // Touch tree 0 so tree 1 becomes the LRU victim of the next insert.
  EXPECT_TRUE(cache.lookup(keys[0], trees[0]).has_value());
  const RCTree third = gen::random_tree(20, /*seed=*/700);
  cache.insert(NetKey::of(third, opt), core::build_report(third, opt));
  EXPECT_TRUE(cache.lookup(keys[0], trees[0]).has_value());
  EXPECT_FALSE(cache.lookup(keys[1], trees[1]).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(NetCache, UnboundedDefaultNeverEvicts) {
  NetCache cache(/*shards=*/1);  // max_entries defaults to 0 = unbounded
  const core::ReportOptions opt;
  for (std::size_t i = 0; i < 32; ++i) {
    const RCTree t = gen::random_tree(15, /*seed=*/800 + i);
    cache.insert(NetKey::of(t, opt), core::build_report(t, opt));
  }
  EXPECT_EQ(cache.size(), 32u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(NetCache, RebindReportNamesRewritesOnlyNames) {
  const RCTree a = gen::random_tree(15, 21);
  const RCTree b = renamed(a, "other_");
  core::ReportOptions opt;
  opt.with_exact = false;
  auto rows = core::build_report(a, opt);
  const auto original = rows;
  rebind_report_names(rows, b);
  ASSERT_EQ(rows.size(), original.size());
  for (NodeId i = 0; i < b.size(); ++i) {
    EXPECT_EQ(rows[i].name, b.name(i));
    EXPECT_EQ(rows[i].elmore, original[i].elmore);
    EXPECT_EQ(rows[i].prh_tmax, original[i].prh_tmax);
  }
}

// ---------------------------------------------------------------------------
// Batch analyzer
// ---------------------------------------------------------------------------

TEST(Batch, MultiThreadResultBitIdenticalToSingleThread) {
  const std::vector<SpefNet> nets = random_nets(24, 30);
  for (const bool use_cache : {false, true}) {
    BatchOptions one;
    one.jobs = 1;
    one.use_cache = use_cache;
    BatchOptions four = one;
    four.jobs = 4;
    const BatchResult r1 = analyze_nets(nets, one);
    const BatchResult r4 = analyze_nets(nets, four);
    EXPECT_EQ(r1.stats.threads, 1u);
    EXPECT_EQ(r4.stats.threads, 4u);
    ASSERT_EQ(r1.nets.size(), nets.size());
    ASSERT_EQ(r4.nets.size(), nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      EXPECT_EQ(r1.nets[i].name, nets[i].name);
      EXPECT_EQ(r4.nets[i].name, nets[i].name);
      EXPECT_TRUE(r4.nets[i].ok());
      expect_rows_identical(r1.nets[i].rows, r4.nets[i].rows);
    }
    // The deterministic renderers must agree byte for byte.
    const BatchResult* rs[] = {&r1, &r4};
    EXPECT_EQ(format_batch(*rs[0]), format_batch(*rs[1]));
    EXPECT_EQ(format_batch_json(*rs[0]), format_batch_json(*rs[1]));
  }
}

TEST(Batch, CacheHitsOnDuplicatedNets) {
  // One physical net stamped out ten times under different names — the
  // clock-mesh / repeated-macro pattern the cache exists for.
  const RCTree base = gen::random_tree(40, 3);
  std::vector<SpefNet> nets;
  for (int i = 0; i < 10; ++i)
    nets.push_back(make_net("stamp" + std::to_string(i), renamed(base, "s" + std::to_string(i) + "_")));
  nets.push_back(make_net("unique", renamed(gen::random_tree(40, 4), "u_")));

  BatchOptions opt;
  opt.jobs = 1;  // serial: hit/miss accounting is exact
  const BatchResult r = analyze_nets(nets, opt);
  EXPECT_EQ(r.stats.nets, 11u);
  EXPECT_EQ(r.stats.tasks_run, 2u);    // one per distinct content
  EXPECT_EQ(r.stats.cache_hits, 9u);   // all stamps but the first-executed
  EXPECT_EQ(r.stats.failures, 0u);
  // Exactly one stamp was computed; which one depends on pool scheduling.
  std::size_t computed = 0;
  for (int i = 0; i < 10; ++i) {
    if (!r.nets[i].from_cache()) ++computed;
    expect_rows_identical(r.nets[0].rows, r.nets[i].rows, /*compare_names=*/false);
  }
  EXPECT_EQ(computed, 1u);
}

TEST(Batch, CachedRowsCarryPerNetNames) {
  const RCTree base = gen::random_tree(12, 9);
  std::vector<SpefNet> nets;
  nets.push_back(make_net("a", renamed(base, "a_")));
  nets.push_back(make_net("b", renamed(base, "b_")));
  BatchOptions opt;
  opt.jobs = 1;
  const BatchResult r = analyze_nets(nets, opt);
  // One of the two stamps was served from cache; its rows must still carry
  // its own node names, not the names of the net that populated the cache.
  ASSERT_NE(r.nets[0].from_cache(), r.nets[1].from_cache());
  const NetResult& cached = r.nets[0].from_cache() ? r.nets[0] : r.nets[1];
  const std::string prefix = r.nets[0].from_cache() ? "a_" : "b_";
  for (std::size_t i = 0; i < cached.rows.size(); ++i)
    EXPECT_EQ(cached.rows[i].name, prefix + std::to_string(i));
}

TEST(Batch, FailingNetIsIsolatedAndReported) {
  std::vector<SpefNet> nets = random_nets(3, 20);
  SpefNet broken;
  broken.name = "broken";
  broken.driver = "none";  // empty tree -> analyze_one throws -> per-net error
  nets.insert(nets.begin() + 1, broken);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    BatchOptions opt;
    opt.jobs = jobs;
    const BatchResult r = analyze_nets(nets, opt);
    ASSERT_EQ(r.nets.size(), 4u);
    EXPECT_EQ(r.stats.failures, 1u);
    EXPECT_FALSE(r.nets[1].ok());
    EXPECT_NE(r.nets[1].error.find("broken"), std::string::npos);
    EXPECT_TRUE(r.nets[1].rows.empty());
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
      EXPECT_TRUE(r.nets[i].ok()) << i;
      EXPECT_FALSE(r.nets[i].rows.empty()) << i;
    }
    // The failure is visible, not fatal, in both renderers.
    EXPECT_NE(format_batch(r).find("error:"), std::string::npos);
    EXPECT_NE(format_batch_json(r).find("\"error\":\"net 'broken'"), std::string::npos);
  }
}

TEST(Batch, AnalyzeBatchConsumesParsedSpef) {
  const char* spef =
      "*SPEF \"IEEE 1481-1998\"\n"
      "*DESIGN \"engine_test\"\n"
      "*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n"
      "*D_NET na 0.1\n*CONN\n*P d1 I\n*I p1 O\n"
      "*CAP\n1 m1 0.05\n2 p1 0.05\n"
      "*RES\n1 d1 m1 100\n2 m1 p1 100\n*END\n"
      "*D_NET nb 0.1\n*CONN\n*P d2 I\n*I p2 O\n"
      "*CAP\n1 m2 0.05\n2 p2 0.05\n"
      "*RES\n1 d2 m2 100\n2 m2 p2 100\n*END\n";
  BatchOptions opt;
  opt.jobs = 1;  // serial, so the duplicate is guaranteed to hit the cache
  const BatchResult r = analyze_batch(parse_spef(spef), opt);
  EXPECT_EQ(r.design, "engine_test");
  ASSERT_EQ(r.nets.size(), 2u);
  EXPECT_TRUE(r.nets[0].ok());
  EXPECT_TRUE(r.nets[1].ok());
  // nb is a renamed copy of na: the cache must catch it even via SPEF.
  EXPECT_EQ(r.stats.cache_hits, 1u);
  expect_rows_identical(r.nets[0].rows, r.nets[1].rows, /*compare_names=*/false);
  const std::string text = format_batch(r);
  EXPECT_NE(text.find("design 'engine_test': 2 net(s)"), std::string::npos);
  EXPECT_NE(text.find("*D_NET na"), std::string::npos);
  EXPECT_NE(text.find("load p1"), std::string::npos);
}

TEST(Batch, StatsObserveWork) {
  const std::vector<SpefNet> nets = random_nets(6, 25);
  BatchOptions opt;
  opt.jobs = 2;
  opt.use_cache = false;
  const BatchResult r = analyze_nets(nets, opt);
  EXPECT_EQ(r.stats.nets, 6u);
  EXPECT_EQ(r.stats.tasks_run, 6u);
  EXPECT_EQ(r.stats.cache_hits, 0u);
  EXPECT_GE(r.stats.total.wall_s, r.stats.analyze.wall_s);
  EXPECT_GE(r.stats.analyze.wall_s, 0.0);
  EXPECT_GE(r.stats.analyze.cpu_s, 0.0);
  const std::string s = r.stats.summary();
  EXPECT_NE(s.find("6 net(s)"), std::string::npos);
  EXPECT_NE(s.find("2 thread(s)"), std::string::npos);
}

}  // namespace
}  // namespace rct::engine
