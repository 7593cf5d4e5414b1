// The tree eigensolver of sim::ExactAnalysis against two references.
//
// The dense oracle is the same decomposition computed the textbook way:
// assemble the N x N MNA matrices, symmetrize with C^{-1/2}, Householder +
// QL with full eigenvectors, and threshold crossings by plain bisection on
// the oracle's own expansion.  Where that oracle is itself accurate (the
// testdata nets, the paper's circuits, random trees up to 600 nodes, short
// chains, trees scaled over R, C in 1e-3..1e6, trees whose eigenvalues
// repeat exactly) poles, step coefficients, 10/50/90% step delays, the
// 10-90% rise time and the first three distribution moments must agree
// within 1e-9 relative.
//
// Path tracing is the second reference: the distribution moments of every
// node by O(N) recurrences over sums of positive terms, exact to a few
// ulps whatever the element spread.  The solver must reproduce them within
// 1e-9 everywhere, including on trees the dense oracle cannot resolve
// (long chains, floored zero-cap nodes, element values spread over nine
// decades): there the Householder solve's absolute error eps * lambda_max
// swamps the slow poles (up to 1e-2 relative with a floored node, no QL
// convergence at all on the largest nine-decade trees), so it is compared
// against the dense oracle only within that oracle's own error, measured
// the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "linalg/symmetric_eigen.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/circuits.hpp"
#include "rctree/generators.hpp"
#include "rctree/netlist_parser.hpp"
#include "rctree/spef.hpp"
#include "robust/deadline.hpp"
#include "robust/fault.hpp"
#include "sim/exact.hpp"
#include "sim/mna.hpp"

#ifndef RCT_TESTDATA_DIR
#define RCT_TESTDATA_DIR "testdata"
#endif

namespace rct::sim {
namespace {

constexpr double kRel = 1e-9;

/// The dense decomposition: poles ascending and coefficients row-major.
struct DenseOracle {
  std::size_t n = 0;
  std::vector<double> lambda;
  std::vector<double> coeff;

  explicit DenseOracle(const RCTree& tree) : n(tree.size()) {
    Mna m = assemble_mna(tree);
    double cmax = 0.0;
    for (double c : m.capacitance) cmax = std::max(cmax, c);
    for (double& c : m.capacitance) c = std::max(c, 1e-9 * cmax);
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i) s[i] = 1.0 / std::sqrt(m.capacitance[i]);
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j) a(i, j) = m.conductance(i, j) * s[i] * s[j];
    const auto eig = linalg::symmetric_eigen(a);
    lambda = eig.eigenvalues;
    coeff.assign(n * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      double w = 0.0;
      for (std::size_t i = 0; i < n; ++i) w += eig.eigenvectors(i, j) * s[i] * m.injection[i];
      for (std::size_t i = 0; i < n; ++i)
        coeff[i * n + j] = s[i] * eig.eigenvectors(i, j) * w / lambda[j];
    }
  }

  [[nodiscard]] double step(NodeId i, double t) const {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += coeff[i * n + j] * std::exp(-lambda[j] * t);
    return 1.0 - acc;
  }

  [[nodiscard]] double moment(NodeId i, int q) const {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += coeff[i * n + j] / std::pow(lambda[j], q);
    return q == 1 ? acc : (q == 2 ? 2.0 * acc : 6.0 * acc);
  }

  /// Bisection to the last representable bit.
  [[nodiscard]] double crossing(NodeId i, double fraction) const {
    double lo = 0.0;
    double hi = moment(i, 1);
    while (step(i, hi) < fraction) hi *= 2.0;
    for (int k = 0; k < 2000; ++k) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      (step(i, mid) < fraction ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }
};

void expect_rel(double got, double want, double rel, const std::string& what) {
  EXPECT_LE(std::abs(got - want), rel * std::abs(want)) << what << ": got " << got << " want "
                                                        << want;
}

/// The tree with the solver's relative capacitance floor applied, for the
/// path-tracing reference (which takes capacitances as they are).
RCTree floored(const RCTree& t) {
  double cmax = 0.0;
  for (NodeId i = 0; i < t.size(); ++i) cmax = std::max(cmax, t.capacitance(i));
  RCTreeBuilder b;
  for (NodeId i = 0; i < t.size(); ++i)
    b.add_node(t.name(i), t.parent(i), t.resistance(i), std::max(t.capacitance(i), 1e-9 * cmax));
  return std::move(b).build();
}

/// Largest relative error of `moment(i, q)` against path tracing over every
/// node and q = 1..3.
template <class Moment>
double moment_error(const RCTree& tree, const Moment& moment) {
  const auto exact = moments::distribution_moments(floored(tree), 3);
  double worst = 0.0;
  for (NodeId i = 0; i < tree.size(); ++i)
    for (int q = 1; q <= 3; ++q)
      worst = std::max(worst, std::abs(moment(i, q) - exact[q][i]) / exact[q][i]);
  return worst;
}

/// Compares every quantity the exact column depends on against the dense
/// oracle within `rel`.  Coefficients are compared summed over groups of
/// (nearly) equal poles: within a repeated eigenvalue only the eigenspace is
/// defined, not the basis, so only the group sum is a property of the
/// circuit.  Their tolerance is relative to the row's scale sum_j |a_ij|.
void compare(const ExactAnalysis& e, const DenseOracle& o, const RCTree& tree, double rel) {
  const std::size_t n = tree.size();
  ASSERT_EQ(e.size(), n);
  for (std::size_t j = 0; j < n; ++j)
    expect_rel(e.poles()[j], o.lambda[j], rel, "pole " + std::to_string(j));

  std::vector<std::size_t> group_start = {0};
  for (std::size_t j = 1; j < n; ++j)
    if (o.lambda[j] - o.lambda[j - 1] > 1e-6 * o.lambda[j]) group_start.push_back(j);
  group_start.push_back(n);

  // Rows: all of a small tree, an even spread (always the last) of a big one.
  const std::size_t stride = std::max<std::size_t>(1, n / 48);
  for (NodeId i = 0; i < n; i += stride) {
    const NodeId row = i + stride >= n ? n - 1 : i;
    const std::string at = " at " + tree.name(row);
    const auto a = e.step_coefficients(row);
    double scale = 0.0;
    for (std::size_t j = 0; j < n; ++j) scale += std::abs(o.coeff[row * n + j]);
    for (std::size_t g = 0; g + 1 < group_start.size(); ++g) {
      double got = 0.0;
      double want = 0.0;
      for (std::size_t j = group_start[g]; j < group_start[g + 1]; ++j) {
        got += a[j];
        want += o.coeff[row * n + j];
      }
      EXPECT_LE(std::abs(got - want), rel * scale)
          << "coefficients of poles " << group_start[g] << ".." << group_start[g + 1] << at;
    }
    for (double f : {0.1, 0.5, 0.9})
      expect_rel(e.step_delay(row, f), o.crossing(row, f), rel,
                 "step_delay " + std::to_string(f) + at);
    expect_rel(e.step_rise_time_10_90(row), o.crossing(row, 0.9) - o.crossing(row, 0.1), rel,
               "rise time" + at);
    for (int q = 1; q <= 3; ++q)
      expect_rel(e.distribution_moment(row, q), o.moment(row, q), rel,
                 "moment " + std::to_string(q) + at);
    if (row == n - 1) break;
  }
}

/// The solver's moments against path tracing, every node, within 1e-9.
void expect_exact_moments(const ExactAnalysis& e, const RCTree& tree) {
  const double error =
      moment_error(tree, [&](NodeId i, int q) { return e.distribution_moment(i, q); });
  EXPECT_LE(error, kRel) << "distribution moments against path tracing";
}

/// A tree the dense oracle resolves: everything within 1e-9 of it.
void expect_matches_oracle(const RCTree& tree, const std::string& label) {
  SCOPED_TRACE(label);
  const ExactAnalysis e(tree);
  expect_exact_moments(e, tree);
  compare(e, DenseOracle(tree), tree, kRel);
}

/// A tree beyond the dense oracle's accuracy: path tracing within 1e-9, the
/// oracle within ten times its own measured moment error -- when its QL
/// iteration converges and that error leaves anything to compare (on the
/// widest spreads its moments are off by 100% and more).
void expect_matches_beyond_oracle(const RCTree& tree, const std::string& label) {
  SCOPED_TRACE(label);
  const ExactAnalysis e(tree);
  expect_exact_moments(e, tree);
  try {
    const DenseOracle o(tree);
    const double oracle_error =
        moment_error(tree, [&](NodeId i, int q) { return o.moment(i, q); });
    if (oracle_error < 1e-3) compare(e, o, tree, std::max(kRel, 10.0 * oracle_error));
  } catch (const std::runtime_error&) {
    // symmetric_eigen: QL failed to converge -- nothing to compare.
  }
}

std::string data(const char* file) { return std::string(RCT_TESTDATA_DIR) + "/" + file; }

TEST(ExactOracle, TestdataNets) {
  for (const char* deck : {"bus_bit.sp", "clock_spine.sp"})
    expect_matches_oracle(parse_netlist_file(data(deck)).tree, deck);
  const SpefFile spef = parse_spef_file(data("two_nets.spef"));
  ASSERT_FALSE(spef.nets.empty());
  for (const SpefNet& net : spef.nets)
    expect_matches_oracle(net.tree, "two_nets.spef " + net.name);
  // The nets that survive a lenient parse of the malformed decks.
  std::size_t survivors = 0;
  for (const auto& entry : std::filesystem::directory_iterator(data("malformed"))) {
    SpefParseOptions lenient;
    lenient.lenient = true;
    SpefFile file;
    try {
      file = parse_spef_file(entry.path().string(), lenient);
    } catch (const std::exception&) {
      continue;  // beyond recovery: nothing to analyze
    }
    for (const SpefNet& net : file.nets) {
      const std::string label = entry.path().filename().string() + " " + net.name;
      if (net.tree.total_capacitance() <= 0.0) {
        // No pole to find; both solvers refuse such a net the same way.
        EXPECT_THROW(ExactAnalysis{net.tree}, std::invalid_argument) << label;
        continue;
      }
      expect_matches_oracle(net.tree, label);
      ++survivors;
    }
  }
  EXPECT_GT(survivors, 0u);
}

TEST(ExactOracle, PaperCircuits) {
  expect_matches_oracle(circuits::fig1(), "fig1");
  expect_matches_oracle(circuits::tree25(), "tree25");
}

/// A chain of `n` sections with seeded log-uniform values.
RCTree seeded_chain(std::size_t n, std::uint64_t seed, const gen::RandomTreeOptions& o = {}) {
  gen::RandomTreeOptions line_like = o;
  line_like.bushiness = 0.0;
  return gen::random_tree(n, seed, line_like);
}

/// The same tree with every `every`-th node's capacitance set to zero, so
/// the relative capacitance floor is what the solver sees there.
RCTree with_zero_caps(const RCTree& t, std::size_t every) {
  RCTreeBuilder b;
  for (NodeId i = 0; i < t.size(); ++i)
    b.add_node(t.name(i), t.parent(i), t.resistance(i), i % every == 1 ? 0.0 : t.capacitance(i));
  return std::move(b).build();
}

/// Seeded log-uniform draw in [lo, hi].
double log_uniform(std::uint64_t seed, double lo, double hi) {
  const double u = static_cast<double>((seed * 0x9e3779b97f4a7c15ULL) >> 11) * 0x1.0p-53;
  return lo * std::pow(hi / lo, u);
}

TEST(ExactOracle, SeededCorpus) {
  std::uint64_t seed = 1;
  for (const std::size_t n : {1, 2, 3, 5, 8, 13, 32, 77, 150, 300, 600}) {
    const std::string tag = ", " + std::to_string(n) + " nodes";
    expect_matches_oracle(gen::random_tree(n, seed++), "random tree" + tag);
    // Every R and every C scaled by its own factor in 1e-3..1e6.
    const double kr = log_uniform(seed++, 1e-3, 1e6);
    const double kc = log_uniform(seed++, 1e-3, 1e6);
    expect_matches_oracle(gen::random_tree(n, seed++).scaled(kr, kc), "scaled random tree" + tag);
    if (n <= 77) {
      expect_matches_oracle(seeded_chain(n, seed++), "chain" + tag);
      expect_matches_oracle(seeded_chain(n, seed++).scaled(kr, kc), "scaled chain" + tag);
    } else {
      expect_matches_beyond_oracle(seeded_chain(n, seed++), "chain" + tag);
    }
  }
}

TEST(ExactOracle, BeyondTheDenseOracle) {
  gen::RandomTreeOptions wide;  // each R and C drawn over nine decades
  wide.r_min = 1e-3;
  wide.r_max = 1e6;
  wide.c_min = 1e-18;
  wide.c_max = 1e-9;
  std::uint64_t seed = 100;
  for (const std::size_t n : {2, 3, 5, 13, 77, 300, 600}) {
    const std::string tag = ", " + std::to_string(n) + " nodes";
    expect_matches_beyond_oracle(with_zero_caps(gen::random_tree(n, seed++), 3),
                                 "random tree with zero-cap nodes" + tag);
    expect_matches_beyond_oracle(with_zero_caps(seeded_chain(n, seed++), 4),
                                 "chain with zero-cap nodes" + tag);
    expect_matches_beyond_oracle(gen::random_tree(n, seed++, wide),
                                 "wide-spread random tree" + tag);
    expect_matches_beyond_oracle(seeded_chain(n, seed++, wide), "wide-spread chain" + tag);
  }
}

/// A driver section feeding `arms` identical chains of `length` sections.
RCTree star_of_chains(std::size_t arms, std::size_t length) {
  RCTreeBuilder b;
  const NodeId hub = b.add_node("hub", kSource, 50.0, 20e-15);
  for (std::size_t a = 0; a < arms; ++a) {
    NodeId at = hub;
    for (std::size_t k = 0; k < length; ++k)
      at = b.add_node("a" + std::to_string(a) + "_" + std::to_string(k), at,
                      100.0 * static_cast<double>(k + 1), 10e-15 / static_cast<double>(k + 1));
  }
  return std::move(b).build();
}

TEST(ExactOracle, RepeatedEigenvalues) {
  expect_matches_oracle(gen::star(2, 100.0, 50e-15, 200.0, 30e-15), "star of 2");
  expect_matches_oracle(gen::star(64, 100.0, 50e-15, 200.0, 30e-15), "star of 64");
  expect_matches_oracle(star_of_chains(5, 7), "star of 5 identical chains");
  expect_matches_oracle(star_of_chains(24, 3), "star of 24 identical chains");
  expect_matches_oracle(gen::balanced(3, 3, 100.0, 50e-15, 80.0, 20e-15), "balanced 3x3");
  expect_matches_oracle(gen::balanced(6, 2, 100.0, 50e-15, 80.0, 20e-15), "balanced 6x2");
  expect_matches_oracle(gen::htree(5, 40.0, 80e-15, 5e-15), "h-tree, 5 levels");
}

TEST(ExactOracle, RepeatedPolesCarryTheirWholeEigenspace) {
  // A star of identical arms: one pole of multiplicity arms-1 that the
  // driver never excites (its eigenvectors are antisymmetric across arms),
  // so every arm's coefficients on it must sum to zero, and the solver must
  // still return all arms-1 copies.
  const std::size_t arms = 16;
  const RCTree t = gen::star(arms, 100.0, 50e-15, 200.0, 30e-15);
  const ExactAnalysis e(t);
  const DenseOracle o(t);
  std::size_t repeated = 0;
  for (std::size_t j = 0; j < e.size(); ++j)
    if (std::abs(e.poles()[j] - o.lambda[1]) <= kRel * o.lambda[1]) ++repeated;
  EXPECT_EQ(repeated, arms - 1);
}

TEST(ExactOracle, CancelledDeadlineStopsInsideTheSolve) {
  const robust::Deadline deadline;
  deadline.cancel();
  try {
    const ExactAnalysis e(gen::random_tree(40, 3), &deadline);
    FAIL() << "a cancelled deadline must stop the eigensolve";
  } catch (const robust::Error& err) {
    EXPECT_EQ(err.code(), robust::Code::kCancelled);
    EXPECT_NE(std::string(err.what()).find("sim.exact.eigenvalues"), std::string::npos)
        << err.what();
  }
}

TEST(ExactOracle, WrongBracketFallsBackToTheExpandingSearch) {
#if RCT_FAULT_ENABLED
  // A NaN sigma makes every moment bracket fail its sign check; the search
  // must still land on the crossing through the expanding fallback.
  const RCTree t = gen::random_tree(60, 11);
  const ExactAnalysis e(t);
  const DenseOracle o(t);
  robust::fault::reset_fired();
  robust::fault::arm("sim.exact.bracket", robust::fault::Action::kNan);
  for (const NodeId i : {NodeId{0}, NodeId{29}, NodeId{59}})
    for (double f : {0.1, 0.5, 0.9})
      expect_rel(e.step_delay(i, f), o.crossing(i, f), kRel, "fallback " + std::to_string(f));
  robust::fault::disarm_all();
  EXPECT_EQ(robust::fault::fired_count("sim.exact.bracket"), 9u);
#else
  GTEST_SKIP() << "fault injection compiled out";
#endif
}

}  // namespace
}  // namespace rct::sim
