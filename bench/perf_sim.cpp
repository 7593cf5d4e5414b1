// Perf P2: simulation engines — O(N) tree-LDL transient step vs the O(N^2)
// tree eigendecomposition setup (with the O(N^3) dense decomposition it
// replaced, kept as the test oracle, at the same sizes), the all-rows
// crossing search (bracketed Halley vs the expanding Brent search it
// replaced, on the same decomposition) and the per-query cost of the
// closed forms.

#include <benchmark/benchmark.h>

#include <cmath>

#include "linalg/root_find.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "rctree/generators.hpp"
#include "sim/exact.hpp"
#include "sim/mna.hpp"
#include "sim/transient.hpp"
#include "sim/tree_solver.hpp"

using namespace rct;

namespace {

void BM_TreeSolverFactor(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    sim::TreeSystem sys(t, 1e9);
    benchmark::DoNotOptimize(sys);
  }
  state.SetComplexityN(state.range(0));
}

void BM_TreeSolverSolve(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::TreeSystem sys(t, 1e9);
  std::vector<double> rhs(t.size(), 1.0);
  for (auto _ : state) {
    auto x = rhs;
    sys.solve_in_place(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetComplexityN(state.range(0));
}

void BM_TransientStep1000(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::StepSource step;
  sim::TransientOptions opt;
  opt.t_end = 1e-8;
  opt.steps = 1000;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate(t, step, {t.size() - 1}, opt));
  state.SetComplexityN(state.range(0));
}

void BM_ExactSetup(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    sim::ExactAnalysis e(t);
    benchmark::DoNotOptimize(e);
  }
  state.SetComplexityN(state.range(0));
}

// The dense decomposition of the same pencil: MNA assembly, C^{-1/2}
// symmetrization, Householder + QL with eigenvectors, N x N coefficients.
void BM_ExactSetupDenseOracle(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const std::size_t n = t.size();
  for (auto _ : state) {
    const sim::Mna m = sim::assemble_mna(t);
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i) s[i] = 1.0 / std::sqrt(m.capacitance[i]);
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j) a(i, j) = m.conductance(i, j) * s[i] * s[j];
    const auto eig = linalg::symmetric_eigen(a);
    std::vector<double> coeff(n * n);
    for (std::size_t j = 0; j < n; ++j) {
      double w = 0.0;
      for (std::size_t i = 0; i < n; ++i) w += eig.eigenvectors(i, j) * s[i] * m.injection[i];
      for (std::size_t i = 0; i < n; ++i)
        coeff[i * n + j] = s[i] * eig.eigenvectors(i, j) * w / eig.eigenvalues[j];
    }
    benchmark::DoNotOptimize(coeff.data());
  }
  state.SetComplexityN(state.range(0));
}

// What build_report searches per row: the 50% delay and the 10-90% rise.
void BM_ExactCrossings(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::ExactAnalysis e(t);
  for (auto _ : state)
    for (NodeId i = 0; i < t.size(); ++i) {
      benchmark::DoNotOptimize(e.step_delay(i));
      benchmark::DoNotOptimize(e.step_rise_time_10_90(i));
    }
  state.SetComplexityN(state.range(0));
}

// The same three crossings per row by the search step_delay used before its
// moment brackets: Brent after doubling a bracket from the slowest time
// constant (the fallback it keeps).
void BM_ExactCrossingsExpanding(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::ExactAnalysis e(t);
  const double tau = e.dominant_time_constant();
  linalg::RootOptions opt;
  opt.x_tol = 1e-12 * tau;
  for (auto _ : state)
    for (NodeId i = 0; i < t.size(); ++i)
      for (const double f : {0.5, 0.9, 0.1}) {
        auto residual = [&](double x) { return e.step_response(i, x) - f; };
        benchmark::DoNotOptimize(linalg::bracket_and_solve(residual, tau, 1e6 * tau, opt));
      }
  state.SetComplexityN(state.range(0));
}

void BM_ExactDelayQuery(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::ExactAnalysis e(t);
  for (auto _ : state) benchmark::DoNotOptimize(e.step_delay(t.size() - 1));
}

}  // namespace

BENCHMARK(BM_TreeSolverFactor)->RangeMultiplier(8)->Range(1 << 10, 1 << 19)->Complexity(benchmark::oN);
BENCHMARK(BM_TreeSolverSolve)->RangeMultiplier(8)->Range(1 << 10, 1 << 19)->Complexity(benchmark::oN);
BENCHMARK(BM_TransientStep1000)->RangeMultiplier(4)->Range(1 << 8, 1 << 14);
// Exact-path sizes: the batch benchmark's 32..384-node span, and 1000.
void exact_sizes(benchmark::internal::Benchmark* b) {
  for (const int n : {32, 96, 256, 384, 1000}) b->Arg(n);
}
BENCHMARK(BM_ExactSetup)
    ->Apply(exact_sizes)
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExactSetupDenseOracle)
    ->Apply(exact_sizes)
    ->Complexity(benchmark::oNCubed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExactCrossings)->Apply(exact_sizes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExactCrossingsExpanding)->Apply(exact_sizes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExactDelayQuery)->RangeMultiplier(2)->Range(32, 512);
