#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pb {

namespace {

constexpr double kFarad = 1e-15;  // deck capacitance unit (FF)

}  // namespace

std::vector<NodeMoments> node_moments(const Net& net) {
  const std::size_t n = net.size();
  // Parents precede children, so a reverse sweep accumulates subtree sums
  // and a forward sweep accumulates along driver-to-node paths.
  std::vector<double> csub(n);
  for (std::size_t k = 0; k < n; ++k) csub[k] = net.c_ff[k] * kFarad;
  for (std::size_t k = n; k-- > 0;)
    if (net.parent[k] >= 0) csub[static_cast<std::size_t>(net.parent[k])] += csub[k];
  std::vector<double> td(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double up = net.parent[k] >= 0 ? td[static_cast<std::size_t>(net.parent[k])] : 0.0;
    td[k] = up + static_cast<double>(net.r_ohm[k]) * csub[k];
  }
  std::vector<double> wsub(n);  // subtree sums of C_k T_D(k)
  for (std::size_t k = 0; k < n; ++k) wsub[k] = net.c_ff[k] * kFarad * td[k];
  for (std::size_t k = n; k-- > 0;)
    if (net.parent[k] >= 0) wsub[static_cast<std::size_t>(net.parent[k])] += wsub[k];
  std::vector<double> half_m2(n);
  std::vector<NodeMoments> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double up = net.parent[k] >= 0 ? half_m2[static_cast<std::size_t>(net.parent[k])] : 0.0;
    half_m2[k] = up + static_cast<double>(net.r_ohm[k]) * wsub[k];
    out[k].elmore = td[k];
    out[k].sigma = std::sqrt(std::max(2.0 * half_m2[k] - td[k] * td[k], 0.0));
  }
  return out;
}

namespace {

/// Backward-Euler run over the time points `t` (t[0] == 0); returns each
/// node's 50% crossing, linearly interpolated between points.
std::vector<double> euler_crossings(const Net& net, const std::vector<double>& t) {
  const std::size_t n = net.size();
  std::vector<double> g(n), cap(n), v(n, 0.0), diag(n), rhs(n), x(n);
  for (std::size_t k = 0; k < n; ++k) {
    g[k] = 1.0 / static_cast<double>(net.r_ohm[k]);
    cap[k] = net.c_ff[k] * kFarad;
  }
  // (C/h + G) x = C/h v + G_s: node k's row has C_k/h + g_k + sum of its
  // children's g on the diagonal, -g_child toward each child and -g_k
  // toward its parent (the driver side is the unit source, moved to rhs).
  std::vector<double> gsum(g);
  for (std::size_t k = 0; k < n; ++k)
    if (net.parent[k] >= 0) gsum[static_cast<std::size_t>(net.parent[k])] += g[k];
  std::vector<double> cross(n, std::numeric_limits<double>::quiet_NaN());
  std::size_t open = n;
  for (std::size_t s = 1; s < t.size() && open > 0; ++s) {
    const double h = t[s] - t[s - 1];
    for (std::size_t k = 0; k < n; ++k) {
      diag[k] = cap[k] / h + gsum[k];
      rhs[k] = cap[k] / h * v[k] + (net.parent[k] < 0 ? g[k] : 0.0);
    }
    // Eliminate leaves toward the root: child k folds into its parent.
    for (std::size_t k = n; k-- > 0;) {
      if (net.parent[k] < 0) continue;
      const auto p = static_cast<std::size_t>(net.parent[k]);
      const double f = g[k] / diag[k];
      diag[p] -= f * g[k];
      rhs[p] += f * rhs[k];
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double up = net.parent[k] >= 0 ? x[static_cast<std::size_t>(net.parent[k])] : 0.0;
      x[k] = (rhs[k] + g[k] * up) / diag[k];
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (std::isnan(cross[k]) && x[k] >= 0.5) {
        const double frac = (0.5 - v[k]) / (x[k] - v[k]);
        cross[k] = t[s - 1] + frac * h;
        --open;
      }
    }
    v.swap(x);
  }
  return cross;
}

}  // namespace

std::vector<double> transient_crossings(const Net& net, std::size_t steps) {
  double t_max = 0.0;
  for (const NodeMoments& m : node_moments(net)) t_max = std::max(t_max, m.elmore);
  const double t_end = 1.05 * t_max;
  // Exponentially graded points: the step is a near-constant share of the
  // elapsed time, so a node next to the driver, crossing hundreds of times
  // sooner than the far leaves, still gets hundreds of steps before it.
  constexpr double kGrade = 12.0;
  const std::size_t fine_steps = steps + steps % 2;
  std::vector<double> fine(fine_steps + 1), coarse;
  for (std::size_t i = 0; i <= fine_steps; ++i) {
    const double u = static_cast<double>(i) / static_cast<double>(fine_steps);
    fine[i] = t_end * std::expm1(kGrade * u) / std::expm1(kGrade);
  }
  for (std::size_t i = 0; i <= fine_steps; i += 2) coarse.push_back(fine[i]);
  const std::vector<double> c = euler_crossings(net, coarse);
  const std::vector<double> f = euler_crossings(net, fine);
  std::vector<double> out(net.size());
  // Backward Euler's error is first order in the step: halving every step
  // halves it, so 2 f - c cancels the leading term.
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = 2.0 * f[k] - c[k];
  return out;
}

}  // namespace pb
