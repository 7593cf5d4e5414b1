#include "sim/exact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "linalg/root_find.hpp"
#include "robust/fault.hpp"

namespace rct::sim {
namespace {

// -expm1(-x) = 1 - e^{-x}, accurate for small x.
double one_minus_exp(double x) { return -std::expm1(-x); }

/// exp(-x) is exactly 0 in double precision past this exponent (the
/// smallest subnormal is exp(-745.13)).  Poles are ascending, so a response
/// sum may stop at the first such term without changing a bit.
constexpr double kExpUnderflow = 746.0;
/// ln 2^60.  With poles ascending, the terms of a row from the first with
/// lambda_j t past ln(sum_k |a_k|) + this on add up to less than 2^-60 of
/// the row's scale: a hundred times below the rounding of the sum itself.
constexpr double kNegligibleExponent = 41.6;

/// Deadline polling stride of the eigenvalue and eigenvector loops.
constexpr std::size_t kCheckpointStride = 16;

/// Relative bracket width at which bisection hands an isolated eigenvalue
/// to inverse iteration (whose Rayleigh quotient restores full precision).
constexpr double kBisectTol = 1e-8;
/// Relative width at which eigenvalues that still share a bracket are taken
/// as one repeated eigenvalue.
constexpr double kRepeatTol = 1e-14;
/// Bisection sweeps per eigenvalue before giving up on brackets that no
/// longer shrink (only reachable with non-finite element values).
constexpr std::size_t kMaxSweeps = 200;
/// Neighbouring eigenvalues closer than this (relative) form a cluster whose
/// eigenvectors are C-orthogonalized against each other.
constexpr double kClusterGap = 1e-3;
/// Inverse iteration stops when successive C-normalized iterates differ by
/// less than this, or after kMaxInverseSteps solves.
constexpr double kVectorTol = 1e-13;
constexpr int kMaxInverseSteps = 8;
/// Safeguarded Halley iterations of one crossing search.
constexpr int kMaxHalleySteps = 100;

/// Shifts whose Sturm counts share one sweep over the tree.  Their pivot
/// divisions are independent, so they are packed two to a GCC/Clang vector
/// of the native 16-byte width (SSE2, NEON): the sweep then runs at the
/// divider's throughput instead of its latency.
using Pair = double __attribute__((vector_size(16)));
using PairBits = std::uint64_t __attribute__((vector_size(16)));
constexpr std::size_t kPairs = 2;
constexpr std::size_t kLanes = 2 * kPairs;
using Lanes = std::array<Pair, kPairs>;

/// The pencil G - lambda C of an RC tree, in the leaf-to-root elimination
/// order of sim::TreeSystem: parents precede children, so eliminating nodes
/// by descending index creates no fill.
struct TreePencil {
  std::vector<NodeId> parent;
  std::vector<double> g;    ///< conductance of the edge to the parent (or the source)
  std::vector<double> cap;  ///< C_ii with the relative capacitance floor applied
  double pivmin = 0.0;      ///< how far count_below moves every pivot away from zero

  explicit TreePencil(const RCTree& tree) {
    const std::size_t n = tree.size();
    parent.resize(n);
    g.resize(n);
    cap.resize(n);
    double cmax = 0.0;
    double gmax = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      parent[i] = tree.parent(i);
      g[i] = 1.0 / tree.resistance(i);
      gmax = std::max(gmax, g[i]);
      cap[i] = tree.capacitance(i);
      cmax = std::max(cmax, cap[i]);
    }
    // Capacitance floor for zero-cap nodes (see header).
    if (cmax <= 0.0) throw std::invalid_argument("ExactAnalysis: tree has no capacitance");
    const double floor_c = 1e-9 * cmax;
    for (double& c : cap) c = std::max(c, floor_c);
    pivmin = std::numeric_limits<double>::min() * std::max(gmax * gmax, 1.0);
  }

  [[nodiscard]] std::size_t size() const { return parent.size(); }

  /// Bounds every eigenvalue strictly: lambda_min >= 1 / trace(G^-1 C)
  /// (trace = sum_i C_i R_path(i)) and Gershgorin on C^-1 G above.
  [[nodiscard]] std::pair<double, double> spectrum_bounds() const {
    std::vector<double> path(size());
    std::vector<double> gdiag(g);
    double trace = 0.0;
    for (NodeId i = 0; i < size(); ++i) {
      path[i] = 1.0 / g[i] + (parent[i] == kSource ? 0.0 : path[parent[i]]);
      trace += cap[i] * path[i];
      if (parent[i] != kSource) gdiag[parent[i]] += g[i];
    }
    double top = 0.0;
    for (NodeId i = 0; i < size(); ++i) top = std::max(top, 2.0 * gdiag[i] / cap[i]);
    return {0.5 / trace, 2.0 * top};
  }

  /// x^T G x / x^T C x.  x^T G x is the sum of g_i (x_i - x_parent)^2 over
  /// the edges (x_source = 0): squares only, so no cancellation.
  [[nodiscard]] double rayleigh_quotient(const std::vector<double>& x) const {
    double num = 0.0;
    double den = 0.0;
    for (NodeId i = 0; i < size(); ++i) {
      const double dx = x[i] - (parent[i] == kSource ? 0.0 : x[parent[i]]);
      num += g[i] * dx * dx;
      den += cap[i] * x[i] * x[i];
    }
    return num / den;
  }
};

/// Number of eigenvalues below each shift: the negative pivots of the
/// leaf-to-root LDL^T of G - x C (Sylvester's law of inertia).
///
/// The pivots are formed without cancellation.  Node i's pivot is
/// d_i = g_i + s_i, where s_i = -x C_i + sum_children y_c is the admittance
/// its subtree presents towards the ground and y_c = g_c s_c / (g_c + s_c)
/// is child c's subtree seen through its edge (a series combination).  It is
/// the textbook update d_p -= g_c^2 / d_c rearranged: computed that way,
/// d_p loses every digit a stiff edge (g_c >> s_c) shares with it.
std::array<std::size_t, kLanes> count_below(const TreePencil& p,
                                            const std::array<double, kLanes>& x,
                                            std::vector<Lanes>& s) {
  const std::size_t n = p.size();
  std::array<Pair, kPairs> minus_x;
  for (std::size_t h = 0; h < kPairs; ++h) minus_x[h] = Pair{-x[2 * h], -x[2 * h + 1]};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t h = 0; h < kPairs; ++h) s[i][h] = minus_x[h] * p.cap[i];
  // Branch-free sign handling on the raw bits: every pivot moves away from
  // zero by pivmin (so none divides by zero; any other pivot is unchanged
  // to rounding), and its sign bit is the count.
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const std::uint64_t pivmin_bits = std::bit_cast<std::uint64_t>(p.pivmin);
  const PairBits pivmin = {pivmin_bits, pivmin_bits};
  std::array<PairBits, kPairs> negative{};
  for (std::size_t i = n; i-- > 0;) {
    const Pair g = {p.g[i], p.g[i]};
    const NodeId par = p.parent[i];
    for (std::size_t h = 0; h < kPairs; ++h) {
      Pair d = g + s[i][h];
      const PairBits sign = reinterpret_cast<PairBits>(d) & kSign;
      d += reinterpret_cast<Pair>(sign | pivmin);
      negative[h] += sign >> 63;
      if (par != kSource) s[par][h] += g * s[i][h] / d;
    }
  }
  std::array<std::size_t, kLanes> below{};
  for (std::size_t l = 0; l < kLanes; ++l) below[l] = negative[l / 2][l % 2];
  return below;
}

/// All eigenvalues of G x = lambda C x, ascending, each to kBisectTol
/// relative (kRepeatTol for ones that share a bracket with a neighbour).
/// Each sweep bisects the brackets of up to kLanes unfinished eigenvalues,
/// lowest first (the spare lanes multisect when fewer brackets are
/// distinct), and every count narrows the bracket of every eigenvalue it
/// separates.
std::vector<double> bisect_eigenvalues(const TreePencil& p, const robust::Deadline* deadline) {
  const std::size_t n = p.size();
  const auto [lo0, hi0] = p.spectrum_bounds();
  std::vector<double> lo(n, lo0);
  std::vector<double> hi(n, hi0);
  std::vector<Lanes> work(n);
  const auto finished = [&](std::size_t j) {
    const double a = lo[j];
    const double b = hi[j];
    if (!(a < b)) return true;
    const bool isolated = (j == 0 || hi[j - 1] <= a) && (j + 1 == n || lo[j + 1] >= b);
    return b - a <= (isolated ? kBisectTol : kRepeatTol) * b;
  };
  std::size_t first = 0;  // lowest unfinished eigenvalue
  std::size_t next_checkpoint = 0;
  for (std::size_t sweep = 0; sweep < kMaxSweeps * n; ++sweep) {
    while (first < n && finished(first)) ++first;
    if (first == n) break;
    if (deadline && first >= next_checkpoint) {
      deadline->check("sim.exact.eigenvalues");
      next_checkpoint = first + kCheckpointStride;
    }
    std::array<std::size_t, kLanes> pick{};
    std::size_t picked = 0;
    for (std::size_t j = first; j < n && picked < kLanes; ++j) {
      const bool same_bracket =
          picked > 0 && lo[j] == lo[pick[picked - 1]] && hi[j] == hi[pick[picked - 1]];
      if (!same_bracket && !finished(j)) pick[picked++] = j;
    }
    // Log-spaced points while a bracket spans decades, evenly spaced once
    // it is narrow.
    std::array<double, kLanes> x{};
    std::size_t lane = 0;
    for (std::size_t k = 0; k < picked; ++k) {
      const std::size_t points = kLanes / picked + (k < kLanes % picked ? 1 : 0);
      const double a = lo[pick[k]];
      const double b = hi[pick[k]];
      const bool geometric = a > 0.0 && b > 4.0 * a;
      for (std::size_t q = 1; q <= points; ++q, ++lane) {
        const double u = static_cast<double>(q) / static_cast<double>(points + 1);
        x[lane] = geometric ? a * std::pow(b / a, u) : a + (b - a) * u;
      }
    }
    const auto below = count_below(p, x, work);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t k = below[l]; k-- > 0 && hi[k] > x[l];) hi[k] = x[l];
      for (std::size_t k = below[l]; k < n && lo[k] < x[l]; ++k) lo[k] = x[l];
    }
  }
  std::vector<double> mid(n);
  for (std::size_t j = 0; j < n; ++j) mid[j] = 0.5 * (lo[j] + hi[j]);
  return mid;
}

/// A fixed, symmetry-free start vector for eigenpair j (splitmix64 of the
/// indices, mapped to [-1, 1]): identical branches get different entries,
/// so no repeated eigenvalue's eigenspace is missed.  No state is kept.
double start_entry(std::size_t j, std::size_t i) {
  std::uint64_t z = (static_cast<std::uint64_t>(j) << 32) + i + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
}

/// Inverse iteration for one eigenvector at a fixed shift sigma: LDL^T of
/// G - sigma C along the tree (pivots formed as in count_below), then one
/// O(N) tree solve per step, (G - sigma C) y = C x.
class InverseIteration {
 public:
  explicit InverseIteration(std::size_t n) : inv_d_(n), l_(n), x_(n), y_(n) {}

  /// The C-normalized eigenvector nearest sigma, started from
  /// start_entry(j, .) and kept C-orthogonal to `cluster` (C-orthonormal
  /// vectors of the eigenvalues just below, which inverse iteration alone
  /// cannot tell apart from this one).
  const std::vector<double>& run(const TreePencil& p, double sigma, std::size_t j,
                                 const std::vector<std::vector<double>>& cluster) {
    factor(p, sigma);
    const std::size_t n = p.size();
    for (std::size_t i = 0; i < n; ++i) {
      x_[i] = start_entry(j, i);
      y_[i] = p.cap[i] * x_[i];
    }
    for (int step = 0; step < kMaxInverseSteps; ++step) {
      auto [norm, dot] = solve(p);
      if (!cluster.empty()) {
        for (const auto& v : cluster) {
          double proj = 0.0;
          for (std::size_t i = 0; i < n; ++i) proj += p.cap[i] * v[i] * y_[i];
          for (std::size_t i = 0; i < n; ++i) y_[i] -= proj * v[i];
        }
        norm = 0.0;
        dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          norm += p.cap[i] * y_[i] * y_[i];
          dot += p.cap[i] * x_[i] * y_[i];
        }
      }
      // Normalize, measure the change against the previous iterate (up to
      // sign) and form the next right-hand side in one pass.
      const double scale = 1.0 / std::sqrt(norm);
      const double sign = dot < 0.0 ? -1.0 : 1.0;
      double change = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = y_[i] * scale;
        const double diff = v - sign * x_[i];
        change += p.cap[i] * diff * diff;
        x_[i] = v;
        y_[i] = p.cap[i] * v;
      }
      // The start vector is not normalized: the first change means nothing.
      if (step > 0 && change <= kVectorTol * kVectorTol) break;
    }
    return x_;
  }

 private:
  void factor(const TreePencil& p, double sigma) {
    const std::size_t n = p.size();
    // s_i as in count_below; inv_d_ holds it until node i is eliminated.
    std::vector<double>& s = inv_d_;
    for (std::size_t i = 0; i < n; ++i) s[i] = -sigma * p.cap[i];
    for (std::size_t i = n; i-- > 0;) {
      double d = p.g[i] + s[i];
      // A pivot that vanishes to rounding is nudged by a backward-error-
      // sized amount; inverse iteration only needs the solve to be finite.
      const double tiny = std::numeric_limits<double>::epsilon() * (p.g[i] + std::abs(s[i]));
      if (std::abs(d) < tiny) d = std::copysign(tiny, d);
      if (p.parent[i] != kSource) s[p.parent[i]] += p.g[i] * s[i] / d;
      inv_d_[i] = 1.0 / d;
      l_[i] = p.g[i] * inv_d_[i];
    }
  }

  /// y_ <- (G - sigma C)^-1 y_ (see TreeSystem::solve_in_place); returns
  /// y^T C y and x^T C y, accumulated as the root-to-leaf pass finishes
  /// each entry.
  std::pair<double, double> solve(const TreePencil& p) {
    const std::size_t n = p.size();
    for (std::size_t i = n; i-- > 0;) {
      y_[i] *= inv_d_[i];
      if (p.parent[i] != kSource) y_[p.parent[i]] += p.g[i] * y_[i];
    }
    double norm = 0.0;
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (p.parent[i] != kSource) y_[i] += l_[i] * y_[p.parent[i]];
      norm += p.cap[i] * y_[i] * y_[i];
      dot += p.cap[i] * x_[i] * y_[i];
    }
    return {norm, dot};
  }

  std::vector<double> inv_d_;  ///< 1 / pivot
  std::vector<double> l_;      ///< g_i / pivot_i, the child-to-parent multiplier
  std::vector<double> x_;      ///< current iterate, C-normalized
  std::vector<double> y_;      ///< right-hand side, then solution
};

/// F(t) = s(t) - fraction with its first two derivatives, the impulse
/// response h(t) and h'(t), from one pass over a row's exponentials that
/// stops at the first term with lambda_j t > cutoff.
struct Residual {
  double value;
  double slope;
  double curvature;
};

Residual step_residual(const double* a, const std::vector<double>& lambda, double t,
                       double fraction, double cutoff) {
  double acc = 0.0;
  double slope = 0.0;
  double curvature = 0.0;
  for (std::size_t j = 0; j < lambda.size(); ++j) {
    const double x = lambda[j] * t;
    if (x > cutoff) break;
    const double term = a[j] * std::exp(-x);
    acc += term;
    const double d = term * lambda[j];
    slope += d;
    curvature -= d * lambda[j];
  }
  return {(1.0 - acc) - fraction, slope, curvature};
}

}  // namespace

ExactAnalysis::ExactAnalysis(const RCTree& tree, const robust::Deadline* deadline) {
  const TreePencil p(tree);
  const std::size_t n = p.size();
  const std::vector<double> estimate = bisect_eigenvalues(p, deadline);

  // b: injection from the source into the nodes that hang off it.
  // Eigenvector j (C-normalized) contributes a_ij = x_ij (x_j^T b) / lambda_j;
  // the coefficients are written mode-major here and transposed at the end.
  lambda_.resize(n);
  coeff_.assign(n * n, 0.0);
  InverseIteration inverse(n);
  std::vector<std::vector<double>> cluster;  // C-orthonormal vectors of the current cluster
  for (std::size_t j = 0; j < n; ++j) {
    if (deadline && j % kCheckpointStride == 0) deadline->check("sim.exact.eigenvectors");
    const double sigma = estimate[j];
    if (j == 0 || sigma - estimate[j - 1] > kClusterGap * sigma) cluster.clear();
    const std::vector<double>& x = inverse.run(p, sigma, j, cluster);
    const double lambda = p.rayleigh_quotient(x);
    if (!(lambda > 0.0)) throw std::runtime_error("ExactAnalysis: non-positive pole (bad tree?)");
    lambda_[j] = lambda;
    double w = 0.0;
    for (NodeId i = 0; i < n; ++i)
      if (p.parent[i] == kSource) w += x[i] * p.g[i];
    double* mode = coeff_.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) mode[i] = x[i] * w / lambda;
    if (j + 1 < n && estimate[j + 1] - sigma <= kClusterGap * estimate[j + 1])
      cluster.push_back(x);
  }

  // Rayleigh quotients of a cluster can come out of order by a few ulps;
  // restore the ascending order the crossing searches rely on.
  if (!std::is_sorted(lambda_.begin(), lambda_.end())) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t u, std::size_t v) { return lambda_[u] < lambda_[v]; });
    std::vector<double> sorted_lambda(n);
    std::vector<double> sorted_modes(n * n);
    for (std::size_t k = 0; k < n; ++k) {
      sorted_lambda[k] = lambda_[order[k]];
      std::copy_n(coeff_.data() + order[k] * n, n, sorted_modes.data() + k * n);
    }
    lambda_ = std::move(sorted_lambda);
    coeff_ = std::move(sorted_modes);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) std::swap(coeff_[i * n + j], coeff_[j * n + i]);
  inv_lambda_.resize(n);
  for (std::size_t j = 0; j < n; ++j) inv_lambda_[j] = 1.0 / lambda_[j];
}

std::vector<double> ExactAnalysis::step_coefficients(NodeId node) const {
  return {row(node), row(node) + size()};
}

double ExactAnalysis::step_response(NodeId node, double t) const {
  if (t <= 0.0) return 0.0;
  const double* a = row(node);
  double acc = 0.0;
  for (std::size_t j = 0; j < size() && lambda_[j] * t <= kExpUnderflow; ++j)
    acc += a[j] * std::exp(-lambda_[j] * t);
  return 1.0 - acc;
}

double ExactAnalysis::impulse_response(NodeId node, double t) const {
  if (t < 0.0) return 0.0;
  const double* a = row(node);
  double acc = 0.0;
  for (std::size_t j = 0; j < size() && lambda_[j] * t <= kExpUnderflow; ++j)
    acc += a[j] * lambda_[j] * std::exp(-lambda_[j] * t);
  return acc;
}

double ExactAnalysis::step_response_integral(NodeId node, double t) const {
  if (t <= 0.0) return 0.0;
  const double* a = row(node);
  double acc = t;
  for (std::size_t j = 0; j < size(); ++j)
    acc -= a[j] / lambda_[j] * one_minus_exp(lambda_[j] * t);
  return acc;
}

double ExactAnalysis::ramp_response(NodeId node, double t, double rise_time) const {
  if (!(rise_time > 0.0)) throw std::invalid_argument("ramp_response: rise_time must be > 0");
  const double upper = step_response_integral(node, t);
  const double lower = step_response_integral(node, t - rise_time);
  return (upper - lower) / rise_time;
}

double ExactAnalysis::response(NodeId node, const Source& input, double t) const {
  if (input.is_step()) return step_response(node, t);
  if (const auto* ramp = dynamic_cast<const SaturatedRampSource*>(&input))
    return ramp_response(node, t, ramp->rise_time());
  if (t <= 0.0) return 0.0;
  // v_o(t) = int_0^min(t, settle) v_i'(tau) s(t - tau) dtau  (+ tail where the
  // source has settled to 1, folded in because value() == 1 there and
  // derivative == 0).  Composite Simpson over the active span.
  const double hi = std::min(t, input.settle_time());
  if (hi <= 0.0) return step_response(node, t);  // source already settled at 0+
  const std::size_t panels = 1 << 13;
  const double h = hi / static_cast<double>(panels);
  auto f = [&](double tau) { return input.derivative(tau) * step_response(node, t - tau); };
  double acc = f(0.0) + f(hi);
  for (std::size_t k = 1; k < panels; ++k) acc += (k % 2 ? 4.0 : 2.0) * f(h * static_cast<double>(k));
  double integral = acc * h / 3.0;
  // If the source settled before t, the remaining input mass is exactly the
  // derivative integral = 1 over [0, hi]; nothing further to add — the step
  // convolution above already accounts for all of v'.
  return integral;
}

double ExactAnalysis::step_delay(NodeId node, double fraction) const {
  if (!(fraction > 0.0 && fraction < 1.0))
    throw std::invalid_argument("step_delay: fraction must be in (0,1)");
  // Mean and sigma of h(t) from the row's own expansion; sum(a) gives F(0)
  // and sum|a| the point past which the rest of a sum is negligible.
  const double* a = row(node);
  double sum = 0.0;
  double scale = 0.0;
  double mean = 0.0;
  double second = 0.0;
  for (std::size_t j = 0; j < size(); ++j) {
    const double r = a[j] * inv_lambda_[j];
    sum += a[j];
    scale += std::abs(a[j]);
    mean += r;
    second += 2.0 * r * inv_lambda_[j];
  }
  const double cutoff = std::min(kExpUnderflow, std::log(scale) + kNegligibleExponent);
  double sigma = std::sqrt(std::max(second - mean * mean, 0.0));
  sigma = robust::fault::corrupt("sim.exact.bracket", sigma);
  // The crossing lies in a bracket the moments guarantee: Theorem 1 and
  // Corollary 1 give max(mu - sigma, 0) <= t50 <= mu; Cantelli's
  // inequality gives mu - sigma sqrt((1-f)/f) <= t_f <= mu + sigma sqrt(f/(1-f)).
  double lo = 0.0;
  double hi = 0.0;
  if (fraction == 0.5) {
    lo = std::max(mean - sigma, 0.0);
    hi = mean;
  } else {
    lo = std::max(mean - sigma * std::sqrt((1.0 - fraction) / fraction), 0.0);
    hi = mean + sigma * std::sqrt(fraction / (1.0 - fraction));
  }
  const Residual at_lo = lo == 0.0 ? Residual{(1.0 - sum) - fraction, 0.0, 0.0}
                                   : step_residual(a, lambda_, lo, fraction, cutoff);
  const Residual at_hi = step_residual(a, lambda_, hi, fraction, cutoff);
  // A bracket that fails its sign check (rounding, or a corrupted sigma)
  // falls back to the expanding search from 0.
  if (!(at_lo.value <= 0.0 && at_hi.value >= 0.0)) return expanding_crossing(node, fraction);
  if (at_lo.value == 0.0) return lo;
  // Safeguarded Halley iteration (F' = h and F'' = h' share the
  // exponentials of F) from the end nearer the crossing: a step that leaves
  // the current bracket is replaced by bisection.  Halley converges
  // cubically, so a step shorter than 1e-6 t leaves an error near 1e-18 t
  // and ends the search without another evaluation.
  const bool from_lo = lo > 0.0 && -at_lo.value < at_hi.value;
  double t = from_lo ? lo : hi;
  Residual r = from_lo ? at_lo : at_hi;
  for (int step = 0; step < kMaxHalleySteps && r.value != 0.0; ++step) {
    (r.value < 0.0 ? lo : hi) = t;
    double next =
        t - 2.0 * r.value * r.slope / (2.0 * r.slope * r.slope - r.value * r.curvature);
    const bool halley = next > lo && next < hi;
    if (!halley) next = 0.5 * (lo + hi);
    const double moved = std::abs(next - t);
    t = next;
    if ((halley && moved <= 1e-6 * t) || hi - lo <= 1e-14 * t) break;
    r = step_residual(a, lambda_, t, fraction, cutoff);
  }
  return t;
}

double ExactAnalysis::expanding_crossing(NodeId node, double fraction) const {
  const double tau = dominant_time_constant();
  auto f = [&](double t) { return step_response(node, t) - fraction; };
  linalg::RootOptions opt;
  opt.x_tol = 1e-12 * tau;  // scale-aware: circuits live at ps..us scales
  const auto root = linalg::bracket_and_solve(f, tau, 1e6 * tau, opt);
  if (!root) throw std::runtime_error("step_delay: crossing not found");
  return *root;
}

double ExactAnalysis::response_crossing(NodeId node, const Source& input,
                                        double fraction) const {
  if (input.is_step()) return step_delay(node, fraction);
  if (!(fraction > 0.0 && fraction < 1.0))
    throw std::invalid_argument("response_crossing: fraction must be in (0,1)");
  const double tau = dominant_time_constant() + input.settle_time();
  auto f = [&](double t) { return response(node, input, t) - fraction; };
  linalg::RootOptions opt;
  opt.x_tol = 1e-12 * tau;
  const auto root = linalg::bracket_and_solve(f, tau, 1e6 * tau, opt);
  if (!root) throw std::runtime_error("response_crossing: crossing not found");
  return *root;
}

double ExactAnalysis::delay_50_50(NodeId node, const Source& input) const {
  return response_crossing(node, input, 0.5) - input.crossing_time(0.5);
}

double ExactAnalysis::step_rise_time_10_90(NodeId node) const {
  return step_delay(node, 0.9) - step_delay(node, 0.1);
}

Waveform ExactAnalysis::step_waveform(NodeId node, const std::vector<double>& grid) const {
  std::vector<double> v(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) v[i] = step_response(node, grid[i]);
  return {grid, std::move(v)};
}

Waveform ExactAnalysis::impulse_waveform(NodeId node, const std::vector<double>& grid) const {
  std::vector<double> v(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) v[i] = impulse_response(node, grid[i]);
  return {grid, std::move(v)};
}

Waveform ExactAnalysis::response_waveform(NodeId node, const Source& input,
                                          const std::vector<double>& grid) const {
  std::vector<double> v(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) v[i] = response(node, input, grid[i]);
  return {grid, std::move(v)};
}

std::vector<double> ExactAnalysis::suggested_grid(std::size_t samples, double source_settle,
                                                  double pad) const {
  return uniform_grid(pad * (dominant_time_constant() + source_settle), samples);
}

double ExactAnalysis::distribution_moment(NodeId node, int q) const {
  if (q < 0) throw std::invalid_argument("distribution_moment: q must be >= 0");
  const double* a = row(node);
  double fact = 1.0;
  for (int k = 2; k <= q; ++k) fact *= k;
  double acc = 0.0;
  for (std::size_t j = 0; j < size(); ++j) acc += a[j] / std::pow(lambda_[j], q);
  return fact * acc;
}

}  // namespace rct::sim
