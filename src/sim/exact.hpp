#pragma once
// Exact (to machine precision) analysis of an RC tree by eigendecomposition
// of the pencil G x = lambda C x of its MNA system C v' = -G v + b u(t).
// The eigenvalues are the circuit pole magnitudes and the step response at
// node i takes the closed form
//
//     s_i(t) = 1 - sum_j a_ij exp(-lambda_j t),   sum_j a_ij = 1.
//
// The pencil is never formed densely.  Because G is tree-structured, the
// leaf-to-root LDL^T of G - lambda C is O(N) with no fill: counting its
// negative pivots (Sylvester inertia) bisects every eigenvalue, and one O(N)
// tree solve per inverse-iteration step gives each eigenvector, so the
// whole decomposition is O(N^2) time and one N x N coefficient array.
//
// Impulse responses, saturated-ramp responses and responses to arbitrary
// monotone sources (by quadrature against the closed-form step) all follow,
// as do exact threshold-crossing delays: step crossings by safeguarded
// Halley iteration inside the bracket the paper's bounds guarantee
// (THEORY.md).  This engine regenerates every "actual delay" number in the
// paper's evaluation.
//
// Nodes with zero capacitance are supported by a relative-1e-9 capacitance
// floor (documented substitution: the perturbation is far below the
// reproduction tolerances used anywhere in this repo).

#include <memory>
#include <optional>
#include <vector>

#include "rctree/rctree.hpp"
#include "robust/deadline.hpp"
#include "sim/sources.hpp"
#include "sim/waveform.hpp"

namespace rct::sim {

/// Eigendecomposition-based exact solver for one RC tree.
class ExactAnalysis {
 public:
  /// Decomposes the tree (O(N^2) time, N^2 doubles of coefficients).  An
  /// optional cooperative deadline is checked every 16 eigenvalues and every
  /// 16 eigenvectors; expiry or cancellation throws robust::Error naming
  /// the checkpoint ("sim.exact.eigenvalues" / "sim.exact.eigenvectors").
  explicit ExactAnalysis(const RCTree& tree, const robust::Deadline* deadline = nullptr);

  [[nodiscard]] std::size_t size() const { return lambda_.size(); }

  /// Circuit pole magnitudes lambda_j (all positive), ascending.
  [[nodiscard]] const std::vector<double>& poles() const { return lambda_; }

  /// Step-response expansion coefficients a_ij at node i (sum to 1).
  [[nodiscard]] std::vector<double> step_coefficients(NodeId node) const;

  /// Slowest time constant 1/lambda_min.
  [[nodiscard]] double dominant_time_constant() const { return 1.0 / lambda_.front(); }

  // --- closed-form responses -------------------------------------------

  /// Unit-step response at `node`, time t.
  [[nodiscard]] double step_response(NodeId node, double t) const;

  /// Unit-impulse response h(t) at `node`.
  [[nodiscard]] double impulse_response(NodeId node, double t) const;

  /// Running integral of the step response, int_0^t s(u) du.
  [[nodiscard]] double step_response_integral(NodeId node, double t) const;

  /// Response to a saturated ramp with rise time tr (closed form).
  [[nodiscard]] double ramp_response(NodeId node, double t, double rise_time) const;

  /// Response to an arbitrary monotone source: quadrature of
  /// v'(tau) s(t - tau) over the source transition (steps and saturated
  /// ramps dispatch to their closed forms).
  [[nodiscard]] double response(NodeId node, const Source& input, double t) const;

  // --- delay / slew measurements ---------------------------------------

  /// Exact time at which the step response crosses `fraction` of its final
  /// value (fraction in (0,1)); the 50% point is the paper's "actual delay".
  /// Searched by safeguarded Halley iteration inside [max(mu - sigma, 0), mu]
  /// for the 50% point and the Cantelli bracket otherwise (mu, sigma from
  /// the row's own coefficients), with the expanding search from 0 as the
  /// fallback.
  [[nodiscard]] double step_delay(NodeId node, double fraction = 0.5) const;

  /// 50%-to-50% delay for an arbitrary source: output crossing minus input
  /// crossing (equals step_delay for a step input).
  [[nodiscard]] double delay_50_50(NodeId node, const Source& input) const;

  /// Threshold crossing of the response to `input` at `fraction`.
  [[nodiscard]] double response_crossing(NodeId node, const Source& input,
                                         double fraction) const;

  /// Exact 10-90% rise time of the step response.
  [[nodiscard]] double step_rise_time_10_90(NodeId node) const;

  // --- sampled waveforms -------------------------------------------------

  [[nodiscard]] Waveform step_waveform(NodeId node, const std::vector<double>& grid) const;
  [[nodiscard]] Waveform impulse_waveform(NodeId node, const std::vector<double>& grid) const;
  [[nodiscard]] Waveform response_waveform(NodeId node, const Source& input,
                                           const std::vector<double>& grid) const;

  /// A grid that comfortably covers the settling of the slowest mode plus
  /// the source transition: [0, pad * (tau_max + settle)] with `samples`
  /// points.
  [[nodiscard]] std::vector<double> suggested_grid(std::size_t samples = 2000,
                                                   double source_settle = 0.0,
                                                   double pad = 12.0) const;

  // --- moment cross-checks ----------------------------------------------

  /// q-th distribution moment  int t^q h(t) dt  in closed form:
  /// sum_j a_ij q! / lambda_j^q.  (q = 1 is the Elmore delay.)
  [[nodiscard]] double distribution_moment(NodeId node, int q) const;

 private:
  std::vector<double> lambda_;         // poles, ascending
  std::vector<double> inv_lambda_;     // 1 / lambda_j, for the crossing brackets
  std::vector<double> coeff_;          // a_ij, row-major [node * n + mode]
  [[nodiscard]] const double* row(NodeId node) const { return coeff_.data() + node * size(); }
  /// Bracket-expanding Brent search from 0 (the crossing search's fallback).
  [[nodiscard]] double expanding_crossing(NodeId node, double fraction) const;
};

}  // namespace rct::sim
