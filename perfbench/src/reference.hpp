#pragma once
// Reference values computed from a generated net's R/C values alone, with
// code that shares nothing with the program under test.

#include <vector>

#include "gen.hpp"

namespace pb {

/// Elmore delay (first moment of the impulse response) and sigma (square
/// root of its second central moment) of one node, seconds.
struct NodeMoments {
  double elmore = 0.0;
  double sigma = 0.0;
};

/// Per-node moments by two O(N) sweeps over the tree:
///   T_D(i)  = sum_k R_ik C_k
///   M_2(i)  = 2 sum_k R_ik C_k T_D(k),   sigma^2 = M_2 - T_D^2
/// where R_ik is the resistance shared by the driver-to-i and driver-to-k
/// paths.
[[nodiscard]] std::vector<NodeMoments> node_moments(const Net& net);

/// 50% crossing times of the unit-step response at every node, by implicit
/// (backward Euler) integration of C v' = -G v + G_s u(t) on a graded time
/// grid and on the same grid with every step doubled, combined by
/// Richardson extrapolation.  Each step is one O(N) leaf-to-root
/// elimination of (C/h + G).  `steps` is the count of the finer run over
/// [0, 1.05 * max Elmore]; the 50% point of every node lies inside that
/// window because the Elmore delay bounds it (Corollary 1).
[[nodiscard]] std::vector<double> transient_crossings(const Net& net, std::size_t steps);

}  // namespace pb
