#pragma once
// Independent output checks.  Every expected value comes from the generated
// R/C values (gen.hpp, reference.hpp), never from the program's own
// moments or from a saved copy of its output.
//
//   * Elmore delay and sigma at every printed row within kRelTol, rows
//     matched by node name (a cache that hands back a donor net's names
//     fails);
//   * lower bound == max(elmore - sigma, 0), and
//     max(mu - sigma, 0) <= exact_delay <= mu on every row with an exact
//     value (Theorem 1, Corollary 1);
//   * exact values present exactly where the exact path must run;
//   * on a seeded sample of exact-path nets, the benchmark's own implicit
//     integration of the step response crosses 50% at the reported exact
//     delay within kTransientTol.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "gen.hpp"
#include "json.hpp"

namespace pb {

inline constexpr double kRelTol = 1e-9;
inline constexpr double kTransientTol = 1e-5;
inline constexpr std::size_t kTransientSteps = 20000;

struct CheckResult {
  std::size_t nets = 0;        ///< nets (batch) or responses (serve) checked
  /// Serve answers from another cache level than the stream implies (a
  /// store read that recomputed, say): failed operations, rows still checked.
  std::size_t failed = 0;
  std::size_t rows = 0;
  std::size_t exact_rows = 0;
  std::size_t transient_rows = 0;
  double transient_max_rel = 0.0;  ///< worst |exact - transient| / transient
  std::vector<std::string> errors;  ///< first few problems found

  [[nodiscard]] bool ok() const { return errors.empty(); }
  void fail(std::string message);
  [[nodiscard]] std::string summary_json() const;
};

/// Checks `rct batch --json` output against the first `expected_nets` deck
/// positions of `plan` (all of them when 0).  `transient_nets` exact-path
/// nets, chosen by the plan's seed, also get the transient check.
[[nodiscard]] CheckResult check_batch(const Plan& plan, std::string_view json_text,
                                      std::size_t expected_nets, std::size_t transient_nets);

/// Same checks over a parsed document (the self-test feeds mutated ones).
[[nodiscard]] CheckResult check_batch_doc(const Plan& plan, const json::Value& doc,
                                          std::size_t expected_nets,
                                          std::size_t transient_nets);

/// Checks the responses of one serve phase, one line per request in stream
/// order; the first `expected` requests of the phase when nonzero.
[[nodiscard]] CheckResult check_serve(const Plan& plan, char phase,
                                      const std::vector<std::string>& lines,
                                      std::size_t expected, std::size_t transient_nets);

/// Mutates known-good output in the four known ways (Elmore off by 1e-6
/// relative, two row names swapped, one exact delay above Elmore, one net
/// or response dropped) and confirms the checker rejects each.  The
/// unmutated sample must pass.  Returns one line per case.
[[nodiscard]] std::vector<std::string> selftest_batch(const Plan& plan, std::string_view json_text,
                                                      bool& all_ok);
[[nodiscard]] std::vector<std::string> selftest_serve(const Plan& plan,
                                                      const std::vector<std::string>& lines,
                                                      bool& all_ok);

}  // namespace pb
