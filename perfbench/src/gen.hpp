#pragma once
// Seeded input generator shared by the deck writer and the output checker.
//
// Every net is a pure function of (workload, seed, position), so the
// checker regenerates the exact R/C values it compares against without
// reading the deck back through the program under test.  Values are whole
// ohms and whole femtofarads, written as integers, so the deck text and
// the checker's doubles agree exactly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// splitmix64: tiny, portable and fully specified (unlike <random>'s
/// distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) { return lo + next() % (hi - lo + 1); }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// One generated net.  Node k's name is `<name>:<k+1>`; the driver port is
/// `<name>:0`.  parent[k] == -1 hangs node k off the driver.
struct Net {
  std::string name;
  std::vector<std::int32_t> parent;
  std::vector<std::uint32_t> r_ohm;
  std::vector<std::uint32_t> c_ff;
  std::vector<std::uint32_t> loads;  ///< leaves, ascending (the *I pins)

  [[nodiscard]] std::size_t size() const { return parent.size(); }
  [[nodiscard]] std::string node_name(std::size_t k) const {
    return name + ":" + std::to_string(k + 1);
  }
};

/// Where a deck position's content comes from.
struct Slot {
  std::string name;         ///< net name in the deck
  std::uint64_t content;    ///< content id: equal ids mean identical R/C/topology
  std::uint32_t nodes = 0;  ///< node count of that content
};

/// The fixed make-up of one workload at one seed.
struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<Slot> slots;          ///< deck order
  std::size_t distinct = 0;         ///< distinct contents among slots
  std::size_t exact_limit = 0;      ///< --exact-limit the workload runs with
  std::size_t exact_eligible = 0;   ///< slots with nodes <= exact_limit
};

[[nodiscard]] bool known_workload(std::string_view workload);
[[nodiscard]] Plan make_plan(std::string_view workload, std::uint64_t seed);

/// Builds the net at deck position `i` of `plan`.
[[nodiscard]] Net make_net(const Plan& plan, std::size_t i);

/// Writes the whole deck as SPEF text (units OHM / FF).
void write_deck(const Plan& plan, const std::string& path);

// --- serve_mixed request stream ------------------------------------------

/// One request of the serve stream and the cache level that must answer it.
struct Request {
  std::string net;
  std::string kind;    ///< "report", "report_noexact", "bounds"
  std::string source;  ///< expected "source" field: computed / memory / store
};

/// The stream one daemon lifetime serves: stages run in order, separated
/// by barriers, so which cache level answers each request is fixed.
/// Phase "a" runs on an empty store, phase "b" on the store "a" left.
[[nodiscard]] std::vector<std::vector<Request>> serve_stages(const Plan& plan, char phase);

/// The protocol line for request `id`.
[[nodiscard]] std::string encode(const Request& request, std::uint64_t id);

}  // namespace pb
