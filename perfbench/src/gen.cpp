#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace pb {

namespace {

// Workload make-up (README.md, "Inputs").  Fixed constants: the program
// under test sees only the deck they produce.

// Node counts follow fixed schedules; the seed draws topology, values and
// order.  The work per pass then hardly depends on the seed, while the
// cubic exact path would make randomly drawn sizes swing it widely.

// batch_exact: distinct random nets, log-uniform sizes in [32, 384], plus a
// few large nets that set the thread pool's tail and two nets over the
// exact limit that take the moments-only path.
constexpr std::size_t kExactSpread = 40;
constexpr std::size_t kExactLarge = 3;
constexpr std::uint32_t kExactLargeNodes = 384;
constexpr std::size_t kExactOver = 2;
constexpr std::uint32_t kExactOverNodes = 440;
constexpr std::size_t kExactLimit = 400;

// batch_bounds: small nets, half of them renamed copies of the other half.
constexpr std::size_t kBoundsOriginals = 50000;
constexpr std::size_t kBoundsCopies = 50000;

// serve_mixed: the preloaded deck and the nets the request stream visits.
// Net names stay under s1000, so the moments-only store entries the
// stream writes are ones the store cannot read back on any seed (README.md,
// "Known faults"): the failed share is the same in every run.
constexpr std::size_t kServeDeck = 900;
constexpr std::size_t kServeStream = 80;
constexpr std::size_t kServeRepeats = 4;  ///< memory-hit reports per net and phase

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x100000001b3ULL ^ (b + 0x51ed270b27ULL));
  return r.next();
}

/// serve_mixed deck sizes cycle through [48, 128].
constexpr std::size_t kServeSizes = 81;
std::uint32_t serve_nodes(std::size_t slot) { return static_cast<std::uint32_t>(48 + slot % kServeSizes); }

std::uint64_t tag_of(std::string_view workload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : workload) h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  return h;
}

}  // namespace

bool known_workload(std::string_view w) {
  return w == "batch_exact" || w == "batch_bounds" || w == "serve_mixed";
}

Plan make_plan(std::string_view workload, std::uint64_t seed) {
  if (!known_workload(workload)) throw std::invalid_argument("unknown workload");
  Plan plan;
  plan.workload = std::string(workload);
  plan.seed = seed;
  Rng rng(mix(tag_of(workload), seed));
  if (workload == "batch_exact") {
    for (std::size_t i = 0; i < kExactSpread; ++i) {
      const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(kExactSpread);
      const auto n = static_cast<std::uint32_t>(std::lround(32.0 * std::pow(384.0 / 32.0, u)));
      plan.slots.push_back({"x" + std::to_string(i), i, n});
    }
    for (std::size_t i = 0; i < kExactLarge; ++i)
      plan.slots.push_back({"x" + std::to_string(kExactSpread + i), kExactSpread + i,
                            kExactLargeNodes});
    for (std::size_t i = 0; i < kExactOver; ++i) {
      const std::size_t id = kExactSpread + kExactLarge + i;
      plan.slots.push_back({"x" + std::to_string(id), id, kExactOverNodes});
    }
    // Large nets land anywhere in the deck, not only at its end.
    for (std::size_t i = plan.slots.size(); i > 1; --i)
      std::swap(plan.slots[i - 1], plan.slots[rng.between(0, i - 1)]);
    plan.exact_limit = kExactLimit;
  } else if (workload == "batch_bounds") {
    for (std::size_t i = 0; i < kBoundsOriginals; ++i)
      plan.slots.push_back({"a" + std::to_string(i), i, static_cast<std::uint32_t>(8 + i % 25)});
    for (std::size_t j = 0; j < kBoundsCopies; ++j) {
      const Slot& original = plan.slots[rng.between(0, kBoundsOriginals - 1)];
      plan.slots.push_back({"b" + std::to_string(j), original.content, original.nodes});
    }
    for (std::size_t i = plan.slots.size(); i > 1; --i)
      std::swap(plan.slots[i - 1], plan.slots[rng.between(0, i - 1)]);
    plan.exact_limit = 0;
  } else {
    for (std::size_t i = 0; i < kServeDeck; ++i)
      plan.slots.push_back({"s" + std::to_string(i), i, serve_nodes(i)});
    plan.exact_limit = 2000;
  }
  std::vector<std::uint64_t> contents;
  for (const Slot& s : plan.slots) {
    contents.push_back(s.content);
    if (s.nodes <= plan.exact_limit) ++plan.exact_eligible;
  }
  std::sort(contents.begin(), contents.end());
  plan.distinct = static_cast<std::size_t>(
      std::unique(contents.begin(), contents.end()) - contents.begin());
  return plan;
}

Net make_net(const Plan& plan, std::size_t i) {
  const Slot& slot = plan.slots.at(i);
  Rng rng(mix(tag_of(plan.workload) ^ 0xabcdefULL, mix(plan.seed, slot.content)));
  Net net;
  net.name = slot.name;
  const std::size_t n = slot.nodes;
  net.parent.resize(n);
  net.r_ohm.resize(n);
  net.c_ff.resize(n);
  std::vector<bool> has_child(n, false);
  for (std::size_t k = 0; k < n; ++k) {
    std::int32_t p = -1;
    if (k > 0) {
      // Mix chains (deep paths) with random branching.
      p = rng.unit() < 0.4 ? static_cast<std::int32_t>(k - 1)
                           : static_cast<std::int32_t>(rng.between(0, k - 1));
      has_child[static_cast<std::size_t>(p)] = true;
    }
    net.parent[k] = p;
    net.r_ohm[k] = static_cast<std::uint32_t>(rng.between(5, 300));
    net.c_ff[k] = static_cast<std::uint32_t>(rng.between(1, 30));
  }
  for (std::size_t k = 0; k < n; ++k)
    if (!has_child[k]) net.loads.push_back(static_cast<std::uint32_t>(k));
  return net;
}

void write_deck(const Plan& plan, const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "wb"), std::fclose);
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fprintf(f.get(),
               "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"%s_%llu\"\n"
               "*T_UNIT 1 NS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n",
               plan.workload.c_str(), static_cast<unsigned long long>(plan.seed));
  for (std::size_t i = 0; i < plan.slots.size(); ++i) {
    const Net net = make_net(plan, i);
    const char* nm = net.name.c_str();
    unsigned long long total = 0;
    for (const std::uint32_t c : net.c_ff) total += c;
    std::fprintf(f.get(), "\n*D_NET %s %llu\n*CONN\n*P %s:0 I\n", nm, total, nm);
    for (const std::uint32_t l : net.loads) std::fprintf(f.get(), "*I %s:%u O\n", nm, l + 1);
    std::fprintf(f.get(), "*CAP\n");
    for (std::size_t k = 0; k < net.size(); ++k)
      std::fprintf(f.get(), "%zu %s:%zu %u\n", k + 1, nm, k + 1, net.c_ff[k]);
    std::fprintf(f.get(), "*RES\n");
    for (std::size_t k = 0; k < net.size(); ++k)
      std::fprintf(f.get(), "%zu %s:%d %s:%zu %u\n", k + 1, nm, net.parent[k] + 1, nm, k + 1,
                   net.r_ohm[k]);
    std::fprintf(f.get(), "*END\n");
  }
  if (std::ferror(f.get())) throw std::runtime_error("write failed: " + path);
}

std::vector<std::vector<Request>> serve_stages(const Plan& plan, char phase) {
  Rng rng(mix(tag_of("serve_stream"), plan.seed));
  // Stream net j has a fixed size, spread over the deck's range; the seed
  // picks which deck net of that size it is, and the order.
  std::vector<std::size_t> order;
  const std::size_t per_size = (plan.slots.size() + kServeSizes - 1) / kServeSizes;
  for (std::size_t j = 0; j < kServeStream; ++j) {
    const std::size_t size_class = j * kServeSizes / kServeStream;
    std::size_t slot = 0;
    do {
      slot = size_class + kServeSizes * rng.between(0, per_size - 1);
    } while (slot >= plan.slots.size());
    order.push_back(slot);
  }
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.between(0, i - 1)]);

  // Phase a: first-time exact reports are computed and written through to
  // the store; then repeats hit memory while moments-only and bounds
  // requests are computed.  Phase b (restarted daemon, warm store): every
  // first touch is a store read, repeats hit memory.
  const bool warm = phase == 'b';
  std::vector<std::vector<Request>> stages(2);
  for (const std::size_t i : order)
    stages[0].push_back({plan.slots[i].name, "report", warm ? "store" : "computed"});
  for (const std::size_t i : order) {
    const std::string& name = plan.slots[i].name;
    for (std::size_t r = 0; r < kServeRepeats; ++r) stages[1].push_back({name, "report", "memory"});
    stages[1].push_back({name, "report_noexact", warm ? "store" : "computed"});
    stages[1].push_back({name, "bounds", warm ? "store" : "computed"});
  }
  for (std::size_t i = stages[1].size(); i > 1; --i)
    std::swap(stages[1][i - 1], stages[1][rng.between(0, i - 1)]);
  return stages;
}

std::string encode(const Request& request, std::uint64_t id) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"cmd\":\"";
  out += request.kind == "bounds" ? "bounds" : "report";
  out += "\",\"net\":\"" + request.net + "\"";
  if (request.kind == "report_noexact") out += ",\"with_exact\":false";
  out += "}";
  return out;
}

}  // namespace pb
