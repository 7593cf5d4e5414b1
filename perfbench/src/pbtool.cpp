// pbtool — the benchmark's own tools, built without any rct library:
//
//   pbtool gen WORKLOAD SEED DIR             write DIR/deck.spef, print the make-up
//   pbtool check-batch WORKLOAD SEED JSON N  check `rct batch --json` output;
//                                            N nets get the transient check
//   pbtool selftest-batch WORKLOAD SEED JSON mutate that output; expect rejection
//   pbtool serve-phase SEED SOCKET PHASE CONNS OUT N
//                                            drive one serve phase (a|b), write
//                                            the answers to OUT, then check them
//   pbtool selftest-serve SEED RESPONSES     mutate phase-a answers; expect rejection
//
// Each prints one JSON object on stdout and exits 0 when its checks pass.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check.hpp"
#include "gen.hpp"
#include "load.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::uint64_t seed_of(const char* text) { return std::strtoull(text, nullptr, 10); }

std::string quoted_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += i ? ",\"" : "\"";
    for (const char ch : items[i]) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      out.push_back(ch);
    }
    out += "\"";
  }
  return out + "]";
}

int cmd_gen(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  const pb::Plan plan = pb::make_plan(workload, seed);
  pb::write_deck(plan, dir + "/deck.spef");
  std::size_t nodes = 0;
  for (const pb::Slot& s : plan.slots) nodes += s.nodes;
  std::printf("{\"nets\":%zu,\"distinct\":%zu,\"nodes\":%zu,\"exact_limit\":%zu,"
              "\"exact_eligible\":%zu}\n",
              plan.slots.size(), plan.distinct, nodes, plan.exact_limit, plan.exact_eligible);
  return 0;
}

int cmd_serve_phase(std::uint64_t seed, const std::string& socket, char phase,
                    std::size_t connections, const std::string& out_path,
                    std::size_t transient_nets) {
  const pb::Plan plan = pb::make_plan("serve_mixed", seed);
  std::vector<std::vector<std::string>> stages;
  std::vector<std::string> kinds;
  std::uint64_t id = 0;
  for (const auto& stage : pb::serve_stages(plan, phase)) {
    stages.emplace_back();
    for (const pb::Request& r : stage) {
      stages.back().push_back(pb::encode(r, id++));
      kinds.push_back(r.kind == "report" ? r.source : r.kind);
    }
  }
  const pb::LoadResult load = pb::run_load(socket, stages, connections);
  if (!load.error.empty()) {
    std::fprintf(stderr, "pbtool: %s\n", load.error.c_str());
    return 1;
  }
  {
    std::ofstream out(out_path, std::ios::binary);
    for (const std::string& line : load.responses) out << line << '\n';
    if (!out) throw std::runtime_error("cannot write " + out_path);
  }
  const pb::CheckResult check =
      pb::check_serve(plan, phase, load.responses, 0, transient_nets);
  std::string lat = "[";
  for (std::size_t i = 0; i < load.latency_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", load.latency_s[i]);
    lat += buf;
  }
  std::printf("{\"requests\":%zu,\"wall_s\":%.9g,\"latency_s\":%s],\"kinds\":%s,\"check\":%s}\n",
              load.responses.size(), load.wall_s, lat.c_str(), quoted_list(kinds).c_str(),
              check.summary_json().c_str());
  return check.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> a(argv + 1, argv + argc);
  try {
    if (a.size() == 4 && a[0] == "gen") return cmd_gen(a[1], seed_of(argv[3]), a[3]);
    if (a.size() == 5 && a[0] == "check-batch") {
      const pb::Plan plan = pb::make_plan(a[1], seed_of(argv[3]));
      const pb::CheckResult r =
          pb::check_batch(plan, read_file(a[3]), 0, std::strtoul(argv[5], nullptr, 10));
      std::printf("%s\n", r.summary_json().c_str());
      return r.ok() ? 0 : 1;
    }
    if (a.size() == 4 && a[0] == "selftest-batch") {
      const pb::Plan plan = pb::make_plan(a[1], seed_of(argv[3]));
      bool ok = false;
      const auto log = pb::selftest_batch(plan, read_file(a[3]), ok);
      std::printf("{\"ok\":%s,\"cases\":%s}\n", ok ? "true" : "false", quoted_list(log).c_str());
      return ok ? 0 : 1;
    }
    if (a.size() == 7 && a[0] == "serve-phase" && (a[3] == "a" || a[3] == "b"))
      return cmd_serve_phase(seed_of(argv[2]), a[2], a[3][0], std::strtoul(argv[5], nullptr, 10),
                             a[5], std::strtoul(argv[7], nullptr, 10));
    if (a.size() == 3 && a[0] == "selftest-serve") {
      const pb::Plan plan = pb::make_plan("serve_mixed", seed_of(argv[2]));
      bool ok = false;
      const auto log = pb::selftest_serve(plan, read_lines(a[2]), ok);
      std::printf("{\"ok\":%s,\"cases\":%s}\n", ok ? "true" : "false", quoted_list(log).c_str());
      return ok ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbtool: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "pbtool: bad arguments (see the comment at the top of pbtool.cpp)\n");
  return 2;
}
