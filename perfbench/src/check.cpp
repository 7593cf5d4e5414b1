#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "reference.hpp"

namespace pb {

namespace {

constexpr std::size_t kMaxErrors = 20;

using json::Value;

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool close(double got, double want, double scale) {
  return std::abs(got - want) <= kRelTol * std::max(std::abs(scale), 1e-300);
}

/// Reads a numeric member; nullopt-like NaN when absent or not a number.
double number_of(const Value& obj, const char* key) {
  const Value* v = obj.get(key);
  return v != nullptr && v->type == Value::Type::kNumber ? v->number : std::nan("");
}

/// Field names of one row format.
struct RowFormat {
  const char* elmore;
  const char* sigma;  ///< nullptr: the format carries no sigma
  const char* lower;
  const char* exact;
};

constexpr RowFormat kBatchRow{"elmore_s", "sigma_s", "lower_bound_s", "exact_delay_s"};
constexpr RowFormat kServeRow{"elmore", "sigma", "lower_bound", "exact_delay"};
constexpr RowFormat kBoundsRow{"elmore", nullptr, "lower_bound", "exact_delay"};

/// Expected content of one net's rows.
struct Expect {
  const Net* net;
  std::vector<NodeMoments> moments;
  std::vector<double> transient;  ///< empty unless sampled
  bool exact = false;             ///< exact values must be present
};

/// Checks a row array against the node set `want` (node indices).
void check_rows(const Value& rows, const std::vector<std::uint32_t>& want, const Expect& e,
                const RowFormat& format, const std::string& where, CheckResult& out) {
  if (rows.type != Value::Type::kArray) {
    out.fail(where + ": rows missing");
    return;
  }
  if (rows.array.size() != want.size()) {
    out.fail(where + ": " + std::to_string(rows.array.size()) + " rows, expected " +
             std::to_string(want.size()));
    return;
  }
  std::unordered_map<std::string, std::uint32_t> by_name;
  for (const std::uint32_t k : want) by_name.emplace(e.net->node_name(k), k);
  for (const Value& row : rows.array) {
    const Value* name = row.get("name");
    const auto it = name != nullptr ? by_name.find(name->string) : by_name.end();
    if (it == by_name.end()) {
      out.fail(where + ": unexpected or repeated row name '" +
               (name != nullptr ? name->string : std::string("?")) + "'");
      continue;
    }
    const std::uint32_t k = it->second;
    by_name.erase(it);
    const std::string at = where + " row " + e.net->node_name(k);
    ++out.rows;
    const NodeMoments& m = e.moments[k];
    const double elmore = number_of(row, format.elmore);
    if (!close(elmore, m.elmore, m.elmore))
      out.fail(at + ": elmore " + fmt(elmore) + " expected " + fmt(m.elmore));
    if (format.sigma != nullptr) {
      const double sigma = number_of(row, format.sigma);
      if (!close(sigma, m.sigma, m.sigma))
        out.fail(at + ": sigma " + fmt(sigma) + " expected " + fmt(m.sigma));
    }
    const double lower_ref = std::max(m.elmore - m.sigma, 0.0);
    const double lower = number_of(row, format.lower);
    if (!close(lower, lower_ref, m.elmore))
      out.fail(at + ": lower bound " + fmt(lower) + " expected " + fmt(lower_ref));
    if (const Value* degraded = row.get("degraded"); degraded != nullptr && degraded->boolean)
      out.fail(at + ": degraded");
    const Value* exact = row.get(format.exact);
    const bool has_exact = exact != nullptr && exact->type == Value::Type::kNumber;
    if (has_exact != e.exact) {
      out.fail(at + (e.exact ? ": exact delay missing" : ": exact delay where none may run"));
      continue;
    }
    if (!has_exact) continue;
    ++out.exact_rows;
    const double d = exact->number;
    const double slack = kRelTol * m.elmore;
    if (!(d >= lower_ref - slack && d <= m.elmore + slack))
      out.fail(at + ": exact delay " + fmt(d) + " outside [" + fmt(lower_ref) + ", " +
               fmt(m.elmore) + "]");
    if (!e.transient.empty()) {
      const double t = e.transient[k];
      const double rel = std::abs(d - t) / t;
      ++out.transient_rows;
      out.transient_max_rel = std::max(out.transient_max_rel, rel);
      if (!(rel <= kTransientTol))
        out.fail(at + ": exact delay " + fmt(d) + " but transient crosses 50% at " + fmt(t));
    }
  }
}

/// Deck positions in [0, limit) that get the transient check.
std::vector<bool> transient_sample(const Plan& plan, std::size_t limit, std::size_t count) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < limit; ++i)
    if (plan.slots[i].nodes <= plan.exact_limit) eligible.push_back(i);
  Rng rng(plan.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<bool> chosen(limit, false);
  for (std::size_t c = 0; c < count && !eligible.empty(); ++c) {
    const std::size_t pick = rng.between(0, eligible.size() - 1);
    chosen[eligible[pick]] = true;
    eligible.erase(eligible.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return chosen;
}

void check_batch_net(const Plan& plan, std::size_t i, const Value& v, bool transient,
                     CheckResult& out) {
  const Net net = make_net(plan, i);
  const std::string where = "net " + net.name;
  ++out.nets;
  const Value* name = v.get("name");
  if (name == nullptr || name->string != net.name) {
    out.fail(where + ": found net '" + (name != nullptr ? name->string : "?") + "' here");
    return;
  }
  if (number_of(v, "nodes") != static_cast<double>(net.size()))
    out.fail(where + ": node count differs");
  const Value* error = v.get("error");
  if (error == nullptr || error->type != Value::Type::kNull) {
    out.fail(where + ": failed");
    return;
  }
  for (const char* flag : {"degraded", "retried", "timed_out"})
    if (const Value* f = v.get(flag); f == nullptr || f->boolean) out.fail(where + ": " + flag);
  Expect e{&net, node_moments(net), {}, net.size() <= plan.exact_limit};
  if (transient) e.transient = transient_crossings(net, kTransientSteps);
  const Value* loads = v.get("loads");
  check_rows(loads != nullptr ? *loads : Value{}, net.loads, e, kBatchRow, where, out);
}

std::string dump(const Value& v) {
  switch (v.type) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return v.boolean ? "true" : "false";
    case Value::Type::kNumber: return fmt(v.number);
    case Value::Type::kString: return "\"" + v.string + "\"";
    case Value::Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) out += (i ? "," : "") + dump(v.array[i]);
      return out + "]";
    }
    case Value::Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, m] : v.object) {
        out += (first ? "\"" : ",\"") + k + "\":" + dump(m);
        first = false;
      }
      return out + "}";
    }
  }
  return "null";
}

/// Applies `mutate` to a row array: the first one with two rows whose
/// Elmore values differ (so a name swap is visible).  Returns false when
/// no row array qualifies.
template <class F>
bool mutate_rows(std::vector<Value*> row_arrays, const char* elmore_key, F mutate) {
  for (Value* rows : row_arrays) {
    if (rows->array.size() < 2) continue;
    for (std::size_t b = 1; b < rows->array.size(); ++b) {
      const double e0 = number_of(rows->array[0], elmore_key);
      const double eb = number_of(rows->array[b], elmore_key);
      if (std::abs(e0 - eb) > 1e-6 * std::abs(e0)) {
        mutate(rows->array[0], rows->array[b]);
        return true;
      }
    }
  }
  return false;
}

void swap_names(Value& a, Value& b) { std::swap(a.object["name"], b.object["name"]); }

void push_case(std::vector<std::string>& log, bool& all_ok, const std::string& name,
               bool want_ok, const CheckResult& r) {
  const bool pass = r.ok() == want_ok;
  all_ok = all_ok && pass;
  log.push_back(name + (want_ok ? ": accepted " : ": rejected ") +
                (pass ? "as expected" : "WRONGLY") +
                (r.errors.empty() ? std::string() : " (" + r.errors.front() + ")"));
}

}  // namespace

void CheckResult::fail(std::string message) {
  if (errors.size() < kMaxErrors) errors.push_back(std::move(message));
}

std::string CheckResult::summary_json() const {
  std::string out = "{\"ok\":" + std::string(ok() ? "true" : "false");
  out += ",\"nets\":" + std::to_string(nets) + ",\"failed\":" + std::to_string(failed);
  out += ",\"rows\":" + std::to_string(rows);
  out += ",\"exact_rows\":" + std::to_string(exact_rows);
  out += ",\"transient_rows\":" + std::to_string(transient_rows);
  out += ",\"transient_max_rel\":" + fmt(transient_max_rel) + ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::string esc;
    for (const char ch : errors[i]) {
      if (ch == '"' || ch == '\\') esc.push_back('\\');
      esc.push_back(ch);
    }
    out += (i ? ",\"" : "\"") + esc + "\"";
  }
  return out + "]}";
}

CheckResult check_batch(const Plan& plan, std::string_view json_text, std::size_t expected_nets,
                        std::size_t transient_nets) {
  CheckResult out;
  const std::size_t want = expected_nets != 0 ? expected_nets : plan.slots.size();
  const std::vector<bool> sampled = transient_sample(plan, want, transient_nets);
  try {
    // Walk the (possibly large) document one net at a time.
    json::Cursor c(json_text);
    c.expect('{');
    std::size_t seen = 0;
    do {
      const std::string key = c.key();
      if (key != "nets") {
        (void)c.value();
        continue;
      }
      c.expect('[');
      if (!c.accept(']')) {
        do {
          const Value net = c.value();
          if (seen < want) check_batch_net(plan, seen, net, sampled[seen], out);
          ++seen;
        } while (c.accept(','));
        c.expect(']');
      }
    } while (c.accept(','));
    c.expect('}');
    if (!c.at_end()) out.fail("trailing data after the document");
    if (seen != want)
      out.fail(std::to_string(seen) + " nets in output, expected " + std::to_string(want));
  } catch (const json::ParseError& e) {
    out.fail(e.what());
  }
  return out;
}

CheckResult check_batch_doc(const Plan& plan, const Value& doc, std::size_t expected_nets,
                            std::size_t transient_nets) {
  return check_batch(plan, dump(doc), expected_nets, transient_nets);
}

CheckResult check_serve(const Plan& plan, char phase, const std::vector<std::string>& lines,
                        std::size_t expected, std::size_t transient_nets) {
  CheckResult out;
  std::vector<Request> stream;
  for (const auto& stage : serve_stages(plan, phase))
    stream.insert(stream.end(), stage.begin(), stage.end());
  const std::size_t want = expected != 0 ? expected : stream.size();
  if (lines.size() != want)
    out.fail(std::to_string(lines.size()) + " responses, expected " + std::to_string(want));
  std::unordered_map<std::string, std::size_t> slot_of;
  for (std::size_t i = 0; i < plan.slots.size(); ++i) slot_of.emplace(plan.slots[i].name, i);
  // The transient sample comes from the nets the exact reports visit.
  std::vector<std::size_t> exact_slots;
  for (const Request& r : stream)
    if (r.kind == "report" && r.source != "memory") exact_slots.push_back(slot_of.at(r.net));
  std::vector<bool> sampled(plan.slots.size(), false);
  Rng rng(plan.seed * 0x9e3779b97f4a7c15ULL + 29);
  for (std::size_t c = 0; c < transient_nets && !exact_slots.empty(); ++c)
    sampled[exact_slots[rng.between(0, exact_slots.size() - 1)]] = true;
  std::vector<bool> transient_done(plan.slots.size(), false);

  for (std::size_t i = 0; i < std::min(lines.size(), want); ++i) {
    const Request& req = stream[i];
    const std::string where = "response " + std::to_string(i) + " (" + req.kind + " " + req.net + ")";
    ++out.nets;
    Value v;
    try {
      v = json::parse(lines[i]);
    } catch (const json::ParseError& e) {
      out.fail(where + ": " + e.what());
      continue;
    }
    const Value* ok = v.get("ok");
    if (ok == nullptr || !ok->boolean) {
      out.fail(where + ": not ok");
      continue;
    }
    if (number_of(v, "id") != static_cast<double>(i)) out.fail(where + ": wrong id");
    const Value* net_name = v.get("net");
    if (net_name == nullptr || net_name->string != req.net) {
      out.fail(where + ": answered for another net");
      continue;
    }
    const Value* source = v.get("source");
    if (source == nullptr || source->string != req.source) ++out.failed;
    const std::size_t slot = slot_of.at(req.net);
    const Net net = make_net(plan, slot);
    Expect e{&net, node_moments(net), {}, req.kind == "report"};
    if (e.exact && sampled[slot] && !transient_done[slot]) {
      e.transient = transient_crossings(net, kTransientSteps);
      transient_done[slot] = true;
    }
    std::vector<std::uint32_t> nodes;
    if (req.kind == "bounds") {
      nodes = net.loads;  // bounds rows are the leaves, and the loads are the leaves
    } else {
      for (std::uint32_t k = 0; k < net.size(); ++k) nodes.push_back(k);
    }
    const Value* rows = v.get("rows");
    check_rows(rows != nullptr ? *rows : Value{}, nodes, e,
               req.kind == "bounds" ? kBoundsRow : kServeRow, where, out);
  }
  return out;
}

std::vector<std::string> selftest_batch(const Plan& plan, std::string_view json_text,
                                        bool& all_ok) {
  constexpr std::size_t kSample = 24;
  std::vector<std::string> log;
  all_ok = true;
  Value doc;
  doc.type = Value::Type::kObject;
  Value& nets = doc.object["nets"];
  nets.type = Value::Type::kArray;
  try {
    json::Cursor c(json_text);
    c.expect('{');
    do {
      const std::string key = c.key();
      if (key != "nets") {
        doc.object[key] = c.value();
        continue;
      }
      c.expect('[');
      do {
        nets.array.push_back(c.value());
      } while (nets.array.size() < kSample && c.accept(','));
      break;
    } while (c.accept(','));
  } catch (const json::ParseError& e) {
    all_ok = false;
    log.push_back(std::string("sample unreadable: ") + e.what());
    return log;
  }
  const std::size_t n = nets.array.size();
  push_case(log, all_ok, "unmutated", true, check_batch_doc(plan, doc, n, 0));

  auto row_arrays = [](Value& d) {
    std::vector<Value*> out;
    for (Value& net : d.object["nets"].array) out.push_back(&net.object["loads"]);
    return out;
  };
  Value m = doc;
  bool applied = mutate_rows(row_arrays(m), "elmore_s", [](Value& a, Value&) {
    a.object["elmore_s"].number *= 1.0 + 1e-6;
  });
  push_case(log, all_ok, "elmore off by 1e-6", false, check_batch_doc(plan, m, n, 0));
  m = doc;
  applied = mutate_rows(row_arrays(m), "elmore_s", swap_names) && applied;
  push_case(log, all_ok, "two row names swapped", false, check_batch_doc(plan, m, n, 0));
  m = doc;
  applied = mutate_rows(row_arrays(m), "elmore_s", [](Value& a, Value&) {
    Value& x = a.object["exact_delay_s"];
    x.type = Value::Type::kNumber;
    x.number = a.object["elmore_s"].number * 1.001;
  }) && applied;
  push_case(log, all_ok, "exact delay above elmore", false, check_batch_doc(plan, m, n, 0));
  m = doc;
  m.object["nets"].array.pop_back();
  push_case(log, all_ok, "one net dropped", false, check_batch_doc(plan, m, n, 0));
  if (!applied) {
    all_ok = false;
    log.push_back("no net in the sample could take every mutation");
  }
  return log;
}

std::vector<std::string> selftest_serve(const Plan& plan, const std::vector<std::string>& lines,
                                        bool& all_ok) {
  constexpr std::size_t kSample = 16;
  std::vector<std::string> log;
  all_ok = true;
  const std::vector<std::string> sample(lines.begin(),
                                        lines.begin() + static_cast<std::ptrdiff_t>(
                                                            std::min(kSample, lines.size())));
  const std::size_t n = sample.size();
  push_case(log, all_ok, "unmutated", true, check_serve(plan, 'a', sample, n, 0));

  // Mutations go into the first response of the sample (a cold exact report).
  auto mutated = [&](auto mutate) {
    std::vector<std::string> out = sample;
    Value v = json::parse(out.front());
    std::vector<Value*> arrays{&v.object["rows"]};
    const bool applied = mutate_rows(arrays, "elmore", mutate);
    out.front() = dump(v);
    return applied ? out : std::vector<std::string>{};
  };
  std::vector<std::vector<std::string>> cases = {
      mutated([](Value& a, Value&) { a.object["elmore"].number *= 1.0 + 1e-6; }),
      mutated(swap_names),
      mutated([](Value& a, Value&) {
        a.object["exact_delay"].number = a.object["elmore"].number * 1.001;
      }),
  };
  const char* names[] = {"elmore off by 1e-6", "two row names swapped",
                         "exact delay above elmore"};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    if (cases[c].empty()) {
      all_ok = false;
      log.push_back(std::string(names[c]) + ": could not be applied");
      continue;
    }
    push_case(log, all_ok, names[c], false, check_serve(plan, 'a', cases[c], n, 0));
  }
  std::vector<std::string> dropped = sample;
  dropped.erase(dropped.begin() + 1);
  push_case(log, all_ok, "one response dropped", false, check_serve(plan, 'a', dropped, n, 0));
  return log;
}

}  // namespace pb
