#include "circuit/spice_parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "common/units.h"

namespace vstack::circuit {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Strip comments (anything after ';' or a leading '*') and whitespace.
std::string clean_line(const std::string& raw) {
  std::string line = raw;
  const auto semi = line.find(';');
  if (semi != std::string::npos) line.erase(semi);
  // Trim.
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = line.find_last_not_of(" \t\r");
  line = line.substr(first, last - first + 1);
  if (!line.empty() && line.front() == '*') return "";
  return line;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream iss(line);
  std::string tok;
  while (iss >> tok) tokens.push_back(tok);
  return tokens;
}

/// Parse-state shared by the card handlers: source location for messages,
/// plus the already-seen element names for duplicate rejection.
struct ParseContext {
  const std::string& source_name;
  std::size_t line_no = 0;
  std::set<std::string> element_names;

  [[noreturn]] void fail(const std::string& message) const {
    VS_FAIL(source_name + ":" + std::to_string(line_no) + ": " + message);
  }

  double value(const std::string& token, const char* what) const {
    try {
      return parse_spice_value(token);
    } catch (const Error& e) {
      fail(std::string(what) + ": " + e.what());
    }
  }

  double positive(const std::string& token, const char* what) const {
    const double v = value(token, what);
    if (v <= 0.0) {
      fail(std::string(what) + " must be positive, got '" + token + "'");
    }
    return v;
  }

  void claim_name(const std::string& name) {
    if (!element_names.insert(lower(name)).second) {
      fail("duplicate element name '" + name + "'");
    }
  }
};

/// KEY=VALUE parameter, case-insensitive key.
bool parse_param(const ParseContext& ctx, const std::string& token,
                 const std::string& key, double* out) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  if (lower(token.substr(0, eq)) != key) return false;
  *out = ctx.value(token.substr(eq + 1), key.c_str());
  return true;
}

}  // namespace

double parse_spice_value(const std::string& token) {
  VS_REQUIRE(!token.empty(), "empty numeric token");
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    VS_FAIL("malformed numeric value '" + token + "'");
  }
  VS_REQUIRE(std::isfinite(value),
             "non-finite numeric value '" + token + "'");
  const std::string suffix = lower(token.substr(consumed));
  if (suffix.empty()) return value;
  // SPICE reads only the magnitude letter (or a `meg` prefix); whatever
  // follows it is a unit name: 10uF, 1megohm.
  const std::string_view tail = suffix;
  const double scale = units::spice_magnitude(
      tail.starts_with("meg") ? tail.substr(0, 3) : tail.substr(0, 1));
  if (scale == 0.0) {
    VS_FAIL("unknown value suffix '" + suffix + "' in '" + token + "'");
  }
  return value * scale;
}

ParsedCircuit parse_spice(const std::string& text,
                          const std::string& source_name) {
  ParsedCircuit out;
  ParseContext ctx{source_name};

  const auto node_of = [&out](const std::string& name) -> NodeId {
    const std::string key = lower(name);
    if (key == "0" || key == "gnd") return kGround;
    const auto it = out.node_by_name.find(key);
    if (it != out.node_by_name.end()) return it->second;
    const NodeId id = out.netlist.create_node(key);
    out.node_by_name.emplace(key, id);
    return id;
  };

  std::istringstream stream(text);
  std::string raw;
  bool ended = false;
  bool have_clock = false;
  while (std::getline(stream, raw)) {
    ++ctx.line_no;
    const std::string line = clean_line(raw);
    if (line.empty()) continue;
    if (ended) ctx.fail("content after .end");
    const auto tokens = tokenize(line);
    const std::string head = lower(tokens.front());

    if (head.front() == '.') {
      if (head == ".title") {
        const auto pos = line.find_first_of(" \t");
        out.title = (pos == std::string::npos)
                        ? ""
                        : line.substr(line.find_first_not_of(" \t", pos));
      } else if (head == ".clock") {
        if (have_clock) ctx.fail("duplicate .clock directive");
        if (tokens.size() != 2) ctx.fail(".clock needs one value");
        out.clock_period = ctx.positive(tokens[1], ".clock period");
        have_clock = true;
      } else if (head == ".tran") {
        if (out.has_tran) ctx.fail("duplicate .tran directive");
        if (tokens.size() < 3) ctx.fail(".tran needs step and stop");
        out.has_tran = true;
        out.tran.time_step = ctx.positive(tokens[1], ".tran step");
        out.tran.stop_time = ctx.positive(tokens[2], ".tran stop");
        if (out.tran.stop_time <= out.tran.time_step) {
          ctx.fail(".tran stop '" + tokens[2] +
                   "' must exceed the step '" + tokens[1] + "'");
        }
        for (std::size_t k = 3; k < tokens.size(); ++k) {
          const std::string flag = lower(tokens[k]);
          if (flag == "dc") {
            out.tran.start_from_dc = true;
          } else if (flag == "adaptive") {
            out.tran.mode = SteppingMode::Adaptive;
          } else {
            ctx.fail("unknown .tran flag '" + tokens[k] +
                     "' (expected DC or ADAPTIVE)");
          }
        }
      } else if (head == ".end") {
        ended = true;
      } else {
        ctx.fail("unknown directive '" + head + "'");
      }
      continue;
    }

    ctx.claim_name(tokens.front());
    switch (head.front()) {
      case 'r': {
        if (tokens.size() != 4) ctx.fail("R card: R<name> a b value");
        out.netlist.add_resistor(node_of(tokens[1]), node_of(tokens[2]),
                                 ctx.positive(tokens[3], "resistance"));
        break;
      }
      case 'c': {
        if (tokens.size() < 4 || tokens.size() > 5) {
          ctx.fail("C card: C<name> a b value [IC=v0]");
        }
        double ic = 0.0;
        if (tokens.size() == 5 && !parse_param(ctx, tokens[4], "ic", &ic)) {
          ctx.fail("expected IC=<v0>, got '" + tokens[4] + "'");
        }
        out.netlist.add_capacitor(node_of(tokens[1]), node_of(tokens[2]),
                                  ctx.positive(tokens[3], "capacitance"),
                                  ic);
        break;
      }
      case 'v': {
        if (tokens.size() != 4) ctx.fail("V card: V<name> n+ n- value");
        out.netlist.add_voltage_source(node_of(tokens[1]),
                                       node_of(tokens[2]),
                                       ctx.value(tokens[3], "voltage"));
        break;
      }
      case 'i': {
        if (tokens.size() != 4) {
          ctx.fail("I card: I<name> from to value");
        }
        out.netlist.add_current_source(node_of(tokens[1]),
                                       node_of(tokens[2]),
                                       ctx.value(tokens[3], "current"));
        break;
      }
      case 's': {
        if (tokens.size() != 7) {
          ctx.fail("S card: S<name> a b Ron Roff PHASE=<off> DUTY=<duty>");
        }
        const double ron = ctx.positive(tokens[3], "on resistance");
        const double roff = ctx.positive(tokens[4], "off resistance");
        if (roff < ron) {
          ctx.fail("off resistance '" + tokens[4] +
                   "' must be >= on resistance '" + tokens[3] + "'");
        }
        double phase = 0.0, duty = 0.5;
        if (!parse_param(ctx, tokens[5], "phase", &phase)) {
          ctx.fail("expected PHASE=<offset>, got '" + tokens[5] + "'");
        }
        if (!parse_param(ctx, tokens[6], "duty", &duty)) {
          ctx.fail("expected DUTY=<duty>, got '" + tokens[6] + "'");
        }
        if (phase < 0.0 || phase >= 1.0) {
          ctx.fail("PHASE offset '" + tokens[5] +
                   "' must lie in [0, 1) (fraction of the clock period)");
        }
        if (duty < 0.0 || duty > 1.0) {
          ctx.fail("DUTY '" + tokens[6] + "' must lie in [0, 1]");
        }
        out.netlist.add_switch(node_of(tokens[1]), node_of(tokens[2]), ron,
                               roff, ClockPhase{phase, duty});
        break;
      }
      default:
        ctx.fail("unknown element card '" + tokens.front() + "'");
    }
  }
  return out;
}

std::string write_spice(const ParsedCircuit& circuit) {
  std::ostringstream oss;
  if (!circuit.title.empty()) oss << ".title " << circuit.title << "\n";

  const auto& net = circuit.netlist;
  const auto name = [&net](NodeId node) -> std::string {
    return node == kGround ? "0" : net.node_name(node);
  };

  std::size_t idx = 0;
  for (const auto& v : net.voltage_sources()) {
    oss << "V" << ++idx << " " << name(v.positive) << " " << name(v.negative)
        << " " << v.voltage << "\n";
  }
  idx = 0;
  for (const auto& r : net.resistors()) {
    oss << "R" << ++idx << " " << name(r.a) << " " << name(r.b) << " "
        << r.resistance << "\n";
  }
  idx = 0;
  for (const auto& c : net.capacitors()) {
    oss << "C" << ++idx << " " << name(c.a) << " " << name(c.b) << " "
        << c.capacitance << " IC=" << c.initial_voltage << "\n";
  }
  idx = 0;
  for (const auto& s : net.switches()) {
    oss << "S" << ++idx << " " << name(s.a) << " " << name(s.b) << " "
        << s.on_resistance << " " << s.off_resistance
        << " PHASE=" << s.phase.phase_offset << " DUTY=" << s.phase.duty
        << "\n";
  }
  idx = 0;
  for (const auto& i : net.current_sources()) {
    oss << "I" << ++idx << " " << name(i.from_node) << " " << name(i.to_node)
        << " " << i.current << "\n";
  }

  oss << ".clock " << circuit.clock_period << "\n";
  if (circuit.has_tran) {
    oss << ".tran " << circuit.tran.time_step << " "
        << circuit.tran.stop_time;
    if (circuit.tran.start_from_dc) oss << " DC";
    if (circuit.tran.mode == SteppingMode::Adaptive) oss << " ADAPTIVE";
    oss << "\n";
  }
  oss << ".end\n";
  return oss.str();
}

}  // namespace vstack::circuit
