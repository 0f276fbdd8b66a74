#include "pgio/reader.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <unordered_map>

#include "common/error.h"
#include "common/units.h"
#include "telemetry/telemetry.h"

namespace vstack::pgio {

namespace {

const telemetry::Counter c_lines("pgio.parse.lines");
const telemetry::Counter c_cards("pgio.parse.cards");
const telemetry::Counter c_nodes("pgio.parse.nodes");
const telemetry::Counter c_bytes("pgio.parse.bytes");

bool is_ground(std::string_view token) {
  return token == "0" || token == "gnd" || token == "GND" || token == "G" ||
         token == "Gnd";
}

/// Strip '\r', a trailing ';' comment, leading/trailing blanks; a line whose
/// first payload character is '*' is a comment.
std::string_view clean_line(std::string_view line) {
  const auto semi = line.find(';');
  if (semi != std::string_view::npos) line = line.substr(0, semi);
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  const auto last = line.find_last_not_of(" \t\r");
  line = line.substr(first, last - first + 1);
  if (line.front() == '*') return {};
  return line;
}

/// Split on blanks into at most `max` views; returns the token count, or
/// max+1 when there were more (callers turn that into a card-arity error).
std::size_t split(std::string_view line, std::string_view* out,
                  std::size_t max) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (count == max) return max + 1;
    out[count++] = line.substr(start, i - start);
  }
  return count;
}

char lower_ascii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Shared per-stream parse state: source location for diagnostics plus the
/// netlist budgets (pgio's equivalent of spice_parser's ParseContext).
struct ParseContext {
  const std::string& source_name;
  const ReadOptions& options;
  std::size_t line_no = 0;

  [[noreturn]] void fail(const std::string& message) const {
    VS_FAIL(source_name + ":" + std::to_string(line_no) + ": " + message);
  }

  double value(std::string_view token, const char* what) const {
    try {
      return parse_grid_value(token);
    } catch (const Error& e) {
      fail(std::string(what) + ": " + e.what());
    }
  }
};

}  // namespace

double parse_grid_value(std::string_view token) {
  VS_REQUIRE(!token.empty(), "empty numeric token");
  VS_REQUIRE(token.size() < 64,
             "numeric token longer than 63 characters: '" +
                 std::string(token.substr(0, 16)) + "...'");
  char buf[64];
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  VS_REQUIRE(end != buf,
             "malformed numeric value '" + std::string(token) + "'");
  VS_REQUIRE(std::isfinite(value),
             "non-finite numeric value '" + std::string(token) + "'");
  std::string suffix;
  for (const char* p = end; *p != '\0'; ++p) suffix += lower_ascii(*p);
  if (suffix.empty()) return value;
  // Only an exact magnitude suffix: benchmark decks carry no unit names.
  const double scale = units::spice_magnitude(suffix);
  if (scale == 0.0) {
    VS_FAIL("unknown value suffix '" + suffix + "' in '" +
            std::string(token) + "'");
  }
  return value * scale;
}

PgNetlist read_netlist(std::istream& in, const std::string& source_name,
                       const ReadOptions& options) {
  VS_SPAN("pgio.parse");
  PgNetlist out;
  out.source = source_name;
  ParseContext ctx{source_name, options};

  // Duplicate-element rejection via a second interning table: intern the
  // card name and require the table to have grown.
  NodeTable element_names;

  // Pad bookkeeping for duplicate/conflict rejection: node -> (volts, line).
  std::unordered_map<std::uint32_t, std::pair<double, std::uint32_t>> pad_at;

  const auto node_of = [&](std::string_view token) -> std::uint32_t {
    if (is_ground(token)) return kGroundNode;
    const std::uint32_t id = out.nodes.intern(token);
    if (out.nodes.size() > options.max_nodes) {
      ctx.fail("node budget exceeded (" + std::to_string(options.max_nodes) +
               " nodes; raise ReadOptions::max_nodes for larger inputs)");
    }
    if (out.nodes.name_bytes() > options.max_name_bytes) {
      ctx.fail("node-name budget exceeded (" +
               std::to_string(options.max_name_bytes) +
               " bytes; raise ReadOptions::max_name_bytes)");
    }
    return id;
  };

  const auto claim_name = [&](std::string_view name) {
    const std::size_t before = element_names.size();
    element_names.intern(name);
    if (element_names.size() == before) {
      ctx.fail("duplicate element name '" + std::string(name) + "'");
    }
  };

  const auto guard_elements = [&] {
    if (out.element_count() + 1 > options.max_elements) {
      ctx.fail("element budget exceeded (" +
               std::to_string(options.max_elements) +
               " cards; raise ReadOptions::max_elements)");
    }
  };

  std::string raw;
  std::string_view tok[6];
  bool ended = false;
  std::size_t lines = 0;
  std::size_t bytes = 0;
  while (std::getline(in, raw)) {
    ++ctx.line_no;
    ++lines;
    bytes += raw.size() + 1;
    if (raw.size() > options.max_line_length) {
      ctx.fail("line longer than " + std::to_string(options.max_line_length) +
               " characters");
    }
    const std::string_view line = clean_line(raw);
    if (line.empty()) continue;
    if (ended) ctx.fail("content after .end");
    const std::size_t n = split(line, tok, 6);

    const char head = lower_ascii(tok[0].front());
    if (head == '.') {
      std::string directive;
      for (const char c : tok[0]) directive += lower_ascii(c);
      if (directive == ".title") {
        const auto pos = line.find_first_of(" \t");
        out.title = (pos == std::string_view::npos)
                        ? ""
                        : std::string(line.substr(
                              line.find_first_not_of(" \t", pos)));
      } else if (directive == ".op") {
        // DC operating-point request: the only analysis we run anyway.
      } else if (directive == ".end") {
        if (n != 1) ctx.fail(".end takes no arguments");
        ended = true;
      } else if (directive == ".shorts") {
        if (n != 3) ctx.fail(".shorts needs two node names");
        const std::uint32_t a = node_of(tok[1]);
        const std::uint32_t b = node_of(tok[2]);
        if (a == b) {
          ctx.fail(".shorts connects '" + std::string(tok[1]) +
                   "' to itself");
        }
        guard_elements();
        out.shorts.push_back(
            {a, b, static_cast<std::uint32_t>(ctx.line_no), 0.0});
      } else {
        ctx.fail("unknown directive '" + std::string(tok[0]) + "'");
      }
      continue;
    }

    c_cards.add();
    switch (head) {
      case 'r': {
        if (n != 4) ctx.fail("R card: R<name> a b ohms");
        claim_name(tok[0]);
        const std::uint32_t a = node_of(tok[1]);
        const std::uint32_t b = node_of(tok[2]);
        if (a == b) {
          ctx.fail("R card '" + std::string(tok[0]) +
                   "' connects a node to itself");
        }
        const double r = ctx.value(tok[3], "resistance");
        if (r < 0.0) {
          ctx.fail("resistance must be >= 0, got '" + std::string(tok[3]) +
                   "'");
        }
        guard_elements();
        const PgElement e{a, b, static_cast<std::uint32_t>(ctx.line_no), r};
        if (r == 0.0) {
          out.shorts.push_back(e);  // via short (the IBM zero-ohm idiom)
        } else {
          out.resistors.push_back(e);
        }
        break;
      }
      case 'v': {
        if (n != 4) ctx.fail("V card: V<name> n+ n- volts");
        claim_name(tok[0]);
        const std::uint32_t a = node_of(tok[1]);
        const std::uint32_t b = node_of(tok[2]);
        if (a == b) {
          ctx.fail("V card '" + std::string(tok[0]) +
                   "' connects a node to itself");
        }
        const double v = ctx.value(tok[3], "voltage");
        guard_elements();
        if (v == 0.0) {
          // Zero-volt source: the benchmarks' via "ammeter" -- a short.
          // Between an internal node and ground it pins that node at 0 V,
          // which the grid layer models as a merge with the ground net.
          out.shorts.push_back(
              {a, b, static_cast<std::uint32_t>(ctx.line_no), 0.0});
          break;
        }
        std::uint32_t pad = a;
        double volts = v;
        if (a == kGroundNode) {
          pad = b;
          volts = -v;
        } else if (b != kGroundNode) {
          ctx.fail("pad source '" + std::string(tok[0]) +
                   "' must reference ground on one terminal (got '" +
                   std::string(tok[1]) + "' / '" + std::string(tok[2]) +
                   "')");
        }
        const auto [it, inserted] = pad_at.emplace(
            pad, std::make_pair(volts,
                                static_cast<std::uint32_t>(ctx.line_no)));
        if (!inserted) {
          const char* what = (it->second.first == volts)
                                 ? "duplicate pad definition for node '"
                                 : "conflicting pad definition for node '";
          ctx.fail(std::string(what) + std::string(tok[pad == a ? 1 : 2]) +
                   "' (first defined at line " +
                   std::to_string(it->second.second) + ")");
        }
        out.pads.push_back(
            {pad, kGroundNode, static_cast<std::uint32_t>(ctx.line_no),
             volts});
        break;
      }
      case 'i': {
        if (n != 4) ctx.fail("I card: I<name> from to amps");
        claim_name(tok[0]);
        const std::uint32_t a = node_of(tok[1]);
        const std::uint32_t b = node_of(tok[2]);
        if (a == b) {
          ctx.fail("I card '" + std::string(tok[0]) +
                   "' connects a node to itself");
        }
        const double amps = ctx.value(tok[3], "current");
        guard_elements();
        out.loads.push_back(
            {a, b, static_cast<std::uint32_t>(ctx.line_no), amps});
        break;
      }
      case 'c': {
        if (n != 4) ctx.fail("C card: C<name> a b farads");
        claim_name(tok[0]);
        const std::uint32_t a = node_of(tok[1]);
        const std::uint32_t b = node_of(tok[2]);
        if (a == b) {
          ctx.fail("C card '" + std::string(tok[0]) +
                   "' connects a node to itself");
        }
        const double f = ctx.value(tok[3], "capacitance");
        if (f <= 0.0) {
          ctx.fail("capacitance must be positive, got '" +
                   std::string(tok[3]) + "'");
        }
        guard_elements();
        out.caps.push_back(
            {a, b, static_cast<std::uint32_t>(ctx.line_no), f});
        break;
      }
      case 'l':
        ctx.fail("L card '" + std::string(tok[0]) +
                 "' is outside the supported subset (DC + decap transient "
                 "only; see docs/benchmark_ingestion.md)");
      default:
        ctx.fail("unknown element card '" + std::string(tok[0]) + "'");
    }
  }
  out.line_count = lines;
  c_lines.add(static_cast<double>(lines));
  c_bytes.add(static_cast<double>(bytes));
  c_nodes.add(static_cast<double>(out.nodes.size()));
  return out;
}

PgNetlist read_netlist_file(const std::string& path,
                            const ReadOptions& options) {
  std::ifstream in(path);
  VS_REQUIRE(static_cast<bool>(in), "cannot open '" + path + "'");
  return read_netlist(in, path, options);
}

PgNetlist read_netlist_text(const std::string& text,
                            const std::string& source_name,
                            const ReadOptions& options) {
  std::istringstream in(text);
  return read_netlist(in, source_name, options);
}

GoldenSolution read_solution(std::istream& in, const std::string& source_name,
                             const ReadOptions& options) {
  VS_SPAN("pgio.parse");
  GoldenSolution out;
  out.source = source_name;
  ParseContext ctx{source_name, options};
  std::string raw;
  std::string_view tok[3];
  while (std::getline(in, raw)) {
    ++ctx.line_no;
    if (raw.size() > options.max_line_length) {
      ctx.fail("line longer than " + std::to_string(options.max_line_length) +
               " characters");
    }
    const std::string_view line = clean_line(raw);
    if (line.empty()) continue;
    const std::size_t n = split(line, tok, 3);
    if (n != 2) ctx.fail("expected '<node> <volts>'");
    if (is_ground(tok[0])) {
      const double v = ctx.value(tok[1], "voltage");
      if (v != 0.0) {
        ctx.fail("ground listed at " + std::string(tok[1]) + " V");
      }
      continue;
    }
    const std::uint32_t id = out.nodes.intern(tok[0]);
    if (out.nodes.size() > options.max_nodes) {
      ctx.fail("node budget exceeded (" + std::to_string(options.max_nodes) +
               " nodes; raise ReadOptions::max_nodes)");
    }
    if (id < out.voltages.size()) {
      ctx.fail("duplicate solution entry for node '" + std::string(tok[0]) +
               "'");
    }
    out.voltages.push_back(ctx.value(tok[1], "voltage"));
  }
  return out;
}

GoldenSolution read_solution_file(const std::string& path,
                                  const ReadOptions& options) {
  std::ifstream in(path);
  VS_REQUIRE(static_cast<bool>(in), "cannot open '" + path + "'");
  return read_solution(in, path, options);
}

GoldenSolution read_solution_text(const std::string& text,
                                  const std::string& source_name,
                                  const ReadOptions& options) {
  std::istringstream in(text);
  return read_solution(in, source_name, options);
}

}  // namespace vstack::pgio
