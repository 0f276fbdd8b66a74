#include "gen_netlist.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vbench {

namespace {

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[256];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    VS_REQUIRE(n > 0 && static_cast<std::size_t>(n) < sizeof(buf),
               "netlist line overflow");
    out_.append(buf, static_cast<std::size_t>(n));
    out_ += '\n';
  }

 private:
  std::string& out_;
};

}  // namespace

GeneratedGrid generate_netlist(std::uint64_t seed,
                               const GridGenOptions& o) {
  VS_REQUIRE(o.fine >= 2 * o.coarse && o.coarse >= 2,
             "grid generator: fine must span at least two coarse pitches");
  // Jitter moves a pad by at most one node, so lattice points three apart
  // can never land on the same node.
  VS_REQUIRE(o.pad_pitch >= 3, "grid generator: pad_pitch must be >= 3");
  vstack::Rng rng(seed ^ 0x5EED'1B4Dull);
  GeneratedGrid g;
  std::string& out = g.text;
  out.reserve(o.fine * o.fine * 140);
  Writer w(out);
  w.line("* vbench synthetic ibmpg-style grid, seed %llu",
         static_cast<unsigned long long>(seed));
  w.line(".title vbench_grid_%llu", static_cast<unsigned long long>(seed));

  const std::size_t n = o.fine;
  std::size_t r = 0, v = 0, i = 0, c = 0;
  const auto jitter = [&](double ohms) { return ohms * rng.uniform(0.95, 1.05); };

  // Fine meshes: n1 (VDD) and n2 (GND).
  for (const int layer : {1, 2}) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        if (x + 1 < n) {
          w.line("R%zu n%d_%zu_%zu n%d_%zu_%zu %.6g", ++r, layer, x, y, layer,
                 x + 1, y, jitter(o.fine_ohms));
        }
        if (y + 1 < n) {
          w.line("R%zu n%d_%zu_%zu n%d_%zu_%zu %.6g", ++r, layer, x, y, layer,
                 x, y + 1, jitter(o.fine_ohms));
        }
      }
    }
  }

  // Coarse meshes: n3 (VDD) on multiples of `coarse`, n4 (GND) offset by
  // half a pitch; each coarse node vias down to its own net's fine node.
  const std::size_t k = o.coarse;
  for (const int layer : {3, 4}) {
    const std::size_t offset = layer == 3 ? 0 : k / 2;
    const int below = layer - 2;
    std::vector<std::size_t> coords;
    for (std::size_t p = offset; p < n; p += k) coords.push_back(p);
    for (std::size_t yi = 0; yi < coords.size(); ++yi) {
      for (std::size_t xi = 0; xi < coords.size(); ++xi) {
        const std::size_t x = coords[xi], y = coords[yi];
        if (xi + 1 < coords.size()) {
          w.line("R%zu n%d_%zu_%zu n%d_%zu_%zu %.6g", ++r, layer, x, y, layer,
                 coords[xi + 1], y, jitter(o.coarse_ohms));
        }
        if (yi + 1 < coords.size()) {
          w.line("R%zu n%d_%zu_%zu n%d_%zu_%zu %.6g", ++r, layer, x, y, layer,
                 x, coords[yi + 1], jitter(o.coarse_ohms));
        }
        const double pick = rng.uniform();
        if (pick < o.short_share) {
          ++g.shorts;
          const int spelling = static_cast<int>(rng.uniform_index(3));
          if (spelling == 0) {
            w.line("R%zu n%d_%zu_%zu n%d_%zu_%zu 0", ++r, layer, x, y, below,
                   x, y);
          } else if (spelling == 1) {
            w.line("V%zu n%d_%zu_%zu n%d_%zu_%zu 0", ++v, layer, x, y, below,
                   x, y);
          } else {
            w.line(".shorts n%d_%zu_%zu n%d_%zu_%zu", layer, x, y, below, x,
                   y);
          }
        } else {
          w.line("R%zu n%d_%zu_%zu n%d_%zu_%zu %.6g", ++r, layer, x, y, below,
                 x, y, jitter(o.via_ohms));
        }
      }
    }

    // Pads: a lattice over the coarse nodes, each point jittered by up to
    // one coarse pitch in each direction.
    const std::size_t m = coords.size();
    for (std::size_t py = o.pad_pitch / 2; py < m; py += o.pad_pitch) {
      for (std::size_t px = o.pad_pitch / 2; px < m; px += o.pad_pitch) {
        const auto shift = [&](std::size_t p) {
          const auto d = static_cast<long>(rng.uniform_index(3)) - 1;
          const long q = static_cast<long>(p) + d;
          return static_cast<std::size_t>(
              std::clamp<long>(q, 0, static_cast<long>(m) - 1));
        };
        const std::size_t x = coords[shift(px)], y = coords[shift(py)];
        if (layer == 3) {
          w.line("V%zu n3_%zu_%zu 0 %.6g", ++v, x, y, o.vdd);
        } else {
          w.line("V%zu n4_%zu_%zu 0 0", ++v, x, y);
        }
      }
    }
  }

  // Loads: uniform floor plus Gaussian hot spots, VDD fine node -> GND
  // fine node at the same site.
  struct Spot {
    double x, y, sigma, weight;
  };
  std::vector<Spot> spots;
  double weight_sum = 0.0;
  for (std::size_t s = 0; s < o.hot_spots; ++s) {
    const double dn = static_cast<double>(n);
    spots.push_back({rng.uniform(0.1, 0.9) * dn, rng.uniform(0.1, 0.9) * dn,
                     rng.uniform(0.04, 0.1) * dn, rng.uniform(0.5, 1.5)});
    weight_sum += spots.back().weight;
  }
  std::vector<double> shape(n * n, 0.0);
  double shape_sum = 0.0;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      double s = 0.0;
      for (const Spot& sp : spots) {
        const double dx = static_cast<double>(x) - sp.x;
        const double dy = static_cast<double>(y) - sp.y;
        s += sp.weight / weight_sum *
             std::exp(-(dx * dx + dy * dy) / (2.0 * sp.sigma * sp.sigma));
      }
      shape[y * n + x] = s;
      shape_sum += s;
    }
  }
  const double floor_a =
      o.total_current * (1.0 - o.hot_spot_share) / static_cast<double>(n * n);
  const double spot_scale =
      shape_sum > 0.0 ? o.total_current * o.hot_spot_share / shape_sum : 0.0;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double amps = floor_a + spot_scale * shape[y * n + x];
      // %.17g round-trips, so the reader recovers exactly these doubles.
      w.line("I%zu n1_%zu_%zu n2_%zu_%zu %.17g", ++i, x, y, x, y, amps);
      g.total_load_a += amps;
    }
  }

  // Decap on every other fine node of both nets.
  for (const int layer : {1, 2}) {
    for (std::size_t y = 0; y < n; y += 2) {
      for (std::size_t x = 0; x < n; x += 2) {
        w.line("C%zu n%d_%zu_%zu 0 %.6g", ++c, layer, x, y, o.decap_f);
      }
    }
  }
  g.caps = c;
  w.line(".op");
  w.line(".end");
  return g;
}

}  // namespace vbench
