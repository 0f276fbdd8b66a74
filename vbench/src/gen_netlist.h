// Seeded IBM-PG-style power-grid netlist, generated in memory.
//
// Two supply nets, each on a fine lower metal layer and a coarse upper one:
//
//   VDD: n1_<x>_<y> (fine, pitch 1) + n3_<x>_<y> (coarse, pitch `coarse`)
//   GND: n2_<x>_<y> (fine, pitch 1) + n4_<x>_<y> (coarse, offset by
//        coarse/2 so the two nets' straps interleave)
//
// Coordinates are in fine-pitch units.  Every coarse node drops a via to
// the fine node under it; a seeded share of the vias is written as one of
// the three 0-ohm short spellings (0-ohm R card, 0 V "ammeter" V card,
// `.shorts`).  VDD pads sit on the coarse VDD layer on a lattice whose
// points the seed jitters by up to one coarse pitch; GND pads are 0 V
// sources to ground on the coarse GND layer.  Every fine VDD node draws a
// load current into the fine GND node under it (a uniform floor plus
// seeded Gaussian hot spots), and every other fine node of both nets has a
// C card to ground, so a load step has real charge to move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace vbench {

struct GridGenOptions {
  std::size_t fine = 256;       // fine nodes per side (both nets)
  std::size_t coarse = 4;       // coarse-layer pitch [fine units]
  std::size_t pad_pitch = 10;   // pad lattice pitch [coarse nodes]
  std::size_t hot_spots = 6;
  double vdd = 1.8;                  // [V]
  double total_current = 4.0;        // summed load [A]
  double hot_spot_share = 0.4;       // of total_current
  double fine_ohms = 0.8;            // per fine segment
  double coarse_ohms = 0.15;         // per coarse segment
  double via_ohms = 0.05;
  double short_share = 0.06;         // vias written as 0-ohm shorts
  double decap_f = 2e-12;            // per C card
};

struct GeneratedGrid {
  std::string text;
  double total_load_a = 0.0;  // exact sum of the I cards
  std::size_t shorts = 0;     // vias written as shorts
  std::size_t caps = 0;
};

GeneratedGrid generate_netlist(std::uint64_t seed,
                               const GridGenOptions& options = {});

}  // namespace vbench
