// Fault injection into the 3D PDN (robustness layer).
//
// The EM study (em/array_mttf) predicts WHICH conductors fail first; this
// module closes the loop by actually removing them from the network and
// letting the solver report whether the damaged stack still meets its noise
// budget.  A FaultSet is a recipe of perturbations -- opened or
// resistance-degraded conductor groups, stuck-off converter phases, leakage
// shorts to ground -- applied to a PdnNetwork through its mutator API (every
// application bumps the network's topology epoch, invalidating downstream
// matrix caches).
//
// Opening conductors can strand whole subgraphs: a rail island with no path
// to any fixed potential makes the MNA matrix singular.  The floating-island
// detector finds those components so the solver can ground them (weak pin to
// the nominal rail potential) instead of handing the Krylov solvers a
// singular system.
#pragma once

#include <string>
#include <vector>

#include "pdn/network.h"

namespace vstack::pdn {

enum class FaultKind {
  OpenConductor,     // remove `units` parallel conductors from a group
  DegradeConductor,  // multiply a group's per-unit resistance by `severity`
  ConverterStuckOff, // converter phase stops switching (removed from system)
  LeakageToGround    // resistive short of `severity` ohms from node to ground
};

struct Fault {
  FaultKind kind = FaultKind::OpenConductor;
  /// Conductor-group index, converter index, or node index depending on kind.
  std::size_t index = 0;
  /// OpenConductor: parallel units to remove (whole group when >= count).
  std::size_t units = 1;
  /// DegradeConductor: resistance multiplier; LeakageToGround: ohms.
  double severity = 1.0;
};

/// An ordered recipe of faults.  Building a FaultSet does not touch any
/// network; apply_to() mutates the given PdnNetwork in place.
class FaultSet {
 public:
  /// Open `units` conductors of group `index` (whole group by default).
  FaultSet& open_conductor(std::size_t index,
                           std::size_t units = static_cast<std::size_t>(-1));

  /// Multiply group `index`'s per-unit resistance by `factor` (> 1 degrades).
  FaultSet& degrade_conductor(std::size_t index, double factor);

  /// Stuck-off converter phase.
  FaultSet& converter_stuck_off(std::size_t index);

  /// Resistive short from `node` to board ground.
  FaultSet& leakage_to_ground(std::size_t node, double resistance);

  const std::vector<Fault>& faults() const { return faults_; }
  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }

  /// Apply every fault to the network (bumps its topology epoch).
  void apply_to(PdnNetwork& network) const;

  /// One-line human-readable summary, e.g. "open[tsv#1042] conv-off[37]".
  std::string describe(const PdnNetwork& network) const;

 private:
  std::vector<Fault> faults_;
};

/// Converter-bank fault: every converter phase at `level` sticks off except
/// the first `keep` (network order).  Returns the bank size, i.e. how many
/// converters sit at `level`; throws when there are none (a regular
/// topology, or a level outside the stack).
std::size_t stick_off_converter_bank(FaultSet& faults,
                                     const PdnNetwork& network,
                                     std::size_t level, std::size_t keep);

/// Free grid/package nodes with no conductive path to any fixed potential
/// (package rails, or an ideal-reference converter output, which is tied to
/// its nominal level through r_series).  Each island is one connected
/// component of such nodes.
struct IslandReport {
  std::vector<std::vector<std::size_t>> islands;
  std::size_t floating_node_count() const;
};

IslandReport find_floating_islands(const PdnNetwork& network);

/// Short label for a conductor kind ("strap", "c4", "tsv", "via", ...).
const char* conductor_kind_name(ConductorKind kind);

}  // namespace vstack::pdn
