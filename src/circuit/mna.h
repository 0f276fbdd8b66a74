// Modified nodal analysis assembly for the circuit module.
//
// Unknown ordering: node voltages for nodes 1..n-1 (ground eliminated),
// followed by one branch current per voltage source.  Capacitors are stamped
// through companion models supplied by the caller (DC analysis passes a zero
// conductance scale, leaving them open).
#pragma once

#include <vector>

#include "circuit/netlist.h"
#include "la/dense_lu.h"

namespace vstack::circuit {

class MnaSystem {
 public:
  explicit MnaSystem(const Netlist& netlist);

  /// Total unknowns: (node_count - 1) voltages + voltage-source currents.
  std::size_t unknown_count() const;

  /// Row/column of a node voltage unknown; node must not be ground.
  std::size_t voltage_index(NodeId node) const;

  /// Row/column of a voltage source's branch-current unknown.
  std::size_t source_current_index(std::size_t vsource_index) const;

  /// Assemble the MNA matrix: assemble_base() plus stamp_capacitors().
  ///   switch_on:        per-switch on/off state (size = switches().size()).
  ///   cap_conductance:  per-capacitor companion conductance Geq (size =
  ///                     capacitors().size()); pass an empty vector for DC.
  la::DenseMatrix assemble_matrix(const std::vector<bool>& switch_on,
                                  const std::vector<double>& cap_conductance)
      const;

  /// Everything but the capacitor companions: resistors, then switches in
  /// the given state, then voltage-source branch stamps.  A transient run
  /// stamps this once per switch pattern and adds the capacitors per step;
  /// the sum is bit-identical to a full assembly because every entry still
  /// accumulates resistors, switches and capacitors in that order (source
  /// stamps touch only branch rows and columns, which capacitors never do).
  la::DenseMatrix assemble_base(const std::vector<bool>& switch_on) const;

  /// Add each capacitor's companion conductance (entries <= 0 are skipped)
  /// to `m`, in capacitor order.
  void stamp_capacitors(la::DenseMatrix& m,
                        const std::vector<double>& cap_conductance) const;

  /// Assemble the right-hand side.
  ///   cap_history_current: per-capacitor companion source Ieq entering the
  ///                        capacitor's `a` terminal; empty for DC.
  la::Vector assemble_rhs(const std::vector<double>& cap_history_current)
      const;

  /// Same, into `rhs` (resized to unknown_count(); reuses its storage).
  void assemble_rhs(const std::vector<double>& cap_history_current,
                    la::Vector& rhs) const;

  /// Voltage of `node` given a solution vector (0 for ground).
  double node_voltage(const la::Vector& solution, NodeId node) const;

  const Netlist& netlist() const { return netlist_; }

 private:
  void stamp_conductance(la::DenseMatrix& m, NodeId a, NodeId b,
                         double conductance) const;

  const Netlist& netlist_;
};

/// DC operating point (capacitors open, switches forced to a given state).
struct DcSolution {
  la::Vector node_voltages;     // indexed by NodeId, [0] = 0
  la::Vector vsource_currents;  // current out of the + terminal, per source
};

DcSolution dc_solve(const Netlist& netlist, const std::vector<bool>& switch_on);

/// How a robust DC solve succeeded (or why it did not).
struct DcSolveReport {
  bool ok = false;
  std::string method;      // "direct", "gmin(1e-09)", "source-stepping"
  std::string diagnostic;  // nonempty when !ok
};

/// Non-throwing DC operating point with a recovery ladder: direct LU, then
/// gmin regularization (a small conductance from every node to ground,
/// tried from 1e-12 up), then source stepping (ramping every independent
/// source under the strongest gmin).  On total failure returns an all-zero
/// solution with report->ok == false instead of throwing -- transient
/// engines fall back to the netlist's stated initial conditions.
DcSolution dc_solve_robust(const Netlist& netlist,
                           const std::vector<bool>& switch_on,
                           DcSolveReport* report = nullptr);

}  // namespace vstack::circuit
