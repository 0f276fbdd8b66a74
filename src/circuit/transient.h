// Transient analysis with clocked switches: adaptive (default for the SC
// testbench) or legacy fixed-step integration.
//
// Capacitors use trapezoidal companion models, falling back to backward
// Euler for a couple of steps after every switching event to suppress the
// ringing trapezoidal integration exhibits across discontinuities.  The
// resistor, switch and source stamps are assembled once per switch pattern
// seen in a run; each step copies that base into a reused workspace, adds
// the capacitor companions and factors it in place.  Fixed mode (constant
// dt) also reuses the factorization per (switch pattern, scheme); adaptive
// mode never repeats a dt, so it factors every step and caches nothing.
//
// Adaptive mode runs the one adaptive step loop shared with the PDN engines,
// sim::AdaptiveStepper: local-truncation-error control over the full MNA
// vector with rejection/halving/exponential grow-back, a dt_max/256 restart
// after every switch edge, and steps clamped so every clocked-switch edge is
// hit exactly -- the time step no longer needs to divide the clock period.
// The engine's recovery events (DC initialization, gmin shifts) land in the
// run's report in both modes.  Fixed mode
// keeps the historical uniform grid (and now DIAGNOSES a step that does not
// divide the period instead of silently skewing switch timing).
//
// Robustness: numerical failures do not throw.  DC initialization runs
// through the gmin/source-stepping ladder (dc_solve_robust), singular step
// matrices are retried with a gmin shift, every candidate solution passes a
// NaN/overflow guard before being committed, and hard step / wall-clock
// budgets truncate runaway runs.  Callers check TransientResult::report
// (a sim::TransientReport) instead of catching exceptions; returned
// waveforms never contain NaN.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "sim/step_control.h"

namespace vstack::circuit {

enum class SteppingMode {
  Fixed,     // uniform grid at `time_step` (legacy behavior)
  Adaptive,  // LTE-controlled steps, switch edges hit exactly
};

/// A switch fault striking DURING a transient run: from `time` onward the
/// switch's clocked drive is overridden and it is forced permanently on or
/// off (gate-driver failure / stuck SC phase).  Adaptive mode snaps a step
/// boundary exactly onto `time`; fixed mode applies the override under the
/// same midpoint rule as clocked edges (a fault landing exactly on a grid
/// point takes effect in the step that follows it).  Step matrices key on
/// the full switch pattern, so pre-fault stamps and factorizations are
/// never reused for the post-fault pattern.  DC initialization always uses
/// the HEALTHY switch states, even for faults at time <= 0: the run starts
/// from the nominal operating point and shows the response from t = 0+.
struct TimedSwitchFault {
  double time = 0.0;          // [s] when the drive fails
  std::size_t switch_index = 0;
  bool stuck_on = false;      // false = stuck open
  std::string label;          // recorded in the report's event trail
};

struct TransientOptions {
  double stop_time = 0.0;  // seconds; must be > 0
  /// Fixed mode: the uniform step; must divide the clock period evenly when
  /// the netlist contains switches (checked -- a non-divisible step fails
  /// with a diagnostic instead of skewing switch timing).
  /// Adaptive mode: the LARGEST step the controller may take; 0 derives a
  /// default from the clock period (period / 64) or stop_time / 1000 for
  /// switchless netlists.
  double time_step = 0.0;
  bool start_from_dc = false;  // solve a DC point (phase at t=0) for initial
                               // capacitor voltages instead of using v0
  SteppingMode mode = SteppingMode::Fixed;
  /// Switch faults striking mid-run (see TimedSwitchFault).
  std::vector<TimedSwitchFault> switch_faults;
  /// Tolerances, budgets and guard thresholds for the shared controller.
  /// Budgets and guards apply in BOTH modes.
  sim::StepControlOptions control;
};

namespace detail {
struct TransientEngine;
}

/// Recorded waveforms.  Sample k is taken at time[k]; spacing is uniform
/// in fixed mode and variable in adaptive mode (averages are time-weighted
/// so both modes measure identically).  Node voltages and source currents
/// are stored row-major, one contiguous row per sample.
class TransientResult {
 public:
  std::vector<double> time;

  /// Structured outcome: step statistics, recovery events, and a status
  /// labeling truncated results.  Check ok() before trusting the waveforms
  /// to cover the full requested span.
  sim::TransientReport report;
  bool ok() const { return report.ok(); }

  std::size_t sample_count() const { return time.size(); }

  /// Voltage of `node` at sample k (0 for ground).
  double node_voltage(std::size_t k, NodeId node) const;

  /// Current delivered by voltage source `source` at sample k.
  double vsource_current(std::size_t k, std::size_t source) const;

  /// Time-average of a node voltage over [from_time, end] (trapezoidal
  /// weights, exact for non-uniform adaptive sampling).
  double average_node_voltage(NodeId node, double from_time) const;

  /// Time-average of the current delivered by a voltage source.
  double average_vsource_current(std::size_t source, double from_time) const;

  /// Min / max of a node voltage over [from_time, end].
  double min_node_voltage(NodeId node, double from_time) const;
  double max_node_voltage(NodeId node, double from_time) const;

 private:
  friend struct detail::TransientEngine;

  std::size_t node_count_ = 0;    // rows hold nodes 1..node_count_-1
  std::size_t source_count_ = 0;
  std::vector<double> node_voltages_;
  std::vector<double> vsource_currents_;
};

class TransientSimulator {
 public:
  /// `clock_period` scales every switch's ClockPhase description.
  TransientSimulator(const Netlist& netlist, double clock_period);

  /// Integrate to options.stop_time.  Throws only on precondition
  /// violations (bad options); numerical trouble is reported through
  /// TransientResult::report with the waveform truncated at the last good
  /// step.
  TransientResult run(const TransientOptions& options);

  /// Switch states at absolute time t (exposed for tests).
  std::vector<bool> switch_states(double t) const;

  /// Schedule of switch on/off edges (exposed for tests).
  sim::PeriodicEvents switch_edges() const;

 private:
  TransientResult run_fixed(const TransientOptions& options);
  TransientResult run_adaptive(const TransientOptions& options);

  /// switch_states(t) into `on` (sized to the switch count; no allocation
  /// once it is).
  void fill_switch_states(double t, std::vector<bool>& on) const;

  const Netlist& netlist_;
  double clock_period_;
};

}  // namespace vstack::circuit
