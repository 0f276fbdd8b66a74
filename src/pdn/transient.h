// Transient (RLC) analysis of the 3D PDN -- an extension beyond the paper's
// DC (IR-drop) study, restoring the dynamic part of the VoltSpot model the
// paper builds on.
//
// On top of the resistive network, this adds per-cell on-chip decoupling
// capacitance and a package inductance per supply net, then integrates a
// load step on a fixed grid with trapezoidal companions.  Both companion
// models are pure conductances plus history currents, so the system stays
// SPD; small systems are factorized once per distinct (dt, scheme) with the
// RCM-reordered skyline Cholesky, larger ones use warm-started CG.
//
// Robustness: NaN/overflow guards on every solution, linear solves that
// escalate through la::Solver's degradation ladder instead of throwing, and
// hard step / wall-clock budgets.  Callers check PdnTransientResult::report
// instead of catching exceptions.  The adaptive, event-driven PDN route --
// LTE-controlled steps, mid-run faults, the stack supervisor -- is
// pdn::simulate_ride_through (pdn/ride_through.h).
//
// The headline result it enables: voltage stacking draws ~N times less
// off-chip current, so the L*di/dt droop of a full-power step is far
// smaller than in the regular PDN with the same package.
#pragma once

#include <vector>

#include "pdn/solver.h"
#include "sim/step_control.h"

namespace vstack::pdn {

struct PdnTransientOptions {
  /// On-chip decoupling capacitance per die area, per layer [F/m^2].
  /// ~5 nF/mm^2 is typical for a logic die's intrinsic + explicit decap.
  double decap_density = 0.005;

  /// Optional per-layer override of decap_density (size = layer count);
  /// empty means uniform.  Used by the decap allocation optimizer.
  std::vector<double> layer_decap_density;

  /// Package + board loop inductance per supply net [H].
  double package_inductance = 50e-12;

  /// The load step's uniform step; the ride-through engine's LARGEST step.
  double time_step = 0.5e-9;  // [s]
  double duration = 200e-9;   // [s] total simulated time
  /// When the load step fires: the post-step loads take over at the first
  /// grid point t >= step_time.
  double step_time = 20e-9;  // [s]

  /// Budgets and guard thresholds (and, for ride-through, the LTE
  /// tolerances of the step controller).
  sim::StepControlOptions control;

  la::IterativeOptions iterative{.max_iterations = 20000,
                                 .relative_tolerance = 1e-8};

  /// Systems at or below this many unknowns are factorized per distinct
  /// timestep with the RCM-reordered skyline Cholesky and back-substituted
  /// per step (hundreds of times faster than per-step CG at small sizes);
  /// larger systems use warm-started CG.  Set to 0 to force the iterative
  /// path.
  std::size_t direct_solver_node_limit = 2500;

  void validate() const;
};

struct PdnTransientResult {
  std::vector<double> time;          // [s], one entry per accepted step
  std::vector<double> worst_noise;   // max node deviation fraction per step
  std::vector<double> supply_current;  // off-chip current [A] per step

  double initial_noise = 0.0;  // DC value before the step
  double peak_noise = 0.0;     // worst transient excursion
  double peak_time = 0.0;      // when it occurs [s]
  double final_noise = 0.0;    // settled value at the end of the run

  /// Structured outcome: step statistics, recovery/fallback events, and a
  /// status labeling truncated results.  Check ok() before trusting the
  /// waveform to span the full duration; waveforms never contain NaN.
  sim::TransientReport report;
  bool ok() const { return report.ok(); }
};

/// Simulate a load step from `activities_before` to `activities_after`
/// (per-layer activity factors) on the given PDN.  Throws only on
/// precondition violations; numerical trouble truncates the waveform and is
/// described in the returned report.
PdnTransientResult simulate_load_step(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities_before,
    const std::vector<double>& activities_after,
    const PdnTransientOptions& options = {});

}  // namespace vstack::pdn
