// Live fault ride-through: a transient PDN run with mid-run fault events
// and the sc::StackSupervisor in the loop.
//
// This is the one adaptive, event-driven PDN route.  It integrates the
// stacked (or regular) PDN on sim::AdaptiveStepper with the load step's
// companion models and epoch-keyed step solver (pdn/transient_core.h), an
// LTE on the capacitor voltages and a dt_max/16 restart step, lands a step
// boundary on every injected fault (TimedFaultEvent), and adds a sensing
// plane: every supervisor sense_interval the per-layer worst droop is
// sampled from the live solution and fed to the supervisor, whose abstract
// actions are translated into network mutations:
//
//   PhaseRebalance    -> surviving converter phases at the afflicted rails
//                        are strengthened (R_series lowered by up to the
//                        lost-phase ratio, capped by max_rebalance_boost)
//   FrequencyRetarget -> R_series rescaled by 1/boost, the SSL-dominated
//                        limit of the r_series ratio at the boosted
//                        switching frequency
//   BypassEngage      -> a bypass linear regulator (add_converter_clone
//                        with bypass_resistance) is switched in at the
//                        faulted converter's site
//   LayerShutdown     -> the layer's load activity is zeroed and the layer
//                        is excluded from further droop sensing
//
// Every mutation bumps the network's topology epoch (invalidating the
// factorization cache) and restarts integration across the discontinuity.
// The run never throws on numerical or fault trouble: the structured
// RideThroughReport carries the detection time, the bounded action trail,
// the worst droop, and a Recovered / Degraded / Lost classification.
#pragma once

#include <string>
#include <vector>

#include "pdn/fault.h"
#include "pdn/transient.h"
#include "sc/supervisor.h"

namespace vstack::pdn {

/// A fault (or load surge) scheduled to strike during a ride-through run.
///
/// Timing semantics: the step controller snaps a step boundary exactly onto
/// `time` and the event is applied at that boundary (the step starting at
/// `time` already integrates the post-event topology and loads).  Events at
/// time <= 0 are applied after the DC initial condition is taken but before
/// the first step: the run starts from the HEALTHY operating point and the
/// waveform shows the response from t = 0+.
///
/// Applying the faults bumps the working network's topology epoch, which
/// invalidates every cached factorization/preconditioner, and any event
/// restarts integration (backward-Euler startup, reduced dt) since the
/// pre-event history is invalid across the discontinuity.
struct TimedFaultEvent {
  double time = 0.0;  // [s] when the event strikes
  /// Topology perturbations (TSV/C4 opens or degradations, converter
  /// stuck-off, leakage shorts); may be empty for a pure load surge.
  FaultSet faults;
  /// Optional load surge: when non-empty (size = layer count), these
  /// per-layer activities REPLACE the loads in force from `time` onward.
  std::vector<double> activities;
  /// Label recorded in the report's event trail (default "fault event").
  std::string label;
};

enum class RideThroughOutcome {
  Recovered,  // droop back inside the recovery band on every live layer
  Degraded,   // out of the recovery band but inside the trip band
  Lost,       // a layer shut down, droop still tripped, or run truncated
};

const char* to_string(RideThroughOutcome outcome);

struct RideThroughOptions {
  /// Transient engine configuration; `time_step` is the largest step the
  /// controller may take and `step_time` is ignored (the ride-through
  /// engine has no built-in load step).
  PdnTransientOptions transient;

  /// Faults / load surges striking mid-run, applied to a private copy of the
  /// model's network (the caller's model is never mutated).  Each must
  /// strike at a finite time before the end of the run.
  std::vector<TimedFaultEvent> fault_events;

  /// Detection / escalation policy (sensing window = detection latency +
  /// hysteresis band + watchdog timeout).
  sc::SupervisorConfig supervisor;

  /// Output resistance of the bypass linear regulator switched in by
  /// BypassEngage [Ohm] (sc::LinearRegulatorDesign's default).
  double bypass_resistance = 0.05;

  /// Cap on how much PhaseRebalance may strengthen a surviving phase
  /// (R_series never drops below its design value / this factor).
  double max_rebalance_boost = 4.0;

  void validate() const;
};

/// Structured outcome of a ride-through run -- returned, never thrown.
struct RideThroughReport {
  /// Engine-level outcome (step statistics, recovery events, truncation).
  sim::TransientReport transient;

  RideThroughOutcome outcome = RideThroughOutcome::Recovered;
  double detected_at = -1.0;   // [s]; negative = supervisor never tripped
  double recovered_at = -1.0;  // [s]; negative = never re-entered the band
  double worst_droop = 0.0;    // worst sensed droop fraction (live layers)
  double final_droop = 0.0;    // last sensed droop fraction (live layers)

  /// Supervisor action trail, in firing order (bounded by the supervisor's
  /// max_actions).
  std::vector<sc::SupervisorAction> actions;
  /// Layers taken down by LayerShutdown, in shutdown order.
  std::vector<std::size_t> shutdown_layers;

  /// True when the transient engine completed the full horizon (says
  /// nothing about the outcome classification).
  bool ok() const { return transient.ok(); }

  /// One-line digest: outcome, detection time, action count, droops.
  std::string summary() const;
};

struct RideThroughResult {
  std::vector<double> time;            // [s] per accepted step
  std::vector<double> worst_noise;     // global max deviation fraction
  std::vector<double> supply_current;  // off-chip current [A]
  RideThroughReport report;
};

/// Run the fault ride-through scenario: steady per-layer `activities`, the
/// fault events from options.fault_events, and the supervisor in the loop.
/// Throws only on precondition violations; numerical trouble truncates the
/// waveform and is classified in the report.
RideThroughResult simulate_ride_through(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities, const RideThroughOptions& options);

}  // namespace vstack::pdn
