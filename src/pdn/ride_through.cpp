#include "pdn/ride_through.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/error.h"
#include "pdn/transient_core.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn {

const char* to_string(RideThroughOutcome outcome) {
  switch (outcome) {
    case RideThroughOutcome::Recovered: return "recovered";
    case RideThroughOutcome::Degraded: return "degraded";
    case RideThroughOutcome::Lost: return "lost";
  }
  return "unknown";
}

void RideThroughOptions::validate() const {
  // step_time is ignored by the ride-through engine; validate the rest of
  // the transient options without tripping on it.
  PdnTransientOptions t = transient;
  t.step_time = 0.0;
  t.validate();
  for (const auto& ev : fault_events) {
    VS_REQUIRE(std::isfinite(ev.time), "fault-event time must be finite");
    VS_REQUIRE(ev.time < transient.duration,
               "fault-event time must precede the end");
  }
  supervisor.validate();
  VS_REQUIRE(bypass_resistance > 0.0, "bypass resistance must be positive");
  VS_REQUIRE(max_rebalance_boost >= 1.0,
             "rebalance boost cap must be at least 1");
  VS_REQUIRE(supervisor.sense_interval < transient.duration,
             "sensing cadence must fit inside the run");
}

std::string RideThroughReport::summary() const {
  std::ostringstream oss;
  oss << to_string(outcome);
  if (detected_at >= 0.0) {
    oss << ": detected at " << detected_at << " s";
  } else {
    oss << ": no trip";
  }
  oss << ", " << actions.size() << " actions"
      << ", worst droop " << worst_droop * 100.0 << "%"
      << ", final " << final_droop * 100.0 << "%";
  if (!shutdown_layers.empty()) {
    oss << ", shutdown layers [";
    for (std::size_t i = 0; i < shutdown_layers.size(); ++i) {
      oss << (i ? " " : "") << shutdown_layers[i];
    }
    oss << "]";
  }
  if (!transient.ok()) oss << " -- " << transient.summary();
  return oss.str();
}

namespace {

/// Converter levels (intermediate rails 1..N-1) adjacent to a layer: the
/// rails bounding it from below and above.
std::vector<std::size_t> adjacent_levels(std::size_t layer,
                                         std::size_t layer_count) {
  std::vector<std::size_t> levels;
  for (const std::size_t level : {layer, layer + 1}) {
    if (level >= 1 && level + 1 <= layer_count) levels.push_back(level);
  }
  return levels;
}

/// Translates abstract supervisor actions into PdnNetwork mutations (and,
/// for LayerShutdown, load changes).  Holds the design-point R_series of
/// every converter so repeated rebalances never compound past the cap.
class ActionTranslator {
 public:
  ActionTranslator(PdnNetwork& net, const RideThroughOptions& options)
      : net_(net), options_(options) {
    base_r_.reserve(net.converters().size());
    for (const auto& conv : net.converters()) {
      base_r_.push_back(conv.r_series);
    }
  }

  /// Apply one action.  Returns true when the network topology (hence the
  /// step matrix) changed; LayerShutdown instead zeroes the layer's
  /// activity and records it in `shutdown_layers`.
  bool apply(const sc::SupervisorAction& action,
             std::vector<double>& live_activities,
             std::vector<std::size_t>& shutdown_layers) {
    switch (action.kind) {
      case sc::SupervisorActionKind::PhaseRebalance:
        return rebalance(action.layer);
      case sc::SupervisorActionKind::FrequencyRetarget:
        return retarget(action.layer, action.factor);
      case sc::SupervisorActionKind::BypassEngage:
        return bypass(action.layer);
      case sc::SupervisorActionKind::LayerShutdown:
        if (std::find(shutdown_layers.begin(), shutdown_layers.end(),
                      action.layer) == shutdown_layers.end()) {
          live_activities[action.layer] = 0.0;
          shutdown_layers.push_back(action.layer);
        }
        return false;
    }
    return false;
  }

 private:
  /// Design-point R_series; bypass clones appended after construction
  /// already regulate at their configured resistance.
  double base_r(std::size_t index) const {
    return index < base_r_.size() ? base_r_[index]
                                  : net_.converters()[index].r_series;
  }

  bool rebalance(std::size_t layer) {
    bool changed = false;
    const std::size_t layer_count = net_.config().layer_count;
    for (const std::size_t level : adjacent_levels(layer, layer_count)) {
      std::size_t total = 0;
      std::size_t enabled = 0;
      for (const auto& conv : net_.converters()) {
        if (conv.level != level) continue;
        ++total;
        if (conv.enabled) ++enabled;
      }
      if (enabled == 0 || enabled == total) continue;  // nothing to shift
      const double boost =
          std::min(static_cast<double>(total) / static_cast<double>(enabled),
                   options_.max_rebalance_boost);
      for (std::size_t i = 0; i < net_.converters().size(); ++i) {
        const auto& conv = net_.converters()[i];
        if (conv.level != level || !conv.enabled) continue;
        const double target = base_r(i) / boost;
        if (target < conv.r_series * (1.0 - 1e-12)) {
          net_.set_converter_r_series(i, target);
          changed = true;
        }
      }
    }
    return changed;
  }

  bool retarget(std::size_t layer, double factor) {
    // R_series ratio at the boosted switching frequency, in the
    // SSL-dominated limit (R_SSL scales as 1/f_sw).
    const double ratio = 1.0 / factor;
    if (ratio >= 1.0) return false;  // no boost: retarget cannot help
    bool changed = false;
    const std::size_t layer_count = net_.config().layer_count;
    for (const std::size_t level : adjacent_levels(layer, layer_count)) {
      if (std::find(retargeted_levels_.begin(), retargeted_levels_.end(),
                    level) != retargeted_levels_.end()) {
        continue;  // a bank retargets once
      }
      retargeted_levels_.push_back(level);
      for (std::size_t i = 0; i < net_.converters().size(); ++i) {
        const auto& conv = net_.converters()[i];
        if (conv.level != level || !conv.enabled) continue;
        net_.set_converter_r_series(i, conv.r_series * ratio);
        changed = true;
      }
    }
    return changed;
  }

  bool bypass(std::size_t layer) {
    bool changed = false;
    const std::size_t layer_count = net_.config().layer_count;
    for (const std::size_t level : adjacent_levels(layer, layer_count)) {
      if (std::find(bypassed_levels_.begin(), bypassed_levels_.end(),
                    level) != bypassed_levels_.end()) {
        continue;  // one bypass regulator per rail
      }
      // Prefer the faulted (stuck-off) site; else shadow the first phase.
      std::size_t site = static_cast<std::size_t>(-1);
      for (std::size_t i = 0; i < net_.converters().size(); ++i) {
        const auto& conv = net_.converters()[i];
        if (conv.level != level) continue;
        if (!conv.enabled) {
          site = i;
          break;
        }
        if (site == static_cast<std::size_t>(-1)) site = i;
      }
      if (site == static_cast<std::size_t>(-1)) continue;
      bypassed_levels_.push_back(level);
      net_.add_converter_clone(site, options_.bypass_resistance);
      changed = true;
    }
    return changed;
  }

  PdnNetwork& net_;
  const RideThroughOptions& options_;
  std::vector<double> base_r_;
  std::vector<std::size_t> retargeted_levels_;
  std::vector<std::size_t> bypassed_levels_;
};

}  // namespace

RideThroughResult simulate_ride_through(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities,
    const RideThroughOptions& options) {
  VS_SPAN("pdn.ride_through.run");
  static const telemetry::Counter t_runs("pdn.ride_through.runs");
  t_runs.add();
  options.validate();
  const StackupConfig& cfg = model.config();
  VS_REQUIRE(activities.size() == cfg.layer_count,
             "activities must match layer count");
  const PdnTransientOptions& topt = options.transient;

  // Private copy of the network; faults and supervisor actions mutate it.
  PdnNetwork net = model.network();
  detail::TransientWorkspace ws(net, topt);
  detail::StepSolver solver(ws.system(), topt);
  const std::size_t n = ws.n();

  std::vector<double> live_activities = activities;
  std::vector<LoadInjection> live_loads =
      net.build_loads(core_model, live_activities);

  RideThroughResult result;
  RideThroughReport& rep = result.report;

  // Pre-fault DC operating point (the HEALTHY stack).
  const PdnSolution dc = model.solve(live_loads);
  if (!dc.solve_ok) {
    rep.transient.status = sim::TransientStatus::SolverFailure;
    rep.transient.diagnostic =
        "pre-fault DC operating point failed: " + dc.diagnostic;
    rep.outcome = RideThroughOutcome::Lost;
    return result;
  }

  la::Vector x(n, 0.0);
  ws.init_states(dc, x);

  sc::StackSupervisor supervisor(options.supervisor, cfg.layer_count);
  ActionTranslator translator(net, options);

  // Injected fault events, sorted by strike time.
  std::vector<const TimedFaultEvent*> pending;
  pending.reserve(options.fault_events.size());
  for (const auto& ev : options.fault_events) {
    if (!ev.activities.empty()) {
      VS_REQUIRE(ev.activities.size() == cfg.layer_count,
                 "fault-event activities must match layer count");
    }
    pending.push_back(&ev);
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const TimedFaultEvent* a, const TimedFaultEvent* b) {
                     return a->time < b->time;
                   });

  const double event_tol = 1e-12 * topt.duration;

  // Timeline: every fault instant plus the supervisor's sensing ticks, all
  // landed on exactly by the step controller.
  sim::EventSchedule schedule(topt.duration);
  for (const auto* ev : pending) schedule.add_time(ev->time);
  schedule.add_periodic(
      sim::PeriodicEvents(options.supervisor.sense_interval, {0.0}));

  std::size_t next_pending = 0;
  double next_sense = options.supervisor.sense_interval;
  std::vector<double> layer_droop(cfg.layer_count, 0.0);
  std::vector<bool> layer_down(cfg.layer_count, false);

  // Steps of at most min(time_step, duration), restarting at a sixteenth
  // of that.
  const double dt_max = std::min(topt.time_step, topt.duration);
  sim::AdaptiveStepper stepper(topt.control, topt.duration, dt_max,
                               dt_max / 16.0);
  sim::TransientReport& trail = stepper.report();
  while (stepper.running()) {
    const double t = stepper.time();
    bool discontinuity = false;

    // 1. Injected fault events whose instant this boundary landed on (or,
    // on the first iteration, events at t <= 0).  The surge's loads are
    // built on the pre-fault network; the faults then mutate the network
    // and rebuild the step-matrix topology.
    while (next_pending < pending.size() &&
           pending[next_pending]->time <= t + event_tol) {
      const TimedFaultEvent& ev = *pending[next_pending++];
      const std::string label = ev.label.empty() ? "fault event" : ev.label;
      if (!ev.activities.empty()) {
        live_activities = ev.activities;
        for (std::size_t l = 0; l < layer_down.size(); ++l) {
          if (layer_down[l]) live_activities[l] = 0.0;
        }
        live_loads = net.build_loads(core_model, live_activities);
        trail.record_event(t, "load surge '" + label + "' applied");
        discontinuity = true;
      }
      if (!ev.faults.empty()) {
        ev.faults.apply_to(net);
        ws.rebuild_topology();
        trail.record_event(t, "fault event '" + label + "' applied (" +
                                  std::to_string(ev.faults.size()) +
                                  " faults, topology epoch " +
                                  std::to_string(net.topology_epoch()) + ")");
        discontinuity = true;
      }
    }

    // 2. Sensing plane: the supervisor samples the live solution at every
    // elapsed sense tick; its actions mutate the network / loads.
    while (t >= next_sense - event_tol) {
      ws.worst_noise_of(x, &layer_droop);
      for (std::size_t l = 0; l < layer_down.size(); ++l) {
        if (layer_down[l]) layer_droop[l] = 0.0;  // off rails are not sensed
      }
      const auto fired = supervisor.observe(t, layer_droop);
      for (const auto& action : fired) {
        rep.actions.push_back(action);
        trail.record_event(t, "supervisor: " + action.describe());
        const std::size_t down_before = rep.shutdown_layers.size();
        if (translator.apply(action, live_activities, rep.shutdown_layers)) {
          ws.rebuild_topology();
          discontinuity = true;
        }
        if (rep.shutdown_layers.size() != down_before) {
          layer_down[action.layer] = true;
          live_loads = net.build_loads(core_model, live_activities);
          discontinuity = true;
        }
      }
      next_sense += options.supervisor.sense_interval;
    }
    // Integration history is invalid across any discontinuity (fault, load
    // change, supervisor mutation); sense ticks alone are passive
    // boundaries and do not restart it.
    if (discontinuity) stepper.restart();

    // 3. One integration step.
    if (ws.adaptive_step(stepper, solver, live_loads, schedule.next_after(t),
                         x)) {
      result.time.push_back(stepper.time());
      result.worst_noise.push_back(ws.worst_noise_of(x));
      result.supply_current.push_back(ws.supply_inductor_current());
    }
  }
  rep.transient = stepper.finalize();

  // Final droop over the rails still alive.
  ws.worst_noise_of(x, &layer_droop);
  double final_droop = 0.0;
  for (std::size_t l = 0; l < layer_droop.size(); ++l) {
    if (!layer_down[l]) final_droop = std::max(final_droop, layer_droop[l]);
  }
  rep.final_droop = final_droop;
  rep.worst_droop = supervisor.worst_droop();
  rep.detected_at = supervisor.detected_at();
  rep.recovered_at = supervisor.recovered_at();

  if (!rep.transient.ok()) {
    rep.outcome = RideThroughOutcome::Lost;
  } else if (!rep.shutdown_layers.empty()) {
    rep.outcome = RideThroughOutcome::Lost;
  } else if (final_droop <= options.supervisor.recovery_fraction) {
    rep.outcome = RideThroughOutcome::Recovered;
  } else if (final_droop < options.supervisor.trip_fraction) {
    rep.outcome = RideThroughOutcome::Degraded;
  } else {
    rep.outcome = RideThroughOutcome::Lost;
  }
  return result;
}

}  // namespace vstack::pdn
