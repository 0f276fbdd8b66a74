#include "pdn/transient.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.h"
#include "pdn/transient_core.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn {

namespace {

using telemetry::monotonic_seconds;

/// One pending one-shot event on the run's timeline: the built-in load step
/// or an injected TimedFaultEvent (with its loads pre-built).
struct PendingEvent {
  double time = 0.0;
  const TimedFaultEvent* event = nullptr;  // null for the built-in load step
  std::vector<LoadInjection> loads;
  bool has_loads = false;
};

}  // namespace

void PdnTransientOptions::validate() const {
  VS_REQUIRE(decap_density > 0.0, "decap density must be positive");
  VS_REQUIRE(package_inductance > 0.0, "package inductance must be positive");
  VS_REQUIRE(time_step > 0.0, "time step must be positive");
  VS_REQUIRE(duration > time_step, "duration must exceed the time step");
  VS_REQUIRE(step_time >= 0.0 && step_time < duration,
             "step time must lie within the run");
  for (const auto& ev : fault_events) {
    VS_REQUIRE(std::isfinite(ev.time), "fault-event time must be finite");
    VS_REQUIRE(ev.time < duration, "fault-event time must precede the end");
  }
  control.validate();
}

PdnTransientResult simulate_load_step(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities_before,
    const std::vector<double>& activities_after,
    const PdnTransientOptions& options) {
  VS_SPAN("pdn.transient.load_step");
  options.validate();
  const StackupConfig& cfg = model.config();

  // Private copy of the network: mid-run fault events mutate the topology,
  // and the caller's model (with its DC caches) must stay pristine.
  PdnNetwork net = model.network();
  detail::TransientWorkspace ws(net, options);
  detail::StepSolver solver(ws.system(), options);
  const std::size_t n = ws.n();

  // --- Initial condition: DC solve before the step. --------------------
  const auto loads_before = net.build_loads(core_model, activities_before);
  const auto loads_after = net.build_loads(core_model, activities_after);
  const PdnSolution dc = model.solve(loads_before);

  PdnTransientResult result;
  if (!dc.solve_ok) {
    result.report.status = sim::TransientStatus::SolverFailure;
    result.report.diagnostic =
        "pre-step DC operating point failed: " + dc.diagnostic;
    return result;
  }

  la::Vector x(n, 0.0);
  ws.init_states(dc, x);

  result.initial_noise = ws.worst_noise_of(x);
  result.peak_noise = result.initial_noise;
  result.peak_time = 0.0;

  // --- Unified one-shot timeline: load step + injected fault events. ---
  std::vector<PendingEvent> pending;
  pending.push_back({options.step_time, nullptr, loads_after, true});
  for (const auto& ev : options.fault_events) {
    PendingEvent p{ev.time, &ev, {}, false};
    if (!ev.activities.empty()) {
      VS_REQUIRE(ev.activities.size() == cfg.layer_count,
                 "fault-event activities must match layer count");
      p.loads = net.build_loads(core_model, ev.activities);
      p.has_loads = true;
    }
    pending.push_back(std::move(p));
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingEvent& a, const PendingEvent& b) {
                     return a.time < b.time;
                   });

  const std::vector<LoadInjection>* live_loads = &loads_before;
  std::size_t next_pending = 0;
  // Apply every event with time <= t (+tol); returns whether the topology
  // changed (requiring an integration restart in adaptive mode).  The
  // epoch-keyed solver cache rebuilds factorizations on its own.
  const auto apply_events_through = [&](double t, double tol,
                                        sim::TransientReport& report) {
    bool topology_changed = false;
    while (next_pending < pending.size() &&
           pending[next_pending].time <= t + tol) {
      const PendingEvent& ev = pending[next_pending++];
      if (ev.has_loads) live_loads = &ev.loads;
      // The built-in load step leaves no trail.
      if (ev.event != nullptr &&
          detail::apply_fault_event(*ev.event, net, ws, t, report)) {
        topology_changed = true;
      }
    }
    return topology_changed;
  };

  const auto record_sample = [&](double t, const la::Vector& sol) {
    const double noise = ws.worst_noise_of(sol);
    result.time.push_back(t);
    result.worst_noise.push_back(noise);
    result.supply_current.push_back(ws.supply_inductor_current());
    if (noise > result.peak_noise) {
      result.peak_noise = noise;
      result.peak_time = t;
    }
  };

  if (!options.adaptive) {
    // --- Legacy uniform grid (bit-compatible waveforms when no fault
    // events are scheduled) under the shared guard/budget/report
    // discipline.  Events fire at the first grid point t >= event time,
    // mirroring the historical load-step rule. -----------------------------
    const double h = options.time_step;
    const auto n_steps = static_cast<std::size_t>(
        std::llround(options.duration / h));
    result.time.reserve(n_steps);
    result.worst_noise.reserve(n_steps);
    result.supply_current.reserve(n_steps);

    sim::TransientReport& report = result.report;
    const double wall_start = monotonic_seconds();
    la::Vector rhs(n, 0.0);
    std::string diagnostic;

    for (std::size_t step = 0; step < n_steps; ++step) {
      if (sim::budget_exhausted(options.control, step, wall_start,
                                static_cast<double>(step) * h, report)) {
        break;
      }
      const double t_new = static_cast<double>(step + 1) * h;
      apply_events_through(t_new, 0.0, report);
      ws.build_rhs(*live_loads, h, /*be=*/false, rhs);
      if (!solver.solve(h, /*be=*/false, rhs, x, t_new, report, diagnostic)) {
        report.status = sim::TransientStatus::SolverFailure;
        report.diagnostic = "transient PDN step failed at t = " +
                            sim::format_g(t_new) + " s: " + diagnostic;
        break;
      }
      ws.commit_states(x, h, /*be=*/false);
      record_sample(t_new, x);
      ++report.accepted_steps;
      report.end_time = t_new;
    }
    sim::finalize_fixed_run(report, h, wall_start);
  } else {
    // --- Adaptive LTE-controlled stepping; the load-step instant and every
    // fault event are schedule entries the controller lands on exactly. ----
    const double event_tol = 1e-12 * options.duration;
    sim::EventSchedule schedule(options.duration);
    schedule.add_time(options.step_time);
    for (const auto& ev : options.fault_events) schedule.add_time(ev.time);

    sim::AdaptiveStepper stepper = detail::make_stepper(options);
    while (stepper.running()) {
      const double t = stepper.time();
      // Events whose instant the controller just landed on (or, on the
      // first iteration, events at t <= 0) fire before the step that
      // starts here, and a topology change restarts the integration; so
      // does landing on any event instant.  The step uses the loads in
      // force at its START, so each discontinuity begins exactly at its
      // snapped boundary.
      if (apply_events_through(t, event_tol, stepper.report())) {
        stepper.restart();
      }
      if (!ws.adaptive_step(stepper, solver, *live_loads,
                            schedule.next_after(t), x)) {
        continue;
      }
      record_sample(stepper.time(), x);
      if (stepper.ended_on_event()) stepper.restart();
    }
    result.report = stepper.finalize();
  }

  result.final_noise =
      result.worst_noise.empty() ? result.initial_noise
                                 : result.worst_noise.back();
  return result;
}

}  // namespace vstack::pdn
