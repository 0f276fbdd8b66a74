#include "pdn/transient.h"

#include <cmath>
#include <string>

#include "common/error.h"
#include "pdn/transient_core.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn {

void PdnTransientOptions::validate() const {
  VS_REQUIRE(decap_density > 0.0, "decap density must be positive");
  VS_REQUIRE(package_inductance > 0.0, "package inductance must be positive");
  VS_REQUIRE(time_step > 0.0, "time step must be positive");
  VS_REQUIRE(duration > time_step, "duration must exceed the time step");
  VS_REQUIRE(step_time >= 0.0 && step_time < duration,
             "step time must lie within the run");
  control.validate();
}

PdnTransientResult simulate_load_step(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities_before,
    const std::vector<double>& activities_after,
    const PdnTransientOptions& options) {
  VS_SPAN("pdn.transient.load_step");
  options.validate();

  // Nothing mutates the topology during a load step, so the workspace binds
  // the model's own network.
  const PdnNetwork& net = model.network();
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

  // --- Uniform grid under the shared guard/budget/report discipline.  The
  // post-step loads take over at the first grid point t >= step_time. -----
  const double h = options.time_step;
  const auto n_steps = static_cast<std::size_t>(
      std::llround(options.duration / h));
  result.time.reserve(n_steps);
  result.worst_noise.reserve(n_steps);
  result.supply_current.reserve(n_steps);

  sim::TransientReport& report = result.report;
  const double wall_start = telemetry::monotonic_seconds();
  la::Vector rhs(n, 0.0);
  std::string diagnostic;

  for (std::size_t step = 0; step < n_steps; ++step) {
    if (sim::budget_exhausted(options.control, step, wall_start,
                              static_cast<double>(step) * h, report)) {
      break;
    }
    const double t_new = static_cast<double>(step + 1) * h;
    const auto& loads = t_new >= options.step_time ? loads_after
                                                   : loads_before;
    ws.build_rhs(loads, h, /*be=*/false, rhs);
    if (!solver.solve(h, /*be=*/false, rhs, x, t_new, report, diagnostic)) {
      report.status = sim::TransientStatus::SolverFailure;
      report.diagnostic = "transient PDN step failed at t = " +
                          sim::format_g(t_new) + " s: " + diagnostic;
      break;
    }
    ws.commit_states(x, h, /*be=*/false);
    const double noise = ws.worst_noise_of(x);
    result.time.push_back(t_new);
    result.worst_noise.push_back(noise);
    result.supply_current.push_back(ws.supply_inductor_current());
    if (noise > result.peak_noise) {
      result.peak_noise = noise;
      result.peak_time = t_new;
    }
    ++report.accepted_steps;
    report.end_time = t_new;
  }
  sim::finalize_fixed_run(report, h, wall_start);

  result.final_noise =
      result.worst_noise.empty() ? result.initial_noise
                                 : result.worst_noise.back();
  return result;
}

}  // namespace vstack::pdn
