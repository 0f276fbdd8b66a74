#include "pgio/campaign.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "telemetry/telemetry.h"

namespace vstack::pgio {

namespace {

const telemetry::Counter c_cases("pgio.campaign.cases");

/// Per-node decap [F] of a load step on a netlist without C cards.
constexpr double kDefaultDecapF = 1e-12;

void apply_faults(ImportedGrid& grid, const pdn::FaultSet& faults) {
  for (const auto& fault : faults.faults()) {
    switch (fault.kind) {
      case pdn::FaultKind::OpenConductor:
        grid.remove_conductor_units(fault.index, fault.units);
        break;
      case pdn::FaultKind::DegradeConductor:
        grid.scale_conductor_resistance(fault.index, fault.severity);
        break;
      case pdn::FaultKind::LeakageToGround:
        grid.add_leakage_to_ground(fault.index, fault.severity);
        break;
      case pdn::FaultKind::ConverterStuckOff:
        VS_FAIL("imported benchmark grids have no converters");
    }
  }
}

double slot_voltage(const ImportedGrid& grid, const GridSolution& solution,
                    std::size_t slot) {
  return grid.is_fixed(slot) ? grid.fixed_potential(slot)
                             : solution.voltages[slot];
}

/// Max |pad potential| -- the denominator every fraction in this file uses.
double reference_potential(const ImportedGrid& grid) {
  double ref = 0.0;
  for (std::size_t s = grid.unknown_count(); s < grid.slot_count(); ++s) {
    ref = std::max(ref, std::abs(grid.fixed_potential(s)));
  }
  return ref;
}

/// Baseline fields + ranking; returns false when the fault-free grid does
/// not solve (the report then carries zero planned cases -- there is no
/// meaningful baseline to compare damaged variants against).
bool make_baseline(const ImportedGrid& grid, const GridCampaignOptions& options,
                   core::ContingencyReport& report, GridSolution& baseline) {
  ImportedGrid base(grid);
  baseline = base.solve(options.solve);
  if (!baseline.solve_ok) return false;
  report.base_max_node_deviation_fraction = baseline.max_deviation_fraction;
  report.base_max_ir_drop_fraction = baseline.max_deviation_fraction;
  report.base_supply_current = baseline.supply_current_a;
  return true;
}

}  // namespace

std::vector<core::EmRiskEntry> rank_by_stress(
    const ImportedGrid& grid, const GridSolution& baseline,
    const GridCampaignOptions& options) {
  VS_REQUIRE(baseline.solve_ok, "stress ranking needs a solved baseline");
  VS_REQUIRE(baseline.voltages.size() == grid.unknown_count(),
             "baseline does not match this grid");
  std::vector<core::EmRiskEntry> entries;
  double total_current = 0.0;
  const auto& conductors = grid.conductors();
  for (std::size_t index = 0; index < conductors.size(); ++index) {
    const auto& c = conductors[index];
    if (c.count == 0 || c.unit_resistance <= 0.0) continue;
    const double g = static_cast<double>(c.count) / c.unit_resistance;
    const double current =
        std::abs(g * (slot_voltage(grid, baseline, c.node_a) -
                      slot_voltage(grid, baseline, c.node_b)));
    core::EmRiskEntry entry;
    entry.conductor_index = index;
    entry.kind = c.kind;
    entry.count = c.count;
    entry.unit_current = current / static_cast<double>(c.count);
    entry.failure_probability = current;  // normalized to a share below
    entries.push_back(entry);
    total_current += current;
  }
  if (total_current > 0.0) {
    for (auto& entry : entries) entry.failure_probability /= total_current;
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const core::EmRiskEntry& a, const core::EmRiskEntry& b) {
                     return a.failure_probability > b.failure_probability;
                   });
  if (!options.exhaustive && entries.size() > options.top_k) {
    entries.resize(options.top_k);
  }
  return entries;
}

core::ContingencyCase evaluate_case(const ImportedGrid& grid,
                                    const pdn::FaultSet& faults,
                                    const GridCampaignOptions& options,
                                    const std::string& label) {
  c_cases.add();
  core::ContingencyCase one;
  one.label = label;
  one.faults = faults;
  one.converter_limit_ok = true;

  ImportedGrid damaged(grid);
  apply_faults(damaged, faults);
  const GridSolution solution = damaged.solve(options.solve);
  one.solved = solution.solve_ok;
  one.solve_attempts = std::max<std::size_t>(1, solution.report.attempts.size());
  one.floating_islands = solution.floating_islands;
  one.deadline_truncated = solution.report.deadline_expired;
  if (!solution.solve_ok) {
    one.outcome = core::CaseOutcome::Infeasible;
    one.diagnostic = solution.diagnostic;
    return one;
  }
  one.max_node_deviation_fraction = solution.max_deviation_fraction;
  one.max_ir_drop_fraction = solution.max_deviation_fraction;
  one.supply_current = solution.supply_current_a;
  if (solution.floating_load_current_a > 0.0) {
    one.outcome = core::CaseOutcome::Infeasible;
    one.diagnostic = "load current stranded on a floating island";
  } else if (solution.max_deviation_fraction > options.noise_budget_fraction) {
    one.outcome = core::CaseOutcome::Degraded;
  } else {
    one.outcome = core::CaseOutcome::Survivable;
  }
  return one;
}

core::ContingencyReport run_n_minus_1(const ImportedGrid& grid,
                                      const GridCampaignOptions& options) {
  VS_SPAN("pgio.campaign.n_minus_1");
  core::ContingencyReport report;
  GridSolution baseline;
  if (!make_baseline(grid, options, report, baseline)) return report;
  report.ranking = rank_by_stress(grid, baseline, options);

  std::vector<pdn::FaultSet> plans;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < report.ranking.size(); ++i) {
    const std::size_t index = report.ranking[i].conductor_index;
    plans.push_back(pdn::FaultSet().open_conductor(index));
    labels.push_back("N-1#" + std::to_string(i) + " open[" +
                     std::to_string(index) + "]");
  }
  core::run_cases(report, plans.size(), options.execution,
                  [&](std::size_t i) {
                    return evaluate_case(grid, plans[i], options, labels[i]);
                  });
  return report;
}

core::ContingencyReport run_monte_carlo(const ImportedGrid& grid,
                                        const GridCampaignOptions& options) {
  VS_SPAN("pgio.campaign.monte_carlo");
  core::ContingencyReport report;
  GridSolution baseline;
  if (!make_baseline(grid, options, report, baseline)) return report;

  // Rank EVERY conductor: the sampler draws from the full stress
  // distribution even when the reported ranking is truncated.
  GridCampaignOptions full = options;
  full.exhaustive = true;
  std::vector<core::EmRiskEntry> ranking = rank_by_stress(grid, baseline, full);
  report.ranking = ranking;
  if (!options.exhaustive && report.ranking.size() > options.top_k) {
    report.ranking.resize(options.top_k);
  }
  if (ranking.empty()) return report;

  std::vector<double> cumulative(ranking.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    acc += ranking[i].failure_probability;
    cumulative[i] = acc;
  }

  // Plan every trial up front; evaluation consumes no randomness, so a
  // given seed reproduces the same fault sets at any jobs count.
  Rng rng(options.seed);
  const auto sample_index = [&]() -> std::size_t {
    if (acc <= 0.0) return rng.uniform_index(ranking.size());
    const double u = rng.uniform() * acc;
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    return std::min<std::size_t>(it - cumulative.begin(), ranking.size() - 1);
  };
  std::vector<pdn::FaultSet> plans;
  std::vector<std::string> labels;
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    pdn::FaultSet faults;
    for (std::size_t f = 0; f < options.faults_per_trial; ++f) {
      const std::size_t index = ranking[sample_index()].conductor_index;
      if (f % 2 == 0) {
        faults.open_conductor(index);
      } else {
        faults.degrade_conductor(index, core::kDegradeFactor);
      }
    }
    for (std::size_t f = 0; f < options.leakage_faults_per_trial; ++f) {
      if (grid.unknown_count() == 0) break;
      faults.leakage_to_ground(rng.uniform_index(grid.unknown_count()),
                               core::kLeakageResistance);
    }
    plans.push_back(std::move(faults));
    labels.push_back("MC#" + std::to_string(trial));
  }
  core::run_cases(report, plans.size(), options.execution,
                  [&](std::size_t i) {
                    return evaluate_case(grid, plans[i], options, labels[i]);
                  });
  return report;
}

std::vector<GridSolution> sweep_load_scale(const ImportedGrid& grid,
                                           const std::vector<double>& scales,
                                           const GridCampaignOptions& options) {
  VS_SPAN("pgio.campaign.sweep");
  std::vector<GridSolution> results(scales.size());
  const core::TaskPool pool(options.execution);
  const std::size_t committed = pool.run_ordered(
      scales.size(),
      [&](std::size_t i) {
        ImportedGrid copy(grid);
        results[i] = copy.solve_scaled(scales[i], options.solve);
      },
      [](std::size_t) {});
  results.resize(committed);
  return results;
}

LoadStepReport simulate_load_step(const ImportedGrid& grid,
                                  const LoadStepOptions& options) {
  VS_SPAN("pgio.campaign.load_step");
  VS_REQUIRE(options.dt_s > 0.0, "dt must be positive");
  VS_REQUIRE(options.duration_s >= options.dt_s,
             "duration must cover at least one step");
  LoadStepReport report;

  ImportedGrid work(grid);
  const GridSolution pre = work.solve(options.solve);
  if (!pre.solve_ok) {
    report.diagnostic = "pre-step DC solve failed: " + pre.diagnostic;
    return report;
  }
  const GridSolution target =
      work.solve_scaled(options.step_scale, options.solve);
  if (!target.solve_ok) {
    report.diagnostic = "post-step DC solve failed: " + target.diagnostic;
    return report;
  }
  report.pre_step_deviation_v = pre.max_deviation_v;
  report.post_step_deviation_v = target.max_deviation_v;

  const std::size_t n = work.unknown_count();
  if (n == 0) {
    report.solve_ok = true;
    report.recovered = true;
    report.recovery_time_s = 0.0;
    return report;
  }

  // Per-slot decap: the netlist's C cards when it has any, else the
  // uniform default (the IBM DC benchmarks carry no caps).
  std::vector<double> cap(work.slot_capacitance().begin(),
                          work.slot_capacitance().begin() +
                              static_cast<std::ptrdiff_t>(n));
  bool has_netlist_caps = false;
  for (const double c : cap) has_netlist_caps |= c > 0.0;
  if (!has_netlist_caps) cap.assign(n, kDefaultDecapF);

  // Backward-Euler companion system: (G + C/h) v_new = b + (C/h) v_old.
  const double h = options.dt_s;
  la::CooBuilder builder(n);
  la::Vector fixed_rhs, load_rhs;
  work.stamp_conductances(builder, fixed_rhs, load_rhs);
  for (std::size_t s = 0; s < n; ++s) builder.add(s, s, cap[s] / h);
  const la::CsrMatrix matrix = builder.build();
  la::SolveOptions solver_options;
  solver_options.preconditioner = options.solve.preconditioner;
  solver_options.backend = options.solve.backend;
  la::Solver solver(matrix, solver_options);

  const double ref = reference_potential(work);
  const double band =
      ref > 0.0 ? options.recovery_fraction * ref : options.recovery_fraction;
  const auto steps =
      static_cast<std::size_t>(std::ceil(options.duration_s / h));
  la::Vector v = pre.voltages;
  la::Vector rhs(n);
  double error_inf = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t s = 0; s < n; ++s) {
      rhs[s] = fixed_rhs[s] + options.step_scale * load_rhs[s] +
               (cap[s] / h) * v[s];
    }
    const la::SolveReport step =
        solver.solve(rhs, v, options.solve.iterative);
    if (!step.converged) {
      report.steps = k;
      report.diagnostic = "transient step " + std::to_string(k) +
                          " failed: " + step.diagnostic;
      return report;
    }
    error_inf = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (work.is_floating(s)) continue;
      report.worst_deviation_v = std::max(
          report.worst_deviation_v, std::abs(v[s] - work.nominal_potential(s)));
      report.worst_droop_v =
          std::max(report.worst_droop_v, std::abs(v[s] - pre.voltages[s]));
      error_inf = std::max(error_inf, std::abs(v[s] - target.voltages[s]));
    }
    if (!report.recovered && error_inf <= band) {
      report.recovered = true;
      report.recovery_time_s = static_cast<double>(k + 1) * h;
    }
  }
  report.steps = steps;
  report.final_error_v = error_inf;
  report.solve_ok = true;
  return report;
}

}  // namespace vstack::pgio
