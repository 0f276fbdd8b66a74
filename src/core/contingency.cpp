#include "core/contingency.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "telemetry/telemetry.h"

namespace vstack::core {

namespace {

bool is_em_candidate(pdn::ConductorKind kind) {
  switch (kind) {
    case pdn::ConductorKind::C4Vdd:
    case pdn::ConductorKind::C4Gnd:
    case pdn::ConductorKind::TsvVdd:
    case pdn::ConductorKind::TsvGnd:
    case pdn::ConductorKind::RecyclingTsv:
    case pdn::ConductorKind::ThroughVia:
      return true;
    case pdn::ConductorKind::GridStrap:
    case pdn::ConductorKind::PackageVdd:
    case pdn::ConductorKind::PackageGnd:
    case pdn::ConductorKind::Leakage:
      return false;
  }
  return false;
}

bool is_tsv_kind(pdn::ConductorKind kind) {
  return kind == pdn::ConductorKind::TsvVdd ||
         kind == pdn::ConductorKind::TsvGnd ||
         kind == pdn::ConductorKind::RecyclingTsv;
}

double node_voltage(const pdn::PdnSolution& sol, std::size_t node,
                    double supply_voltage) {
  if (node == pdn::kFixedSupply) return supply_voltage;
  if (node == pdn::kFixedGround) return 0.0;
  return sol.node_voltages[node];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

ContingencyEngine::ContingencyEngine(const StudyContext& ctx,
                                     pdn::StackupConfig config)
    : ctx_(ctx), config_(std::move(config)) {
  config_.validate();
}

std::vector<EmRiskEntry> ContingencyEngine::rank_by_em_risk(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  const pdn::PdnModel model(config_, ctx_.layer_floorplan);
  const auto solution =
      model.solve_activities(ctx_.core_model, layer_activities, options.solve);
  VS_REQUIRE(solution.solve_ok,
             "baseline solve failed: " + solution.diagnostic);

  // Ranking horizon: the baseline TSV array's expected damage-free lifetime
  // (its P = 0.5 crossing).
  double horizon =
      em::array_mttf(solution.tsv_currents, ctx_.black, ctx_.mttf_options);
  if (!std::isfinite(horizon)) horizon = 0.0;  // unstressed: rank by current

  const auto& net = model.network();
  std::vector<EmRiskEntry> ranking;
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    const auto& group = net.conductors()[i];
    if (group.count == 0 || !is_em_candidate(group.kind)) continue;
    const double per_unit =
        std::abs(node_voltage(solution, group.node_a, solution.supply_voltage) -
                 node_voltage(solution, group.node_b,
                              solution.supply_voltage)) /
        group.unit_resistance;
    // Current crowding: the same model the EM arrays use (solver.cpp).
    double hot = per_unit;
    if (is_tsv_kind(group.kind)) {
      const std::size_t sharing =
          std::min(group.count, config_.params.tsv_crowding_share);
      hot = per_unit * static_cast<double>(group.count) /
            static_cast<double>(sharing);
    }
    EmRiskEntry entry;
    entry.conductor_index = i;
    entry.kind = group.kind;
    entry.count = group.count;
    entry.unit_current = hot;
    entry.failure_probability =
        horizon > 0.0 ? em::lognormal_failure_cdf(
                            horizon, ctx_.black.median_ttf(hot),
                            ctx_.mttf_options.sigma)
                      : 0.0;
    ranking.push_back(entry);
  }

  std::sort(ranking.begin(), ranking.end(),
            [](const EmRiskEntry& a, const EmRiskEntry& b) {
              if (a.failure_probability != b.failure_probability) {
                return a.failure_probability > b.failure_probability;
              }
              if (a.unit_current != b.unit_current) {
                return a.unit_current > b.unit_current;
              }
              return a.conductor_index < b.conductor_index;
            });
  return ranking;
}

ContingencyCase ContingencyEngine::evaluate_case(
    const pdn::FaultSet& faults,
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options, const std::string& label) const {
  VS_SPAN("core.contingency.case");
  static const telemetry::Counter t_cases("core.contingency.cases");
  t_cases.add();
  pdn::PdnModel model(config_, ctx_.layer_floorplan);
  ContingencyCase result;
  result.faults = faults;
  result.label =
      label.empty() ? faults.describe(model.network()) : label;

  faults.apply_to(model.network_mutable());
  // The deadline rides the solve options so an ill-conditioned post-fault
  // system aborts at the next Krylov iteration poll instead of stalling the
  // whole sweep.
  pdn::PdnSolveOptions solve = options.solve;
  solve.iterative.deadline = options.execution.deadline;
  const auto sol =
      model.solve_activities(ctx_.core_model, layer_activities, solve);

  result.solved = sol.solve_ok;
  // A concurrent genuine failure is indistinguishable from a timeout here;
  // dropping it is still sound -- the case re-runs on the next submission.
  result.deadline_truncated =
      !sol.solve_ok && options.execution.deadline.expired();
  result.solve_attempts = std::max<std::size_t>(1, sol.report.attempts.size());
  result.floating_islands = sol.floating_island_count;
  result.diagnostic = sol.diagnostic;

  if (!sol.solve_ok) {
    result.outcome = CaseOutcome::Infeasible;
    return result;
  }

  result.max_node_deviation_fraction = sol.max_node_deviation_fraction;
  result.max_ir_drop_fraction = sol.max_ir_drop_fraction;
  result.max_converter_current = sol.max_converter_current;
  result.converter_limit_ok = sol.converter_limit_ok;
  result.supply_current = sol.supply_current;
  result.tsv_current_sum = sum(sol.tsv_currents);

  if (sol.floating_load_current > 1e-12) {
    result.outcome = CaseOutcome::Infeasible;  // stranded load current
  } else if (!sol.converter_limit_ok ||
             sol.max_node_deviation_fraction >
                 options.noise_budget_fraction) {
    result.outcome = CaseOutcome::Degraded;
  } else {
    result.outcome = CaseOutcome::Survivable;
  }
  return result;
}

ContingencyReport ContingencyEngine::make_baseline_report(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  const pdn::PdnModel model(config_, ctx_.layer_floorplan);
  const auto sol =
      model.solve_activities(ctx_.core_model, layer_activities, options.solve);
  VS_REQUIRE(sol.solve_ok, "baseline solve failed: " + sol.diagnostic);

  ContingencyReport report;
  report.base_max_node_deviation_fraction = sol.max_node_deviation_fraction;
  report.base_max_ir_drop_fraction = sol.max_ir_drop_fraction;
  report.base_max_converter_current = sol.max_converter_current;
  report.base_tsv_current_sum = sum(sol.tsv_currents);
  report.base_supply_current = sol.supply_current;
  return report;
}

void run_cases(ContingencyReport& report, std::size_t count,
               const ExecutionPolicy& execution,
               const std::function<ContingencyCase(std::size_t)>& evaluate) {
  std::vector<ContingencyCase> evaluated(count);
  report.planned = count;
  bool truncated = false;
  const TaskPool pool(execution);
  pool.run_ordered(
      count, [&](std::size_t i) { evaluated[i] = evaluate(i); },
      [&](std::size_t i) {
        // Drop deadline-truncated cases and everything after them: the
        // committed cases stay a contiguous prefix of real verdicts.
        if (truncated || evaluated[i].deadline_truncated) {
          truncated = true;
          return;
        }
        ContingencyCase& one = evaluated[i];
        switch (one.outcome) {
          case CaseOutcome::Survivable: ++report.survivable; break;
          case CaseOutcome::Degraded:   ++report.degraded;   break;
          case CaseOutcome::Infeasible: ++report.infeasible; break;
        }
        if (one.solved) {
          report.worst_post_fault_deviation =
              std::max(report.worst_post_fault_deviation,
                       one.max_node_deviation_fraction);
        }
        report.cases.push_back(std::move(one));
      });
  report.cancelled = report.cases.size() < count;
}

ContingencyReport ContingencyEngine::run_n_minus_1(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  VS_SPAN("core.contingency.n_minus_1");
  ContingencyReport report =
      make_baseline_report(layer_activities, options);
  report.ranking = rank_by_em_risk(layer_activities, options);

  const std::size_t cases =
      options.exhaustive ? report.ranking.size()
                         : std::min(options.top_k, report.ranking.size());
  // Each case solves its own freshly built, freshly damaged model, so the
  // sweep fans out on the worker pool; the ordered commit keeps the report
  // identical to a serial sweep.
  run_cases(report, cases, options.execution, [&](std::size_t k) {
    const EmRiskEntry& entry = report.ranking[k];
    pdn::FaultSet faults;
    faults.open_conductor(entry.conductor_index);
    std::ostringstream label;
    label << "N-1 open[" << pdn::conductor_kind_name(entry.kind) << "#"
          << entry.conductor_index << " x" << entry.count << "]";
    return evaluate_case(faults, layer_activities, options, label.str());
  });
  return report;
}

namespace {

// The Monte Carlo sampler, shared verbatim by run_monte_carlo and
// plan_monte_carlo.  ALL RNG consumption lives here -- evaluation draws
// nothing -- so planning the whole campaign up front yields the same fault
// sets as the historical sample-then-evaluate interleaving.
std::vector<PlannedScenario> sample_trials(
    const std::vector<EmRiskEntry>& ranking, std::size_t converter_count,
    std::size_t grid_nodes, const ContingencyOptions& options) {
  // Sampling weights: failure probability with a floor so every candidate
  // stays reachable even when the EM model calls it unstressed.
  std::vector<double> cumulative(ranking.size());
  double total = 0.0;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    total += ranking[i].failure_probability + 1e-9;
    cumulative[i] = total;
  }

  Rng rng(options.seed);
  std::vector<PlannedScenario> plan;
  plan.reserve(options.trials);
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    pdn::FaultSet faults;
    std::vector<std::size_t> chosen;
    std::size_t guard = 0;
    while (chosen.size() <
               std::min(options.faults_per_trial, ranking.size()) &&
           ++guard < 64 * options.faults_per_trial) {
      const double u = rng.uniform(0.0, total);
      const std::size_t pick = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin());
      if (std::find(chosen.begin(), chosen.end(), pick) != chosen.end()) {
        continue;
      }
      chosen.push_back(pick);
      const EmRiskEntry& entry = ranking[pick];
      if (rng.uniform() < 0.5) {
        faults.open_conductor(entry.conductor_index);
      } else {
        faults.degrade_conductor(entry.conductor_index, kDegradeFactor);
      }
    }
    for (std::size_t c = 0;
         c < options.converter_faults_per_trial && converter_count > 0; ++c) {
      faults.converter_stuck_off(rng.uniform_index(converter_count));
    }
    for (std::size_t c = 0; c < options.leakage_faults_per_trial; ++c) {
      faults.leakage_to_ground(rng.uniform_index(grid_nodes),
                               kLeakageResistance);
    }

    std::ostringstream label;
    label << "MC#" << trial;
    plan.push_back(PlannedScenario{trial, label.str(), std::move(faults)});
  }
  return plan;
}

}  // namespace

std::vector<PlannedScenario> ContingencyEngine::plan_monte_carlo(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  const auto ranking = rank_by_em_risk(layer_activities, options);
  VS_REQUIRE(!ranking.empty(), "no fault candidates in this network");
  const pdn::PdnModel probe(config_, ctx_.layer_floorplan);
  return sample_trials(ranking, probe.network().converters().size(),
                       probe.network().node_count(), options);
}

ContingencyReport ContingencyEngine::run_monte_carlo(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  VS_SPAN("core.contingency.monte_carlo");
  ContingencyReport report =
      make_baseline_report(layer_activities, options);
  report.ranking = rank_by_em_risk(layer_activities, options);
  VS_REQUIRE(!report.ranking.empty(), "no fault candidates in this network");

  const pdn::PdnModel probe(config_, ctx_.layer_floorplan);
  const auto plan =
      sample_trials(report.ranking, probe.network().converters().size(),
                    probe.network().node_count(), options);
  // All RNG consumption happened in sample_trials; evaluation is pure, so
  // trials fan out on the worker pool and commit in trial order.
  run_cases(report, plan.size(), options.execution, [&](std::size_t i) {
    return evaluate_case(plan[i].faults, layer_activities, options,
                         plan[i].label);
  });
  return report;
}

}  // namespace vstack::core
