// Contingency analysis: close the reliability loop (paper Sec. 3.3).
//
// The EM study predicts which C4 pads and TSVs wear out first; this engine
// actually REMOVES them from the network and reports whether charge
// recycling still balances -- post-fault IR drop, converter current-limit
// violations, redistributed per-conductor currents, and floating-island
// infeasibility.  Two campaign styles:
//
//   * Deterministic N-1: open each candidate conductor group in turn (the
//     top-k by EM failure probability, or every candidate).
//   * Seeded Monte Carlo N-k: each trial samples k conductor faults weighted
//     by failure probability (half opens, half resistance degradations),
//     optionally plus stuck-off converter phases and leakage shorts.
//
// Damaged networks may be near-singular; all solves run through the
// la::Solver degradation ladder and NEVER throw -- every case ends as
// Survivable, Degraded, or Infeasible with a structured diagnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/study.h"
#include "core/task_pool.h"
#include "pdn/fault.h"

namespace vstack::core {

/// Per-conductor-group EM risk: the crowding-adjusted hot current and the
/// lognormal failure probability at the ranking horizon.
struct EmRiskEntry {
  std::size_t conductor_index = 0;  // into network.conductors()
  pdn::ConductorKind kind = pdn::ConductorKind::GridStrap;
  std::size_t count = 0;            // parallel conductors in the group
  double unit_current = 0.0;        // hot-conductor current [A]
  double failure_probability = 0.0;
};

/// Monte Carlo fault severities, shared by the synthesized and the
/// imported-grid campaigns: a leakage fault shorts a node to ground through
/// kLeakageResistance [Ohm], and a partial conductor fault multiplies its
/// resistance by kDegradeFactor.
inline constexpr double kLeakageResistance = 10.0;
inline constexpr double kDegradeFactor = 8.0;

struct ContingencyOptions {
  /// N-1 sweep size: top_k candidates by EM risk, or every candidate group
  /// when exhaustive is set.
  std::size_t top_k = 8;
  bool exhaustive = false;

  /// Post-fault budget: max node deviation as a fraction of vdd.  Cases
  /// above it (or over the converter current limit) classify as Degraded.
  double noise_budget_fraction = 0.10;

  /// Monte Carlo N-k campaign shape.
  std::size_t trials = 25;
  std::size_t faults_per_trial = 2;
  std::size_t converter_faults_per_trial = 0;  // stuck-off phases per trial
  std::size_t leakage_faults_per_trial = 0;    // shorts to ground per trial
  std::uint64_t seed = 42;

  pdn::PdnSolveOptions solve;

  /// Case scheduling (core/task_pool.h).  Defaults to serial; with
  /// jobs > 1 the independent cases (each on a fresh PdnModel) evaluate
  /// concurrently while the report is reduced in case order, so the
  /// outcome counts, case list, and worst-deviation aggregate are
  /// bit-identical to a serial run.  Planning (RNG sampling, EM ranking,
  /// baseline solve) always stays serial so seeds reproduce exactly.
  ExecutionPolicy execution;
};

/// One sampled Monte Carlo scenario, fully determined before any evaluation.
/// All RNG consumption happens while PLANNING, never while evaluating, so a
/// campaign can be replayed (or resumed from a checkpoint) scenario-by-
/// scenario and still reproduce run_monte_carlo's exact fault sets.
struct PlannedScenario {
  std::size_t index = 0;  // trial number within the campaign
  std::string label;      // "MC#<trial>"
  pdn::FaultSet faults;
};

enum class CaseOutcome {
  Survivable,  // converged, within noise budget and converter limits
  Degraded,    // converged, but a budget or converter limit is violated
  Infeasible   // no converged solution, or loads stranded on an island
};

struct ContingencyCase {
  std::string label;
  pdn::FaultSet faults;
  CaseOutcome outcome = CaseOutcome::Infeasible;
  bool solved = false;
  std::size_t solve_attempts = 1;  // escalation-ladder rungs used
  std::size_t floating_islands = 0;
  double max_node_deviation_fraction = 0.0;
  double max_ir_drop_fraction = 0.0;
  double max_converter_current = 0.0;
  bool converter_limit_ok = true;
  double supply_current = 0.0;
  /// Sum of all TSV-array currents: conservation check that the faulted
  /// conductor's current actually redistributed to survivors.
  double tsv_current_sum = 0.0;
  std::string diagnostic;

  /// The solve was cut short by options.execution.deadline.  Not evidence
  /// of infeasibility: the commit path discards the case (and everything
  /// after it) instead of counting a timeout artifact as Infeasible.
  bool deadline_truncated = false;
};

struct ContingencyReport {
  // Fault-free baseline.
  double base_max_node_deviation_fraction = 0.0;
  double base_max_ir_drop_fraction = 0.0;
  double base_max_converter_current = 0.0;
  double base_tsv_current_sum = 0.0;
  double base_supply_current = 0.0;

  std::vector<EmRiskEntry> ranking;  // descending failure probability
  std::vector<ContingencyCase> cases;

  std::size_t survivable = 0;
  std::size_t degraded = 0;
  std::size_t infeasible = 0;
  double worst_post_fault_deviation = 0.0;  // over solved cases

  /// Cases the sweep/campaign planned to evaluate; cases.size() < planned
  /// only when `cancelled` (options.execution.deadline fired mid-run --
  /// `cases` hold the contiguous committed prefix).
  std::size_t planned = 0;
  bool cancelled = false;
};

/// Evaluate `count` independent cases on `execution`'s worker pool and
/// commit them into `report` in case order: outcome counts, the worst
/// post-fault deviation over solved cases, and the case list.  A
/// deadline-truncated case is no verdict, so it and every case after it
/// are dropped and `report.cases` stays a contiguous prefix.  Sets
/// `report.planned` and `report.cancelled`.  The commit path of every N-1
/// and Monte Carlo run, synthesized (ContingencyEngine) or imported
/// (pgio/campaign.h).
void run_cases(ContingencyReport& report, std::size_t count,
               const ExecutionPolicy& execution,
               const std::function<ContingencyCase(std::size_t)>& evaluate);

class ContingencyEngine {
 public:
  ContingencyEngine(const StudyContext& ctx, pdn::StackupConfig config);

  const pdn::StackupConfig& config() const { return config_; }

  /// Rank every candidate conductor group (C4 pads, TSVs, through-vias) by
  /// EM failure probability under the given per-layer activities.
  std::vector<EmRiskEntry> rank_by_em_risk(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options = {}) const;

  /// Deterministic N-1 sweep: open each candidate group in turn.
  ContingencyReport run_n_minus_1(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options = {}) const;

  /// Seeded Monte Carlo N-k campaign (reproducible from options.seed).
  ContingencyReport run_monte_carlo(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options = {}) const;

  /// Sample the full Monte Carlo trial list WITHOUT evaluating anything.
  /// run_monte_carlo is exactly: plan, then evaluate_case over the plan --
  /// the trial fault sets here are bit-identical to what it would build for
  /// the same seed and options.  The transient campaign runner
  /// (core/campaign.h) uses this to checkpoint/resume mid-campaign.
  std::vector<PlannedScenario> plan_monte_carlo(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options = {}) const;

  /// Evaluate one explicit fault set (building block of both campaigns).
  ContingencyCase evaluate_case(const pdn::FaultSet& faults,
                                const std::vector<double>& layer_activities,
                                const ContingencyOptions& options = {},
                                const std::string& label = "") const;

 private:
  ContingencyReport make_baseline_report(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options) const;

  const StudyContext& ctx_;
  pdn::StackupConfig config_;
};

}  // namespace vstack::core
