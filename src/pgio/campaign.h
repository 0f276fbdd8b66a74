// Campaign routes for imported benchmark grids: the same robustness
// machinery the synthesized stacks get -- deterministic N-1 sweeps, seeded
// Monte Carlo N-k campaigns, load-scale sweeps, and a load-step
// ride-through transient -- expressed against an ImportedGrid.
//
// The reports reuse core's structs (core::ContingencyReport,
// core::ContingencyCase, core::EmRiskEntry, pdn::FaultSet) so downstream
// consumers (CLI renderers, JSON writers) see one shape regardless of
// where the grid came from.  Differences from the synthesized engine,
// stated rather than hidden:
//
//   * Ranking is by DC current stress, not EM lifetime: imported netlists
//     carry no geometry, so EmRiskEntry::failure_probability holds each
//     candidate's share of total conductor current (a stress proxy that
//     preserves the "most-loaded first" ordering N-1 wants).
//   * Converter fields of the report stay zero -- benchmark grids have no
//     converters.
//
// Determinism contract matches core: all RNG consumption happens while
// planning (never while evaluating), each case runs on a fresh copy of the
// base grid, and cases are committed in index order through core's
// run_cases -- so jobs=N output is bit-identical to serial for a given
// seed, and a case cut short by the solve deadline ends the committed
// prefix instead of counting as Infeasible.
#pragma once

#include <cstdint>
#include <vector>

#include "core/contingency.h"
#include "core/task_pool.h"
#include "pgio/grid.h"

namespace vstack::pgio {

struct GridCampaignOptions {
  /// N-1 sweep size: top_k candidates by current stress, or every conductor
  /// when exhaustive is set.
  std::size_t top_k = 8;
  bool exhaustive = false;

  /// Cases above this deviation (|v - nominal| / max pad potential)
  /// classify as Degraded.
  double noise_budget_fraction = 0.10;

  /// Monte Carlo N-k shape (mirrors core::ContingencyOptions).
  std::size_t trials = 25;
  std::size_t faults_per_trial = 2;
  std::size_t leakage_faults_per_trial = 0;
  std::uint64_t seed = 42;

  GridSolveOptions solve;
  core::ExecutionPolicy execution;
};

/// Rank conductors by DC current stress under `baseline` (descending).
/// failure_probability is the group's share of the summed conductor
/// current -- see the header comment.
std::vector<core::EmRiskEntry> rank_by_stress(const ImportedGrid& grid,
                                              const GridSolution& baseline,
                                              const GridCampaignOptions&
                                                  options = {});

/// Deterministic N-1: open each ranked conductor in turn.
core::ContingencyReport run_n_minus_1(const ImportedGrid& grid,
                                      const GridCampaignOptions& options = {});

/// Seeded Monte Carlo N-k: each trial samples faults_per_trial conductor
/// faults weighted by current stress (alternating full opens and
/// core::kDegradeFactor degradations) plus leakage_faults_per_trial
/// core::kLeakageResistance shorts to ground at uniformly sampled nodes.
core::ContingencyReport run_monte_carlo(const ImportedGrid& grid,
                                        const GridCampaignOptions& options =
                                            {});

/// Evaluate one explicit fault recipe on a fresh copy of `grid` (building
/// block of both campaigns; indices refer to grid.conductors() / slots).
core::ContingencyCase evaluate_case(const ImportedGrid& grid,
                                    const pdn::FaultSet& faults,
                                    const GridCampaignOptions& options = {},
                                    const std::string& label = "");

/// Solve the grid at each load scale (fresh grid copy per scale so the
/// cases parallelize); results are in `scales` order.
std::vector<GridSolution> sweep_load_scale(const ImportedGrid& grid,
                                           const std::vector<double>& scales,
                                           const GridCampaignOptions& options =
                                               {});

// ---------------------------------------------------------------------------
// Load-step ride-through (the imported-grid transient route).

struct LoadStepOptions {
  double step_scale = 2.0;    // load multiplier after the step
  double duration_s = 1e-6;   // simulated window after the step
  double dt_s = 5e-9;         // backward-Euler step
  /// Recovered when every node is within recovery_fraction * (max pad
  /// potential) of the post-step DC solution.
  double recovery_fraction = 0.02;
  GridSolveOptions solve;
};

struct LoadStepReport {
  bool solve_ok = false;
  std::string diagnostic;
  std::size_t steps = 0;

  double pre_step_deviation_v = 0.0;   // DC deviation before the step
  double post_step_deviation_v = 0.0;  // DC deviation of the settled target
  double worst_deviation_v = 0.0;      // worst instantaneous |v - nominal|
  double worst_droop_v = 0.0;          // worst |v(t) - v_pre| excursion

  bool recovered = false;
  double recovery_time_s = -1.0;  // first time inside the recovery band
  double final_error_v = 0.0;     // max |v(end) - v_target|
};

/// Backward-Euler transient of a load step at t = 0: capacitors stamp the
/// standard companion model (G + C/h, history current (C/h) v_old), the
/// pre-step DC point is the initial condition, and the post-step DC point
/// is the recovery target.  A netlist without C cards (most IBM DC
/// benchmarks) gets 1 pF of decap per node.  Non-throwing on solver failure
/// (check solve_ok).
LoadStepReport simulate_load_step(const ImportedGrid& grid,
                                  const LoadStepOptions& options = {});

}  // namespace vstack::pgio
