// Sweep drivers that regenerate each of the paper's result figures.
// The bench binaries print these rows; the integration tests assert the
// paper's qualitative claims on them.
//
// Every driver whose points are independent (5a, 5b, 6, 8) takes an
// ExecutionPolicy (default serial) and fans its rows out on the shared
// worker pool (core/task_pool.h); rows land in sweep order either way, so
// parallel output is bit-identical to serial.  Fig. 7 is a single seeded
// sampling campaign and always runs serially.  SweepRunner bundles the
// context + policy so callers (CLI, bench drivers) stop re-plumbing
// StudyContext into every figure call; its defaults are the paper's sweep
// shapes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/study.h"
#include "core/task_pool.h"
#include "power/workload.h"

namespace vstack::core {

/// Fig. 5a: normalized TSV EM-free MTTF vs layer count.
struct Fig5aRow {
  std::size_t layers = 0;
  double reg_dense = 0.0;
  double reg_sparse = 0.0;
  double reg_few = 0.0;
  double vs_few = 0.0;  // all normalized to the 2-layer V-S PDN
};
std::vector<Fig5aRow> run_fig5a(const StudyContext& ctx,
                                const std::vector<std::size_t>& layer_counts,
                                const ExecutionPolicy& execution = {});

/// Fig. 5b: normalized C4 EM-free MTTF vs layer count.
struct Fig5bRow {
  std::size_t layers = 0;
  double reg_25 = 0.0;
  double reg_50 = 0.0;
  double reg_75 = 0.0;
  double reg_100 = 0.0;
  double vs = 0.0;  // normalized to the 2-layer V-S PDN
};
std::vector<Fig5bRow> run_fig5b(const StudyContext& ctx,
                                const std::vector<std::size_t>& layer_counts,
                                const ExecutionPolicy& execution = {});

/// Fig. 6: maximum on-chip voltage noise vs workload imbalance, 8-layer
/// stack.  Entries where the converter current limit is violated are
/// reported as std::nullopt (the paper skips those points).
struct Fig6Row {
  double imbalance = 0.0;
  std::vector<std::optional<double>> vs_noise;  // one per converter count
};
struct Fig6Result {
  std::vector<std::size_t> converter_counts;
  std::vector<Fig6Row> rows;
  // Regular-PDN reference lines (worst case: all layers active).
  double reg_dense = 0.0;
  double reg_sparse = 0.0;
  double reg_few = 0.0;
};
Fig6Result run_fig6(const StudyContext& ctx, std::size_t layers,
                    const std::vector<std::size_t>& converter_counts,
                    const std::vector<double>& imbalances,
                    const ExecutionPolicy& execution = {});

/// Fig. 7: per-application power distributions (PARSEC campaign).
std::vector<power::ApplicationPowerSummary> run_fig7(const StudyContext& ctx,
                                                     std::size_t samples,
                                                     std::uint64_t seed);

/// Fig. 8: system power efficiency vs imbalance.
struct Fig8Row {
  double imbalance = 0.0;
  std::vector<std::optional<double>> vs_efficiency;  // per converter count
  double regular_sc = 0.0;  // converters provide all power
};
struct Fig8Result {
  std::vector<std::size_t> converter_counts;
  std::vector<Fig8Row> rows;
};
Fig8Result run_fig8(const StudyContext& ctx, std::size_t layers,
                    const std::vector<std::size_t>& converter_counts,
                    const std::vector<double>& imbalances,
                    const ExecutionPolicy& execution = {});

/// Shared configuration for a SweepRunner; mirrors the ctx+config shape of
/// CampaignRunner / ContingencyEngine.
struct SweepOptions {
  /// Scheduling for every figure driver (see the drivers above for the
  /// determinism guarantee).
  ExecutionPolicy execution;

  /// Layer axis for the Fig. 5 lifetime plots.
  std::vector<std::size_t> layer_counts{2, 4, 6, 8};

  /// Stack height and converter axis for the Fig. 6/8 noise + efficiency
  /// maps.
  std::size_t layers = 8;
  std::vector<std::size_t> converter_counts{2, 4, 6, 8};

  /// Fig. 7 sampling seed (the sample count is the paper's
  /// power::kPaperSampleCount).
  std::uint64_t fig7_seed = 2015;
};

/// Facade over the figure drivers: bind the study context and execution
/// policy once, then call each figure without re-plumbing either.  The
/// context must outlive the runner (same borrowing rule as
/// CampaignRunner).
class SweepRunner {
 public:
  explicit SweepRunner(const StudyContext& ctx, SweepOptions options = {});

  const SweepOptions& options() const { return options_; }

  std::vector<Fig5aRow> fig5a() const;
  std::vector<Fig5bRow> fig5b() const;
  Fig6Result fig6(const std::vector<double>& imbalances) const;
  std::vector<power::ApplicationPowerSummary> fig7() const;
  Fig8Result fig8(const std::vector<double>& imbalances) const;

 private:
  const StudyContext& ctx_;
  SweepOptions options_;
};

}  // namespace vstack::core
