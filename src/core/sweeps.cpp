#include "core/sweeps.h"

#include "common/error.h"
#include "common/rng.h"
#include "telemetry/telemetry.h"

namespace vstack::core {

namespace {

std::vector<double> full_activity(std::size_t layers) {
  return std::vector<double>(layers, 1.0);
}

/// The 2-layer V-S design both Fig. 5 plots normalize to.
ScenarioResult vs_baseline(const StudyContext& ctx) {
  const auto cfg = make_stacked(ctx, 2, ctx.base.tsv,
                                ctx.base.converters_per_core);
  return evaluate_scenario(ctx, cfg, full_activity(2));
}

}  // namespace

std::vector<Fig5aRow> run_fig5a(const StudyContext& ctx,
                                const std::vector<std::size_t>& layer_counts,
                                const ExecutionPolicy& execution) {
  VS_SPAN("core.sweep.fig5a");
  const ScenarioResult baseline = vs_baseline(ctx);
  VS_REQUIRE(baseline.tsv_mttf > 0.0, "baseline TSV MTTF must be positive");

  // One row per layer count, each evaluating four independent scenarios on
  // its own models: rows fan out on the pool and land in sweep order.
  std::vector<Fig5aRow> rows(layer_counts.size());
  const TaskPool pool(execution);
  pool.run_ordered(
      layer_counts.size(),
      [&](std::size_t r) {
        const std::size_t layers = layer_counts[r];
        Fig5aRow row;
        row.layers = layers;
        const auto acts = full_activity(layers);
        row.reg_dense =
            evaluate_scenario(
                ctx, make_regular(ctx, layers, pdn::TsvConfig::dense(),
                                  ctx.base.power_c4_fraction),
                acts)
                .tsv_mttf /
            baseline.tsv_mttf;
        row.reg_sparse =
            evaluate_scenario(ctx,
                              make_regular(ctx, layers,
                                           pdn::TsvConfig::sparse(),
                                           ctx.base.power_c4_fraction),
                              acts)
                .tsv_mttf /
            baseline.tsv_mttf;
        row.reg_few = evaluate_scenario(
                          ctx, make_regular(ctx, layers, pdn::TsvConfig::few(),
                                            ctx.base.power_c4_fraction),
                          acts)
                          .tsv_mttf /
                      baseline.tsv_mttf;
        row.vs_few = evaluate_scenario(
                         ctx, make_stacked(ctx, layers, pdn::TsvConfig::few(),
                                           ctx.base.converters_per_core),
                         acts)
                         .tsv_mttf /
                     baseline.tsv_mttf;
        rows[r] = row;
      },
      [](std::size_t) {});
  return rows;
}

std::vector<Fig5bRow> run_fig5b(const StudyContext& ctx,
                                const std::vector<std::size_t>& layer_counts,
                                const ExecutionPolicy& execution) {
  VS_SPAN("core.sweep.fig5b");
  const ScenarioResult baseline = vs_baseline(ctx);
  VS_REQUIRE(baseline.c4_mttf > 0.0, "baseline C4 MTTF must be positive");

  std::vector<Fig5bRow> rows(layer_counts.size());
  const TaskPool pool(execution);
  pool.run_ordered(
      layer_counts.size(),
      [&](std::size_t r) {
        const std::size_t layers = layer_counts[r];
        Fig5bRow row;
        row.layers = layers;
        const auto acts = full_activity(layers);
        const auto reg_at = [&](double fraction) {
          return evaluate_scenario(
                     ctx, make_regular(ctx, layers, ctx.base.tsv, fraction),
                     acts)
                     .c4_mttf /
                 baseline.c4_mttf;
        };
        row.reg_25 = reg_at(0.25);
        row.reg_50 = reg_at(0.50);
        row.reg_75 = reg_at(0.75);
        row.reg_100 = reg_at(1.00);
        row.vs = evaluate_scenario(ctx,
                                   make_stacked(ctx, layers, ctx.base.tsv,
                                                ctx.base.converters_per_core),
                                   acts)
                     .c4_mttf /
                 baseline.c4_mttf;
        rows[r] = row;
      },
      [](std::size_t) {});
  return rows;
}

Fig6Result run_fig6(const StudyContext& ctx, std::size_t layers,
                    const std::vector<std::size_t>& converter_counts,
                    const std::vector<double>& imbalances,
                    const ExecutionPolicy& execution) {
  VS_SPAN("core.sweep.fig6");
  Fig6Result result;
  result.converter_counts = converter_counts;

  // Regular-PDN references: worst case is all layers fully active, so the
  // imbalance assumption does not affect these lines (paper Fig. 6 caption).
  const auto acts_full = full_activity(layers);
  const auto reg_noise = [&](const pdn::TsvConfig& tsv) {
    return evaluate_scenario(
               ctx,
               make_regular(ctx, layers, tsv, ctx.base.power_c4_fraction),
               acts_full)
        .solution.max_node_deviation_fraction;
  };
  result.reg_dense = reg_noise(pdn::TsvConfig::dense());
  result.reg_sparse = reg_noise(pdn::TsvConfig::sparse());
  result.reg_few = reg_noise(pdn::TsvConfig::few());

  // One PdnModel per (imbalance, converter count) point, each owned by the
  // row that builds it; rows fan out on the pool.
  result.rows.resize(imbalances.size());
  const TaskPool pool(execution);
  pool.run_ordered(
      imbalances.size(),
      [&](std::size_t r) {
        Fig6Row row;
        row.imbalance = imbalances[r];
        for (const std::size_t conv : converter_counts) {
          const auto cfg = make_stacked(ctx, layers, ctx.base.tsv, conv);
          pdn::PdnModel model(cfg, ctx.layer_floorplan);
          const auto sol = model.solve_activities(
              ctx.core_model,
              power::interleaved_layer_activities(layers, imbalances[r]));
          if (sol.converter_limit_ok) {
            row.vs_noise.emplace_back(sol.max_node_deviation_fraction);
          } else {
            row.vs_noise.emplace_back(std::nullopt);  // paper skips these
          }
        }
        result.rows[r] = std::move(row);
      },
      [](std::size_t) {});
  return result;
}

std::vector<power::ApplicationPowerSummary> run_fig7(const StudyContext& ctx,
                                                     std::size_t samples,
                                                     std::uint64_t seed) {
  VS_SPAN("core.sweep.fig7");
  // One shared Rng drives the whole campaign: inherently serial.
  Rng rng(seed);
  return power::run_sampling_campaign(ctx.core_model, samples, rng);
}

Fig8Result run_fig8(const StudyContext& ctx, std::size_t layers,
                    const std::vector<std::size_t>& converter_counts,
                    const std::vector<double>& imbalances,
                    const ExecutionPolicy& execution) {
  VS_SPAN("core.sweep.fig8");
  Fig8Result result;
  result.converter_counts = converter_counts;
  result.rows.resize(imbalances.size());
  const TaskPool pool(execution);
  pool.run_ordered(
      imbalances.size(),
      [&](std::size_t r) {
        const double imbalance = imbalances[r];
        Fig8Row row;
        row.imbalance = imbalance;
        for (const std::size_t conv : converter_counts) {
          const auto eff = stacked_efficiency(ctx, layers, conv, imbalance);
          if (eff.feasible) {
            row.vs_efficiency.emplace_back(eff.efficiency);
          } else {
            row.vs_efficiency.emplace_back(std::nullopt);
          }
        }
        // Baseline sized to keep every converter within its limit.
        row.regular_sc =
            regular_sc_efficiency(ctx, layers, 8, imbalance).efficiency;
        result.rows[r] = std::move(row);
      },
      [](std::size_t) {});
  return result;
}

SweepRunner::SweepRunner(const StudyContext& ctx, SweepOptions options)
    : ctx_(ctx), options_(std::move(options)) {
  options_.execution.validate();
  VS_REQUIRE(!options_.layer_counts.empty(),
             "SweepOptions.layer_counts must not be empty");
  VS_REQUIRE(!options_.converter_counts.empty(),
             "SweepOptions.converter_counts must not be empty");
}

std::vector<Fig5aRow> SweepRunner::fig5a() const {
  return run_fig5a(ctx_, options_.layer_counts, options_.execution);
}

std::vector<Fig5bRow> SweepRunner::fig5b() const {
  return run_fig5b(ctx_, options_.layer_counts, options_.execution);
}

Fig6Result SweepRunner::fig6(const std::vector<double>& imbalances) const {
  return run_fig6(ctx_, options_.layers, options_.converter_counts,
                  imbalances, options_.execution);
}

std::vector<power::ApplicationPowerSummary> SweepRunner::fig7() const {
  return run_fig7(ctx_, power::kPaperSampleCount, options_.fig7_seed);
}

Fig8Result SweepRunner::fig8(const std::vector<double>& imbalances) const {
  return run_fig8(ctx_, options_.layers, options_.converter_counts,
                  imbalances, options_.execution);
}

}  // namespace vstack::core
