#include "pdn/transient.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "floorplan/floorplan.h"
#include "power/workload.h"

namespace vstack::pdn {
namespace {

const floorplan::Floorplan& paper_fp() {
  static const floorplan::Floorplan fp = floorplan::paper_layer_floorplan();
  return fp;
}

const power::CorePowerModel& cpm() {
  static const power::CorePowerModel m =
      power::CorePowerModel::cortex_a9_like();
  return m;
}

StackupConfig small(PdnTopology topology, std::size_t layers) {
  StackupConfig cfg;
  cfg.topology = topology;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = 8;
  return cfg;
}

PdnTransientOptions fast_options() {
  PdnTransientOptions o;
  o.time_step = 1e-9;
  o.duration = 80e-9;
  o.step_time = 10e-9;
  return o;
}

TEST(PdnTransientTest, SteadyStateStaysSteady) {
  // No load change: the waveform must hold the DC level.
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  const std::vector<double> acts(2, 0.8);
  const auto r = simulate_load_step(model, cpm(), acts, acts, fast_options());
  EXPECT_NEAR(r.peak_noise, r.initial_noise, 0.002);
  EXPECT_NEAR(r.final_noise, r.initial_noise, 0.002);
}

TEST(PdnTransientTest, LoadStepCausesDroopOvershoot) {
  PdnModel model(small(PdnTopology::Regular3d, 4), paper_fp());
  const auto r = simulate_load_step(model, cpm(),
                                    std::vector<double>(4, 0.2),
                                    std::vector<double>(4, 1.0),
                                    fast_options());
  // Transient peak exceeds both the initial and settled DC noise.
  EXPECT_GT(r.peak_noise, r.initial_noise);
  EXPECT_GT(r.peak_noise, r.final_noise);
  // The peak happens shortly after the step fires.
  EXPECT_GT(r.peak_time, 10e-9);
  EXPECT_LT(r.peak_time, 60e-9);
}

TEST(PdnTransientTest, SettlesToPostStepDcLevel) {
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  PdnTransientOptions o = fast_options();
  // The package LC loop is lightly damped (only pad/grid resistance in the
  // path), so allow several ring-down time constants.
  o.time_step = 2e-9;
  o.duration = 1500e-9;
  const auto r = simulate_load_step(model, cpm(), {0.3, 0.3}, {1.0, 1.0}, o);
  const auto dc_after = model.solve_activities(cpm(), {1.0, 1.0});
  EXPECT_NEAR(r.final_noise, dc_after.max_node_deviation_fraction, 0.004);
}

TEST(PdnTransientTest, SupplyCurrentRampsToNewLevel) {
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  PdnTransientOptions o = fast_options();
  o.time_step = 2e-9;
  o.duration = 1500e-9;
  const auto r = simulate_load_step(model, cpm(), {0.3, 0.3}, {1.0, 1.0}, o);
  const auto dc_after = model.solve_activities(cpm(), {1.0, 1.0});
  EXPECT_NEAR(r.supply_current.back(), dc_after.supply_current,
              0.08 * dc_after.supply_current);
  EXPECT_GT(r.supply_current.back(), r.supply_current.front());
}

TEST(PdnTransientTest, StackedStepDroopSmallerThanRegular) {
  // The extension's headline: the stack draws ~N times less off-chip
  // current, so the same package inductance produces a smaller L*di/dt
  // excursion relative to the DC change.
  const std::size_t layers = 4;
  PdnModel reg(small(PdnTopology::Regular3d, layers), paper_fp());
  PdnModel vs(small(PdnTopology::VoltageStacked, layers), paper_fp());
  const std::vector<double> before(layers, 0.2), after(layers, 1.0);
  const auto r_reg = simulate_load_step(reg, cpm(), before, after,
                                        fast_options());
  const auto r_vs = simulate_load_step(vs, cpm(), before, after,
                                       fast_options());
  // Compare against the settled DC level from a separate static solve (the
  // waveform may still be ringing at the end of the short run).
  const double reg_dc =
      reg.solve_activities(cpm(), after).max_node_deviation_fraction;
  const double vs_dc =
      vs.solve_activities(cpm(), after).max_node_deviation_fraction;
  EXPECT_LT(r_vs.peak_noise - vs_dc, r_reg.peak_noise - reg_dc);
}

TEST(PdnTransientTest, MoreDecapLessDroop) {
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  PdnTransientOptions thin = fast_options();
  thin.decap_density = 0.005;
  PdnTransientOptions thick = fast_options();
  thick.decap_density = 0.05;
  const auto r_thin = simulate_load_step(model, cpm(), {0.2, 0.2},
                                         {1.0, 1.0}, thin);
  const auto r_thick = simulate_load_step(model, cpm(), {0.2, 0.2},
                                          {1.0, 1.0}, thick);
  EXPECT_LT(r_thick.peak_noise, r_thin.peak_noise);
}

TEST(PdnTransientTest, MoreInductanceMoreDroop) {
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  PdnTransientOptions small_l = fast_options();
  small_l.package_inductance = 10e-12;
  PdnTransientOptions big_l = fast_options();
  big_l.package_inductance = 200e-12;
  const auto r_small = simulate_load_step(model, cpm(), {0.2, 0.2},
                                          {1.0, 1.0}, small_l);
  const auto r_big = simulate_load_step(model, cpm(), {0.2, 0.2},
                                        {1.0, 1.0}, big_l);
  EXPECT_LT(r_small.peak_noise, r_big.peak_noise);
}

TEST(PdnTransientTest, OptionValidation) {
  PdnTransientOptions o;
  o.time_step = 0.0;
  EXPECT_THROW(o.validate(), Error);
  o = PdnTransientOptions{};
  o.step_time = o.duration + 1.0;
  EXPECT_THROW(o.validate(), Error);
  o = PdnTransientOptions{};
  o.decap_density = -1.0;
  EXPECT_THROW(o.validate(), Error);
}

TEST(PdnTransientTest, WaveformLengthsConsistent) {
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  const auto r = simulate_load_step(model, cpm(), {0.5, 0.5}, {1.0, 1.0},
                                    fast_options());
  EXPECT_EQ(r.time.size(), r.worst_noise.size());
  EXPECT_EQ(r.time.size(), r.supply_current.size());
  EXPECT_EQ(r.time.size(), 80u);
}

TEST(PdnTransientTest, FixedModeReportIsPopulated) {
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  const auto r = simulate_load_step(model, cpm(), {0.5, 0.5}, {1.0, 1.0},
                                    fast_options());
  ASSERT_TRUE(r.ok()) << r.report.summary();
  EXPECT_EQ(r.report.status, sim::TransientStatus::Completed);
  EXPECT_EQ(r.report.accepted_steps, 80u);
  EXPECT_DOUBLE_EQ(r.report.min_dt, 1e-9);
  EXPECT_DOUBLE_EQ(r.report.max_dt, 1e-9);
  EXPECT_NEAR(r.report.end_time, 80e-9, 1e-15);
}

TEST(PdnTransientTest, StepBudgetTruncatesButLabels) {
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  PdnTransientOptions o = fast_options();
  o.control.max_steps = 20;
  const auto r = simulate_load_step(model, cpm(), {0.2, 0.2}, {1.0, 1.0}, o);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.report.status, sim::TransientStatus::BudgetExhausted);
  EXPECT_FALSE(r.report.diagnostic.empty());
  ASSERT_FALSE(r.time.empty());
  EXPECT_LT(r.report.end_time, o.duration);
  for (const double v : r.worst_noise) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(PdnTransientTest, FixedModeHonorsAnExpiredDeadline) {
  // The fixed grid runs the same budget check as the adaptive controller,
  // so a deadline that has already fired truncates before the first step.
  PdnModel model(small(PdnTopology::Regular3d, 2), paper_fp());
  PdnTransientOptions o = fast_options();
  o.control.deadline = Deadline::after(0);
  const auto r = simulate_load_step(model, cpm(), {0.2, 0.2}, {1.0, 1.0}, o);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.report.status, sim::TransientStatus::BudgetExhausted);
  EXPECT_NE(r.report.diagnostic.find("deadline"), std::string::npos)
      << r.report.diagnostic;
  EXPECT_TRUE(r.time.empty());
  EXPECT_EQ(r.report.accepted_steps, 0u);
  EXPECT_EQ(r.report.min_dt, 0.0);
}

}  // namespace
}  // namespace vstack::pdn
