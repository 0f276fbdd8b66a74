// Live fault ride-through (pdn::simulate_ride_through): the supervisor in
// the loop of a transient run with mid-run converter faults -- detection
// timing, the escalation ladder's effect on the rails, and outcome
// classification.
#include "pdn/ride_through.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "floorplan/floorplan.h"
#include "power/workload.h"
#include "telemetry/telemetry.h"

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

StackupConfig stacked(std::size_t layers) {
  StackupConfig cfg;
  cfg.topology = PdnTopology::VoltageStacked;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = 8;
  return cfg;
}

/// Imbalanced activities: the stress case where intermediate rails lean on
/// the converters, so losing converter phases actually droops a rail.
std::vector<double> imbalanced(std::size_t layers) {
  std::vector<double> a(layers, 1.0);
  for (std::size_t i = 1; i < layers; i += 2) a[i] = 0.2;
  return a;
}

FaultSet kill_level_converters(const PdnModel& model, std::size_t level,
                               std::size_t keep) {
  FaultSet fs;
  stick_off_converter_bank(fs, model.network(), level, keep);
  return fs;
}

/// Fast policy tuned the same way as the CLI demo: recovery_fraction 0.08
/// because spreading resistance through the grid limits how far boosting
/// the surviving phases can pull the rail back (see docs/fault_model.md).
RideThroughOptions fast_options(double fault_time, double duration) {
  RideThroughOptions o;
  o.transient.time_step = 2e-9;
  o.transient.duration = duration;
  o.supervisor.trip_fraction = 0.10;
  o.supervisor.recovery_fraction = 0.08;
  o.supervisor.sense_interval = 5e-9;
  o.supervisor.detection_latency = 20e-9;
  o.supervisor.action_dwell = 60e-9;
  o.supervisor.watchdog_timeout = 300e-9;
  (void)fault_time;
  return o;
}

RideThroughOptions with_fault(const PdnModel& model, std::size_t level,
                              std::size_t keep, double fault_time,
                              double duration) {
  RideThroughOptions o = fast_options(fault_time, duration);
  TimedFaultEvent ev;
  ev.time = fault_time;
  ev.faults = kill_level_converters(model, level, keep);
  ev.label = "conv-kill";
  o.fault_events.push_back(ev);
  return o;
}

#if VSTACK_TELEMETRY_ENABLED
TEST(RideThroughTest, SolverBindsScaleWithTopologyRebuildsNotSteps) {
  // Regression guard for step-matrix churn.  Adaptive stepping proposes a
  // fresh dt nearly every step, so the step cache misses on most steps; a
  // miss must refill and refresh an existing slot, not bind a new
  // la::Solver.  Binds therefore track topology rebuilds (a few slots per
  // epoch, plus the DC operating point), never the accepted steps.
  PdnModel model(stacked(4), paper_fp());
  auto o = with_fault(model, 1, 32, 100e-9, 400e-9);
  o.transient.direct_solver_node_limit = 0;  // force the iterative rung

  const auto before = telemetry::snapshot();
  const auto r = simulate_ride_through(model, cpm(), imbalanced(4), o);
  const auto after = telemetry::snapshot();
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  const double binds = delta("la.solver.binds");
  const double rebuilds = delta("pdn.topology.rebuilds");
  const double misses = delta("pdn.step_solver.cache.misses");
  const double accepted = delta("sim.transient.accepted_steps");
  ASSERT_GE(rebuilds, 2.0);  // construction + the fault
  EXPECT_GT(misses, 50.0);
  EXPECT_GT(accepted, 50.0);
  EXPECT_LE(binds, 4.0 * rebuilds);
  // Every miss past the first fill of the slots is a refresh.
  EXPECT_GE(delta("la.solver.refreshes"), misses - binds);
}
#endif

TEST(RideThroughTest, HealthyRunNeverTrips) {
  PdnModel model(stacked(4), paper_fp());
  const auto o = fast_options(0.0, 300e-9);
  const auto r = simulate_ride_through(model, cpm(), imbalanced(4), o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;
  EXPECT_EQ(r.report.outcome, RideThroughOutcome::Recovered);
  EXPECT_LT(r.report.detected_at, 0.0);
  EXPECT_TRUE(r.report.actions.empty());
  EXPECT_TRUE(r.report.shutdown_layers.empty());
  EXPECT_LT(r.report.worst_droop, o.supervisor.trip_fraction);
}

TEST(RideThroughTest, SupervisorDetectsWithinTheLatencyWindow) {
  PdnModel model(stacked(4), paper_fp());
  const double fault_time = 100e-9;
  const auto o = with_fault(model, 1, 32, fault_time, 600e-9);
  const auto r = simulate_ride_through(model, cpm(), imbalanced(4), o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;

  // Detection cannot precede the strike + latency, and must land within a
  // few sensing ticks after the latency has elapsed.
  ASSERT_GT(r.report.detected_at, 0.0);
  EXPECT_GE(r.report.detected_at,
            fault_time + o.supervisor.detection_latency - 1e-12);
  EXPECT_LE(r.report.detected_at, fault_time +
                                      o.supervisor.detection_latency +
                                      4.0 * o.supervisor.sense_interval +
                                      1e-12);
  EXPECT_GT(r.report.worst_droop, o.supervisor.trip_fraction);
  ASSERT_FALSE(r.report.actions.empty());
  EXPECT_EQ(r.report.actions.front().kind,
            sc::SupervisorActionKind::PhaseRebalance);
}

TEST(RideThroughTest, MitigationLadderRecoversASurvivableFault) {
  PdnModel model(stacked(4), paper_fp());
  const auto o = with_fault(model, 1, 32, 100e-9, 600e-9);
  const auto r = simulate_ride_through(model, cpm(), imbalanced(4), o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;

  EXPECT_EQ(r.report.outcome, RideThroughOutcome::Recovered);
  EXPECT_GT(r.report.recovered_at, r.report.detected_at);
  EXPECT_TRUE(r.report.shutdown_layers.empty());
  // Mitigation visibly pulled the rail back from the worst excursion.
  EXPECT_LT(r.report.final_droop, r.report.worst_droop);
  EXPECT_LE(r.report.final_droop, o.supervisor.recovery_fraction);
}

TEST(RideThroughTest, UnsurvivableFaultEscalatesToLayerShutdown) {
  PdnModel model(stacked(4), paper_fp());
  // Keep only 2 of the level-1 phases: no amount of rebalancing or
  // frequency boosting can carry the imbalance current through 2 sites.
  const auto o = with_fault(model, 1, 2, 100e-9, 900e-9);
  const auto r = simulate_ride_through(model, cpm(), imbalanced(4), o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;

  EXPECT_EQ(r.report.outcome, RideThroughOutcome::Lost);
  EXPECT_FALSE(r.report.shutdown_layers.empty());
  // The ladder ran in order before giving up.
  ASSERT_GE(r.report.actions.size(), 2u);
  EXPECT_EQ(r.report.actions.front().kind,
            sc::SupervisorActionKind::PhaseRebalance);
  EXPECT_EQ(r.report.actions.back().kind,
            sc::SupervisorActionKind::LayerShutdown);
}

TEST(RideThroughTest, ValidationRejectsBrokenPolicies) {
  PdnModel model(stacked(2), paper_fp());
  RideThroughOptions o = fast_options(0.0, 300e-9);
  o.supervisor.recovery_fraction = o.supervisor.trip_fraction;
  EXPECT_THROW(simulate_ride_through(model, cpm(), imbalanced(2), o), Error);

  o = fast_options(0.0, 300e-9);
  o.bypass_resistance = 0.0;
  EXPECT_THROW(simulate_ride_through(model, cpm(), imbalanced(2), o), Error);

  o = fast_options(0.0, 300e-9);
  o.max_rebalance_boost = 0.5;  // would WEAKEN surviving phases
  EXPECT_THROW(simulate_ride_through(model, cpm(), imbalanced(2), o), Error);
}

TEST(RideThroughTest, StepCountsArePinned) {
  // Bitwise fingerprint of the adaptive ride-through path on a run whose
  // supervisor escalates through the whole ladder (rebalance, retarget,
  // bypass, shutdown): every topology rebuild and BE restart is on it.
  // Recorded on x86-64 (SSE2 double arithmetic, no FMA contraction); a
  // change that is meant to move results must re-record them and say so.
  PdnModel model(stacked(4), paper_fp());
  const auto o = with_fault(model, 1, 2, 100e-9, 900e-9);
  const auto r = simulate_ride_through(model, cpm(), imbalanced(4), o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;
  ASSERT_EQ(r.report.actions.back().kind,
            sc::SupervisorActionKind::LayerShutdown);
  EXPECT_EQ(r.report.transient.accepted_steps, 2167u);
  EXPECT_EQ(r.report.transient.rejected_steps, 28u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.report.worst_droop),
            0x3fe1748bb45d5232u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.report.final_droop),
            0x3fb3245d11e31850u);
}

}  // namespace
}  // namespace vstack::pdn
