// Mid-run fault events (pdn::TimedFaultEvent) in the ride-through engine:
// scheduling semantics, load surges, validation, and the epoch-keyed
// factorization cache that makes post-fault solves safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "floorplan/floorplan.h"
#include "pdn/ride_through.h"
#include "pdn/transient_core.h"
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

StackupConfig small_stack(std::size_t layers) {
  StackupConfig cfg;
  cfg.topology = PdnTopology::VoltageStacked;
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

/// Imbalanced per-layer activities (the stress case for stacking): odd
/// layers draw a fraction of the even layers' load, so the intermediate
/// rails lean on the converters.
std::vector<double> imbalanced(std::size_t layers) {
  std::vector<double> a(layers, 1.0);
  for (std::size_t i = 1; i < layers; i += 2) a[i] = 0.2;
  return a;
}

/// Stuck-off fault for every converter at `level` except the first `keep`.
FaultSet kill_level_converters(const PdnModel& model, std::size_t level,
                               std::size_t keep) {
  FaultSet fs;
  stick_off_converter_bank(fs, model.network(), level, keep);
  return fs;
}

/// Ride-through options over fast_options() whose supervisor watches but
/// never acts inside the run (its detection latency outlasts it), so the
/// waveform shows the injected events alone.
RideThroughOptions passive_options() {
  RideThroughOptions o;
  o.transient = fast_options();
  o.supervisor.detection_latency = 1e-6;
  o.supervisor.watchdog_timeout = 2e-6;
  return o;
}

bool trail_contains(const sim::TransientReport& report,
                    const std::string& needle) {
  for (const auto& ev : report.events) {
    if (ev.what.find(needle) != std::string::npos) return true;
  }
  return false;
}

double max_noise_after(const RideThroughResult& r, double t) {
  double worst = 0.0;
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    if (r.time[k] >= t) worst = std::max(worst, r.worst_noise[k]);
  }
  return worst;
}

TEST(PdnFaultEventTest, FaultAtTimeZeroStartsFromTheHealthyOperatingPoint) {
  // Fresh models per solve: PdnModel::solve warm-starts its CG from the
  // last solution, so sharing one model would skew the DC points against
  // each other at the iterative tolerance level.
  PdnModel healthy_model(small_stack(2), paper_fp());
  PdnModel faulted_model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);
  const double healthy_dc_noise =
      healthy_model.solve(healthy_model.network().build_loads(cpm(), acts))
          .max_node_deviation_fraction;

  RideThroughOptions o = passive_options();
  TimedFaultEvent ev;
  ev.time = 0.0;
  ev.faults = kill_level_converters(faulted_model, 1, 4);
  ev.label = "at-zero";
  o.fault_events.push_back(ev);
  const auto r = simulate_ride_through(faulted_model, cpm(), acts, o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;
  ASSERT_FALSE(r.report.transient.events.empty());
  EXPECT_EQ(r.report.transient.events.front().time, 0.0);
  EXPECT_TRUE(trail_contains(r.report.transient, "'at-zero' applied"));

  // The initial condition is the HEALTHY DC point -- the fault only shapes
  // the waveform from t = 0+ onward: the first (restart-sized) step stays
  // near the healthy level, far from the ~0.6 droop the faulted rail
  // settles to.
  ASSERT_FALSE(r.time.empty());
  EXPECT_NEAR(r.worst_noise.front(), healthy_dc_noise, 0.02);
  EXPECT_GT(r.worst_noise.back(), healthy_dc_noise + 0.2);
}

TEST(PdnFaultEventTest, AdaptiveSnapsAStepBoundaryOntoTheFaultInstant) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  // Deliberately off any uniform grid a sane controller would pick, and
  // both inside one 1 ns maximum step.
  RideThroughOptions o = passive_options();
  TimedFaultEvent first;
  first.time = 13.7e-9;
  first.faults = kill_level_converters(model, 1, 16);
  first.label = "first-hit";
  TimedFaultEvent second;
  second.time = 14.2e-9;
  second.faults = kill_level_converters(model, 1, 4);
  second.label = "second-hit";
  o.fault_events = {first, second};
  const auto r = simulate_ride_through(model, cpm(), acts, o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;

  for (const auto& ev : o.fault_events) {
    double closest = std::numeric_limits<double>::infinity();
    for (double t : r.time) closest = std::min(closest, std::abs(t - ev.time));
    EXPECT_LT(closest, 1e-13) << "no accepted step boundary on " << ev.label;
  }
  EXPECT_TRUE(trail_contains(r.report.transient, "'first-hit' applied"));
  EXPECT_TRUE(trail_contains(r.report.transient, "'second-hit' applied"));
  EXPECT_GT(max_noise_after(r, second.time), r.worst_noise.front() + 0.02);
}

TEST(PdnFaultEventTest, LoadSurgeEventReplacesTheActivities) {
  PdnModel model(small_stack(2), paper_fp());
  const std::vector<double> light(2, 0.2);

  RideThroughOptions o = passive_options();
  TimedFaultEvent ev;
  ev.time = 30e-9;
  ev.activities = {1.0, 1.0};  // pure load surge: no topology change
  ev.label = "surge";
  o.fault_events.push_back(ev);

  const auto r = simulate_ride_through(model, cpm(), light, o);
  ASSERT_TRUE(r.report.ok()) << r.report.transient.diagnostic;
  EXPECT_GT(max_noise_after(r, 32e-9), r.worst_noise.front());
  EXPECT_GT(r.supply_current.back(), r.supply_current.front());
  EXPECT_TRUE(trail_contains(r.report.transient, "load surge 'surge' applied"));
  EXPECT_FALSE(trail_contains(r.report.transient, "fault event"));
}

TEST(PdnFaultEventTest, ValidationRejectsBadEventTimes) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  RideThroughOptions o = passive_options();
  TimedFaultEvent ev;
  ev.time = o.transient.duration;  // at/after the end: nothing to observe
  o.fault_events.push_back(ev);
  EXPECT_THROW(o.validate(), Error);
  EXPECT_THROW(simulate_ride_through(model, cpm(), acts, o), Error);

  o.fault_events[0].time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(o.validate(), Error);

  o.fault_events[0].time = 20e-9;
  EXPECT_NO_THROW(o.validate());
  o.fault_events[0].activities = {1.0};  // wrong layer count
  EXPECT_THROW(simulate_ride_through(model, cpm(), acts, o), Error);
}

TEST(PdnFaultEventTest, StepSolverCacheIsInvalidatedByTheTopologyEpoch) {
  // Regression for the epoch-keyed factorization cache: solving, mutating
  // the topology, then solving again at the SAME (dt, scheme) must use the
  // post-fault matrix -- bit-identical to a fresh solver built after the
  // mutation, and different from the pre-fault solution.
  PdnModel model(small_stack(2), paper_fp());
  PdnNetwork net = model.network();
  PdnTransientOptions o = fast_options();

  detail::TransientWorkspace ws(net, o);
  detail::StepSolver solver(ws.system(), o);
  const std::size_t n = ws.n();
  const la::Vector rhs(n, 1e-3);
  sim::TransientReport report;
  std::string diag;

  la::Vector before(n, 0.0);
  ASSERT_TRUE(solver.solve(1e-9, true, rhs, before, 0.0, report, diag))
      << diag;

  kill_level_converters(model, 1, 4).apply_to(net);
  ws.rebuild_topology();

  la::Vector after(n, 0.0);
  ASSERT_TRUE(solver.solve(1e-9, true, rhs, after, 1e-9, report, diag))
      << diag;

  // A solver with no pre-fault history must produce the identical solution.
  detail::StepSolver fresh(ws.system(), o);
  la::Vector reference(n, 0.0);
  ASSERT_TRUE(fresh.solve(1e-9, true, rhs, reference, 1e-9, report, diag))
      << diag;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(after[i], reference[i]) << "entry " << i;
  }

  // And the mutation must actually have changed the answer (a stale cached
  // factorization would have reproduced `before`).
  double delta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    delta = std::max(delta, std::abs(after[i] - before[i]));
  }
  EXPECT_GT(delta, 1e-12);
}

TEST(PdnFaultEventTest, RecycledStepSlotsMatchAFreshSolverPerStep) {
  // The step cache recycles its slots in place (value refill + solver
  // refresh) instead of rebuilding them.  Stepping one StepSolver through
  // many distinct dt values, both schemes, repeats (cache hits) and a
  // fault rebuild must reproduce, bit for bit, a fresh StepSolver per step.
  PdnModel model(small_stack(2), paper_fp());
  PdnNetwork net = model.network();
  PdnTransientOptions o = fast_options();
  o.direct_solver_node_limit = 0;  // force the iterative rung

  detail::TransientWorkspace ws(net, o);
  detail::StepSolver cached(ws.system(), o);
  const std::size_t n = ws.n();
  la::Vector rhs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = 1e-3 * double(1 + i % 5);
  sim::TransientReport report;
  std::string diag;

  la::Vector x_cached(n, 0.0);
  la::Vector x_fresh(n, 0.0);
  std::size_t distinct = 0;
  for (std::size_t k = 0; k < 30; ++k) {
    if (k == 17) {
      kill_level_converters(model, 1, 4).apply_to(net);
      ws.rebuild_topology();
    }
    // Mostly new dt values; every fifth step repeats the previous one.
    const bool repeat = k % 5 == 4;
    if (!repeat) ++distinct;
    const std::size_t key = repeat ? k - 1 : k;
    const double h = 1e-10 * (1.0 + 0.37 * double(key));
    const bool be = (key / 2) % 2 == 0;
    const double t = 1e-9 * double(k);
    ASSERT_TRUE(cached.solve(h, be, rhs, x_cached, t, report, diag)) << diag;
    detail::StepSolver fresh(ws.system(), o);
    ASSERT_TRUE(fresh.solve(h, be, rhs, x_fresh, t, report, diag)) << diag;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_cached[i], x_fresh[i]) << "step " << k << " entry " << i;
    }
  }
  EXPECT_GE(distinct, 20u);
}

}  // namespace
}  // namespace vstack::pdn
