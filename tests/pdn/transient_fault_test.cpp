// Mid-run fault events in the PDN transient engine (pdn::TimedFaultEvent):
// scheduling semantics in fixed and adaptive mode, load surges, validation,
// and the epoch-keyed factorization cache that makes post-fault solves safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "floorplan/floorplan.h"
#include "pdn/transient.h"
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

bool trail_contains(const sim::TransientReport& report,
                    const std::string& needle) {
  for (const auto& ev : report.events) {
    if (ev.what.find(needle) != std::string::npos) return true;
  }
  return false;
}

double max_noise_after(const PdnTransientResult& r, double t) {
  double worst = 0.0;
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    if (r.time[k] >= t) worst = std::max(worst, r.worst_noise[k]);
  }
  return worst;
}

TEST(PdnFaultEventTest, FaultAppliesAtScheduledTimeOnTheFixedGrid) {
  // Fresh models per run: PdnModel::solve warm-starts its CG from the last
  // solution, so sharing one model would skew the two DC initial conditions
  // against each other at the iterative tolerance level.
  PdnModel healthy_model(small_stack(2), paper_fp());
  PdnModel faulted_model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  const auto healthy = simulate_load_step(healthy_model, cpm(), acts, acts,
                                          fast_options());
  ASSERT_TRUE(healthy.ok());

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = 40e-9;
  ev.faults = kill_level_converters(faulted_model, 1, 4);
  ev.label = "conv-kill";
  o.fault_events.push_back(ev);

  const auto r = simulate_load_step(faulted_model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;
  ASSERT_EQ(r.time.size(), healthy.time.size());

  // Before the strike the faulted run retraces the healthy waveform
  // (startup ringing and all) on the identical fixed grid.
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    if (r.time[k] >= 40e-9) break;
    EXPECT_DOUBLE_EQ(r.worst_noise[k], healthy.worst_noise[k])
        << "pre-fault sample at t=" << r.time[k];
  }
  // After it, losing most of the level-1 converters under imbalance droops
  // the intermediate rail well past anything the healthy run shows.
  EXPECT_GT(max_noise_after(r, 40e-9),
            max_noise_after(healthy, 0.0) + 0.02);
  EXPECT_TRUE(trail_contains(r.report, "fault event 'conv-kill' applied"));
}

TEST(PdnFaultEventTest, FaultAtTimeZeroStartsFromTheHealthyOperatingPoint) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  const auto healthy = simulate_load_step(model, cpm(), acts, acts,
                                          fast_options());
  ASSERT_TRUE(healthy.ok());

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = 0.0;
  ev.faults = kill_level_converters(model, 1, 4);
  ev.label = "at-zero";
  o.fault_events.push_back(ev);
  const auto r = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;

  // The initial condition is the HEALTHY DC point -- the fault only shapes
  // the waveform from t = 0+ onward.  (Loose tolerance: the shared model's
  // warm-started CG makes repeat DC solves agree only to the iterative
  // tolerance, far below the ~0.1 fault droop this test watches for.)
  EXPECT_NEAR(r.initial_noise, healthy.initial_noise, 1e-5);
  EXPECT_GT(r.final_noise, r.initial_noise + 0.02);
  EXPECT_TRUE(trail_contains(r.report, "'at-zero' applied"));
}

TEST(PdnFaultEventTest, AdaptiveSnapsAStepBoundaryOntoTheFaultInstant) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();
  o.adaptive = true;
  TimedFaultEvent ev;
  // Deliberately off any uniform grid a sane controller would pick.
  ev.time = 13.7e-9;
  ev.faults = kill_level_converters(model, 1, 4);
  ev.label = "off-grid";
  o.fault_events.push_back(ev);
  const auto r = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;

  double closest = std::numeric_limits<double>::infinity();
  for (double t : r.time) closest = std::min(closest, std::abs(t - ev.time));
  EXPECT_LT(closest, 1e-13) << "no accepted step boundary on the fault";
  EXPECT_GT(max_noise_after(r, ev.time), r.initial_noise + 0.02);
  EXPECT_TRUE(trail_contains(r.report, "'off-grid' applied"));
}

TEST(PdnFaultEventTest, TwoFaultsInsideOneFixedStepBothApply) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();  // 1 ns grid
  TimedFaultEvent first;
  first.time = 40.2e-9;  // both inside the (40 ns, 41 ns] interval
  first.faults = kill_level_converters(model, 1, 16);
  first.label = "first-hit";
  TimedFaultEvent second;
  second.time = 40.7e-9;
  second.faults = kill_level_converters(model, 1, 4);
  second.label = "second-hit";
  o.fault_events.push_back(first);
  o.fault_events.push_back(second);

  const auto r = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;
  EXPECT_TRUE(trail_contains(r.report, "'first-hit' applied"));
  EXPECT_TRUE(trail_contains(r.report, "'second-hit' applied"));
  EXPECT_GT(max_noise_after(r, 41e-9), r.initial_noise + 0.02);
}

TEST(PdnFaultEventTest, AdaptiveAndFixedAgreeOnTheFaultedEndpoint) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();
  o.duration = 200e-9;
  TimedFaultEvent ev;
  ev.time = 50e-9;
  ev.faults = kill_level_converters(model, 1, 8);
  o.fault_events.push_back(ev);

  const auto fixed = simulate_load_step(model, cpm(), acts, acts, o);
  o.adaptive = true;
  const auto adaptive = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(fixed.ok()) << fixed.report.diagnostic;
  ASSERT_TRUE(adaptive.ok()) << adaptive.report.diagnostic;

  // Same physics, different grids: the settled post-fault levels must agree.
  EXPECT_NEAR(adaptive.final_noise, fixed.final_noise,
              0.05 * fixed.final_noise + 0.002);
}

TEST(PdnFaultEventTest, LoadSurgeEventReplacesTheActivities) {
  PdnModel model(small_stack(2), paper_fp());
  const std::vector<double> light(2, 0.2);

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = 30e-9;
  ev.activities = {1.0, 1.0};  // pure load surge: no topology change
  ev.label = "surge";
  o.fault_events.push_back(ev);

  const auto r = simulate_load_step(model, cpm(), light, light, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;
  EXPECT_GT(max_noise_after(r, 32e-9), r.initial_noise);
  EXPECT_GT(r.supply_current.back(), r.supply_current.front());
  EXPECT_TRUE(trail_contains(r.report, "load surge 'surge' applied"));
}

TEST(PdnFaultEventTest, ValidationRejectsBadEventTimes) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = o.duration;  // at/after the end: nothing left to observe
  o.fault_events.push_back(ev);
  EXPECT_THROW(simulate_load_step(model, cpm(), acts, acts, o), Error);

  o.fault_events[0].time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(simulate_load_step(model, cpm(), acts, acts, o), Error);

  o.fault_events[0].time = 20e-9;
  o.fault_events[0].activities = {1.0};  // wrong layer count
  EXPECT_THROW(simulate_load_step(model, cpm(), acts, acts, o), Error);
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
