// Self-tests of the benchmark's own code: the netlist generator is a pure
// function of its seed, every oracle rejects a deliberately perturbed
// output, a forced solver failure shows up in the failure count, and the
// trace analysis computes self time the way the layer report claims.
//
//   python3 vbench/run.py --selftest
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "expected.h"
#include "gen_netlist.h"
#include "oracles.h"
#include "pgio/reader.h"
#include "probe.h"
#include "workloads.h"

namespace vbench {
namespace {

using namespace vstack;

GridGenOptions small_grid() {
  GridGenOptions o;
  o.fine = 24;
  o.coarse = 4;
  o.pad_pitch = 3;
  return o;
}

// --- generator ---------------------------------------------------------------

TEST(GenNetlist, SameSeedSameBytes) {
  EXPECT_EQ(generate_netlist(42, small_grid()).text,
            generate_netlist(42, small_grid()).text);
  EXPECT_EQ(generate_netlist(7).text, generate_netlist(7).text);
}

TEST(GenNetlist, OtherSeedOtherBytes) {
  EXPECT_NE(generate_netlist(42, small_grid()).text,
            generate_netlist(43, small_grid()).text);
}

TEST(GenNetlist, ParsesWithEveryRequiredFeature) {
  const GeneratedGrid g = generate_netlist(42);
  const pgio::PgNetlist n = pgio::read_netlist_text(g.text, "gen");
  EXPECT_GT(g.shorts, 0u);
  // GND pads are 0 V sources to ground, which the reader files as shorts;
  // the GND pad lattice has as many points as the VDD one.
  EXPECT_EQ(n.shorts.size(), g.shorts + n.pads.size());
  EXPECT_GT(g.caps, 0u);
  EXPECT_GT(n.pads.size(), 0u);
  EXPECT_NE(g.text.find("n3_"), std::string::npos);  // coarse VDD layer
  EXPECT_NE(g.text.find("n4_"), std::string::npos);  // coarse GND layer
  EXPECT_NE(g.text.find(".shorts"), std::string::npos);
}

// --- paper_sweeps oracles ------------------------------------------------------

std::vector<core::Fig5aRow> committed_fig5a() {
  return {std::begin(expected::kFig5a), std::end(expected::kFig5a)};
}

TEST(Oracles, Fig5aAcceptsCommittedRejectsPerturbed) {
  auto rows = committed_fig5a();
  EXPECT_TRUE(check_fig5a(rows).ok());
  rows[2].vs_few *= 1.0 + 1e-4;
  EXPECT_FALSE(check_fig5a(rows).ok());
  rows.pop_back();
  EXPECT_FALSE(check_fig5a(rows).ok());
}

TEST(Oracles, Fig5bRejectsPerturbed) {
  std::vector<core::Fig5bRow> rows(std::begin(expected::kFig5b),
                                   std::end(expected::kFig5b));
  EXPECT_TRUE(check_fig5b(rows).ok());
  rows[0].reg_75 *= 0.999;
  EXPECT_FALSE(check_fig5b(rows).ok());
}

core::Fig6Result committed_fig6() {
  core::Fig6Result r;
  r.converter_counts = {2, 4, 6, 8};
  r.reg_dense = expected::kFig6RegDense;
  r.reg_sparse = expected::kFig6RegSparse;
  r.reg_few = expected::kFig6RegFew;
  for (const auto& a : expected::kFig6Anchors) {
    core::Fig6Row row;
    row.imbalance = a.imbalance;
    for (const double v : a.vs_noise) {
      row.vs_noise.push_back(v < 0.0 ? std::nullopt : std::optional<double>(v));
    }
    r.rows.push_back(row);
  }
  return r;
}

TEST(Oracles, Fig6RejectsPerturbedAnchorAndBrokenTrend) {
  auto r = committed_fig6();
  EXPECT_TRUE(check_fig6(r).ok());
  auto moved = r;
  *moved.rows[1].vs_noise[2] *= 1.01;
  EXPECT_FALSE(check_fig6(moved).ok());
  auto feasible = r;
  feasible.rows[2].vs_noise[0] = 0.05;  // committed infeasible
  EXPECT_FALSE(check_fig6(feasible).ok());
  // A jittered row whose noise falls as imbalance grows.
  auto trend = r;
  core::Fig6Row mid = r.rows[1];
  mid.imbalance = 0.72;
  *mid.vs_noise[3] = 0.01;  // below the 50% row's 1.97%
  trend.rows.insert(trend.rows.begin() + 2, mid);
  EXPECT_FALSE(check_fig6(trend).ok());
}

TEST(Oracles, Fig8RejectsPerturbed) {
  core::Fig8Result r;
  r.converter_counts = {2, 4, 6, 8};
  for (const auto& a : expected::kFig8Anchors) {
    core::Fig8Row row;
    row.imbalance = a.imbalance;
    row.regular_sc = a.regular_sc;
    for (const double v : a.vs_efficiency) {
      row.vs_efficiency.push_back(v < 0.0 ? std::nullopt
                                          : std::optional<double>(v));
    }
    r.rows.push_back(row);
  }
  EXPECT_TRUE(check_fig8(r).ok());
  *r.rows[0].vs_efficiency[1] += 0.01;
  EXPECT_FALSE(check_fig8(r).ok());
}

TEST(Oracles, Fig7RejectsImplausibleImbalance) {
  std::vector<power::ApplicationPowerSummary> apps(expected::kFig7Apps);
  for (auto& a : apps) {
    a.name = "app";
    a.power.median = 0.3;
    a.max_imbalance = 0.65;
  }
  EXPECT_TRUE(check_fig7(apps).ok());
  for (auto& a : apps) a.max_imbalance = 0.3;
  EXPECT_FALSE(check_fig7(apps).ok());
}

TEST(Oracles, Fig6Fig8AxesKeepAnchorsAndFollowTheSeed) {
  const auto a = fig6_imbalances(1), b = fig6_imbalances(2);
  ASSERT_EQ(a.size(), 11u);
  EXPECT_EQ(a[0], 0.0);
  EXPECT_EQ(a[5], 0.5);
  EXPECT_EQ(a[10], 1.0);
  EXPECT_NE(a[3], b[3]);
  EXPECT_EQ(a, fig6_imbalances(1));
  const auto e = fig8_imbalances(1);
  ASSERT_EQ(e.size(), 10u);
  EXPECT_EQ(e[0], 0.1);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
}

// --- ride_through_campaign oracles ------------------------------------------

core::CampaignReport committed_campaign() {
  const auto& e = expected::kCampaign[0];
  core::CampaignReport r;
  r.planned = e.trials;
  r.recovered = e.recovered;
  r.degraded = e.degraded;
  r.lost = e.lost;
  r.worst_droop = e.worst_droop;
  for (std::size_t i = 0; i < e.trials; ++i) {
    core::CampaignScenarioResult s;
    s.index = i;
    s.label = "MC#" + std::to_string(i);
    s.completed = true;
    s.outcome = pdn::RideThroughOutcome::Recovered;
    r.scenarios.push_back(s);
  }
  return r;
}

TEST(Oracles, CampaignRejectsTruncatedScenarioAndMovedVerdicts) {
  const auto& e = expected::kCampaign[0];
  const auto good = committed_campaign();
  EXPECT_TRUE(check_campaign(good, e.seed, e.trials).ok());
  auto truncated = good;
  truncated.scenarios[3].completed = false;
  EXPECT_FALSE(check_campaign(truncated, e.seed, e.trials).ok());
  auto droop = good;
  droop.worst_droop += 1e-4;
  EXPECT_FALSE(check_campaign(droop, e.seed, e.trials).ok());
  auto verdicts = good;
  --verdicts.recovered;
  ++verdicts.lost;
  EXPECT_FALSE(check_campaign(verdicts, e.seed, e.trials).ok());
}

TEST(Oracles, ResumeRejectsReRunOrDrift) {
  const auto original = committed_campaign();
  auto resumed = original;
  resumed.resumed = original.scenarios.size();
  EXPECT_TRUE(check_resume(original, resumed).ok());
  auto rerun = resumed;
  rerun.evaluated = 1;
  EXPECT_FALSE(check_resume(original, rerun).ok());
  auto drift = resumed;
  drift.worst_droop *= 1.0 + 1e-12;
  EXPECT_FALSE(check_resume(original, drift).ok());
}

// --- imported_grid oracles ---------------------------------------------------

TEST(Oracles, KclRejectsPerturbedCurrents) {
  const GeneratedGrid g = generate_netlist(5, small_grid());
  const pgio::PgNetlist n = pgio::read_netlist_text(g.text, "gen");
  const pgio::ImportedGrid grid(n);
  const pgio::GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  EXPECT_TRUE(check_kcl(grid, sol, g.total_load_a).ok());
  auto supply = sol;
  supply.supply_current_a *= 1.001;
  EXPECT_FALSE(check_kcl(grid, supply, g.total_load_a).ok());
  EXPECT_FALSE(check_kcl(grid, sol, g.total_load_a * 1.001).ok());
}

TEST(Oracles, AgreementRejectsPerturbedVector) {
  la::Vector a(100, 1.0), b = a;
  EXPECT_TRUE(check_agreement(a, b, 1e-6, "x").ok());
  b[37] += 1e-5;
  EXPECT_FALSE(check_agreement(a, b, 1e-6, "x").ok());
  b[37] = std::nan("");
  EXPECT_FALSE(check_agreement(a, b, 1e-6, "x").ok());
  EXPECT_FALSE(check_agreement(a, la::Vector(99, 1.0), 1e-6, "x").ok());
}

TEST(Oracles, FixtureRejectsDoctoredGolden) {
  const std::string base = std::string(VBENCH_FIXTURES) + "/mesh3x3";
  const pgio::PgNetlist n = pgio::read_netlist_file(base + ".spice");
  const pgio::ImportedGrid grid(n);
  auto golden = pgio::read_solution_file(base + ".solution");
  const pgio::ValidateOptions options;
  EXPECT_TRUE(check_fixture(pgio::validate(grid, golden, options), "mesh3x3").ok());
  golden.voltages[golden.voltages.size() / 2] += 1e-5;
  EXPECT_FALSE(check_fixture(pgio::validate(grid, golden, options), "mesh3x3").ok());
}

// --- sc_converter_transient oracles -------------------------------------------

TEST(Oracles, ScPointRejectsPerturbedEfficiencyAndDrop) {
  const auto& e = expected::kFig3[4];
  sc::ScConverterDesign design;
  design.control = e.policy;
  const auto op = sc::ScCompactModel(design).evaluate(2.0, 0.0, e.load_ma * 1e-3);
  circuit::ScMeasurement sim;
  sim.efficiency = e.efficiency;
  sim.voltage_drop = e.voltage_drop;
  const ScPoint point{e.policy, e.load_ma};
  EXPECT_TRUE(check_sc_point(point, sim, op).ok());
  auto eff = sim;
  eff.efficiency += 0.005;  // inside the model band, off the committed value
  EXPECT_FALSE(check_sc_point(point, eff, op).ok());
  auto drop = sim;
  drop.voltage_drop += 0.01;
  EXPECT_FALSE(check_sc_point(point, drop, op).ok());
}

// --- failure accounting --------------------------------------------------------

TEST(FailRatio, CountsAForcedSolverFailure) {
  WorkloadEnv env;
  env.seed = 3;
  env.scratch_dir = ".";
  env.fixture_dir = VBENCH_FIXTURES;
  env.iteration_cap = 1;  // no DC solve of this grid converges in 1 step
  const auto w = make_workload("imported_grid", env);
  ASSERT_TRUE(w);
  w->setup();
  w->generate();
  w->rep();
  Tally tally;
  Verdict verdict;
  w->check(tally, verdict);
  EXPECT_GT(tally.attempted, 0u);
  EXPECT_GT(tally.failed, 0u);
  EXPECT_FALSE(verdict.ok());
}

// --- trace analysis -------------------------------------------------------------

telemetry::TraceEvent span(const char* name, double ts_us, double dur_us,
                           std::uint32_t tid = 1) {
  telemetry::TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  return e;
}

TEST(TraceAnalysis, SelfTimeAndUnattributedShare) {
  // vbench.pdn.call [0, 100] > sim.transient.run [10, 90] > la.cg.solve
  // [20, 50]; a pool chunk on another thread with no children.
  const std::vector<telemetry::TraceEvent> events = {
      span("vbench.pdn.call", 0, 100), span("sim.transient.run", 10, 80),
      span("la.cg.solve", 20, 30), span("core.task_pool.chunk", 0, 40, 2)};
  const auto a = analyze_trace(events);
  EXPECT_NEAR(a.self_s.at("pdn"), 20e-6, 1e-12);
  EXPECT_NEAR(a.self_s.at("sim"), 50e-6, 1e-12);
  EXPECT_NEAR(a.self_s.at("la"), 30e-6, 1e-12);
  EXPECT_NEAR(a.self_s.at("core"), 40e-6, 1e-12);
  EXPECT_NEAR(a.container_s, 120e-6, 1e-12);
  EXPECT_NEAR(a.unattributed_s, 90e-6, 1e-12);
}

TEST(TraceAnalysis, DeadCountersNameZeroCountersOfBusyLayers) {
  telemetry::MetricsSnapshot snap;
  snap.counters = {{"la.cg.calls", 85},
                   {"la.solver.solves.reference", 0},
                   {"la.solve.failed", 0},
                   {"shard.leases.acquired", 0}};
  const auto dead = dead_counters(snap, {});
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], "la.solver.solves.reference");
}

}  // namespace
}  // namespace vbench
