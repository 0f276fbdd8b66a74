// Deadline propagation through the scenario runners (core/campaign.h,
// core/contingency.h): a fired token truncates to a committed contiguous
// prefix, manifests stay resumable and byte-stable, and resuming with an
// unexpired deadline reproduces the uninterrupted run exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/contingency.h"
#include "power/workload.h"

namespace vstack::core {
namespace {

const StudyContext& ctx() {
  static const StudyContext c = StudyContext::paper_defaults();
  return c;
}

pdn::StackupConfig stacked4() {
  auto cfg = make_stacked(ctx(), 4, pdn::TsvConfig::few(), 8);
  cfg.grid_nx = cfg.grid_ny = 8;
  return cfg;
}

std::vector<double> acts4() {
  return power::interleaved_layer_activities(4, 0.8);
}

CampaignOptions fast_options() {
  CampaignOptions o;
  o.contingency.trials = 4;
  o.contingency.faults_per_trial = 2;
  o.contingency.converter_faults_per_trial = 8;
  o.contingency.seed = 42;
  o.ride_through.transient.time_step = 2e-9;
  o.ride_through.transient.duration = 200e-9;
  o.ride_through.supervisor.trip_fraction = 0.10;
  o.ride_through.supervisor.recovery_fraction = 0.08;
  o.ride_through.supervisor.sense_interval = 5e-9;
  o.ride_through.supervisor.detection_latency = 20e-9;
  o.ride_through.supervisor.action_dwell = 40e-9;
  o.ride_through.supervisor.watchdog_timeout = 120e-9;
  o.fault_time = 50e-9;
  o.scenario_timeout_s = 0.0;  // keep results machine-speed independent
  return o;
}

std::string manifest_path(const std::string& tag) {
  return testing::TempDir() + "vstack_deadline_" + tag + ".jsonl";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Blank out the one legitimately run-dependent manifest field: a scenario's
/// wall_seconds measures real time and differs between otherwise identical
/// runs.  Everything else must match to the byte.
std::string mask_wall_seconds(std::string s) {
  const std::string key = "\"wall_seconds\":";
  std::size_t pos = 0;
  while ((pos = s.find(key, pos)) != std::string::npos) {
    const std::size_t begin = pos + key.size();
    const std::size_t end = s.find_first_of(",}", begin);
    s.replace(begin, end - begin, "*");
    pos = begin;
  }
  return s;
}

TEST(CampaignDeadline, PreExpiredTokenWritesHeaderOnlyManifest) {
  const CampaignRunner runner(ctx(), stacked4());
  std::string manifests[2];
  for (int pass = 0; pass < 2; ++pass) {
    CampaignOptions o = fast_options();
    o.manifest_path = manifest_path(pass == 0 ? "serial" : "parallel");
    std::remove(o.manifest_path.c_str());
    o.execution.jobs = pass == 0 ? 1 : 4;
    o.execution.deadline = Deadline::after(0.0);
    const CampaignReport report = runner.run(acts4(), o);
    EXPECT_TRUE(report.cancelled);
    EXPECT_EQ(report.planned, 4u);
    EXPECT_TRUE(report.scenarios.empty());
    EXPECT_NE(report.summary().find("CANCELLED"), std::string::npos);
    manifests[pass] = slurp(o.manifest_path);
    std::remove(o.manifest_path.c_str());
  }
  // Header-only, and byte-identical between serial and parallel.
  EXPECT_EQ(manifests[0], manifests[1]);
  EXPECT_EQ(manifests[0].find('\n'), manifests[0].size() - 1)
      << "expected exactly the header line, got:\n"
      << manifests[0];
}

TEST(CampaignDeadline, ResumeAfterInterruptionMatchesUninterrupted) {
  const CampaignRunner runner(ctx(), stacked4());

  // Reference: uninterrupted run with a manifest.
  CampaignOptions ref = fast_options();
  ref.manifest_path = manifest_path("reference");
  std::remove(ref.manifest_path.c_str());
  const CampaignReport expected = runner.run(acts4(), ref);
  ASSERT_FALSE(expected.cancelled);
  const std::string expected_bytes = mask_wall_seconds(slurp(ref.manifest_path));
  std::remove(ref.manifest_path.c_str());

  // Interrupted run: a cancellable token fired immediately leaves a
  // resumable (possibly header-only) prefix; a short wall-clock budget
  // exercises mid-run expiry when scheduling allows.  Either way the
  // invariant is the same: lines = header + one per committed scenario.
  CampaignOptions cut = fast_options();
  cut.manifest_path = manifest_path("resume");
  std::remove(cut.manifest_path.c_str());
  cut.execution.deadline = Deadline::after(0.05);
  const CampaignReport partial = runner.run(acts4(), cut);
  EXPECT_EQ(partial.cancelled, partial.scenarios.size() < partial.planned);
  const std::string cut_bytes = mask_wall_seconds(slurp(cut.manifest_path));
  const std::size_t lines =
      static_cast<std::size_t>(std::count(cut_bytes.begin(), cut_bytes.end(),
                                          '\n'));
  EXPECT_EQ(lines, 1 + partial.scenarios.size());
  // The committed prefix is the same bytes the uninterrupted manifest
  // starts with.
  EXPECT_EQ(expected_bytes.compare(0, cut_bytes.size(), cut_bytes), 0);

  // Resume with an unexpired deadline: finishes the campaign and matches
  // the uninterrupted run bit for bit.
  CampaignOptions finish = fast_options();
  finish.manifest_path = cut.manifest_path;
  const CampaignReport resumed = runner.run(acts4(), finish);
  EXPECT_FALSE(resumed.cancelled);
  ASSERT_EQ(resumed.scenarios.size(), expected.scenarios.size());
  for (std::size_t i = 0; i < resumed.scenarios.size(); ++i) {
    EXPECT_EQ(resumed.scenarios[i].scenario_hash,
              expected.scenarios[i].scenario_hash);
    EXPECT_EQ(resumed.scenarios[i].outcome, expected.scenarios[i].outcome);
    EXPECT_EQ(resumed.scenarios[i].worst_droop,
              expected.scenarios[i].worst_droop);
    EXPECT_EQ(resumed.scenarios[i].final_droop,
              expected.scenarios[i].final_droop);
  }
  EXPECT_EQ(resumed.worst_droop, expected.worst_droop);
  EXPECT_EQ(mask_wall_seconds(slurp(finish.manifest_path)), expected_bytes);
  std::remove(finish.manifest_path.c_str());
}

TEST(ContingencyDeadline, PreExpiredTokenCancelsBothModes) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions o;
  o.trials = 4;
  o.faults_per_trial = 2;
  o.seed = 11;
  o.execution.deadline = Deadline::after(0.0);

  const ContingencyReport mc = engine.run_monte_carlo(acts4(), o);
  EXPECT_TRUE(mc.cancelled);
  EXPECT_GT(mc.planned, 0u);
  EXPECT_TRUE(mc.cases.empty());

  const ContingencyReport n1 = engine.run_n_minus_1(acts4(), o);
  EXPECT_TRUE(n1.cancelled);
  EXPECT_GT(n1.planned, 0u);
  EXPECT_TRUE(n1.cases.empty());
}

TEST(ContingencyDeadline, TruncatedCaseMidListEndsTheCommittedPrefix) {
  // Case 3 of 7 was cut short by a deadline: it and every later case are
  // dropped (even the real verdicts after it), at any job count.
  for (const std::size_t jobs : {1u, 3u}) {
    ContingencyReport report;
    run_cases(report, 7, ExecutionPolicy::parallel(jobs),
              [&](std::size_t i) {
                ContingencyCase one;
                one.label = "case" + std::to_string(i);
                one.solved = i != 1;
                one.outcome = i == 1 ? CaseOutcome::Infeasible
                                     : i == 2 ? CaseOutcome::Degraded
                                              : CaseOutcome::Survivable;
                one.max_node_deviation_fraction = 0.01 * double(i + 1);
                one.deadline_truncated = i == 3;
                return one;
              });
    EXPECT_EQ(report.planned, 7u) << "jobs " << jobs;
    EXPECT_TRUE(report.cancelled) << "jobs " << jobs;
    ASSERT_EQ(report.cases.size(), 3u) << "jobs " << jobs;
    for (std::size_t i = 0; i < report.cases.size(); ++i) {
      EXPECT_EQ(report.cases[i].label, "case" + std::to_string(i));
    }
    EXPECT_EQ(report.survivable, 1u);
    EXPECT_EQ(report.degraded, 1u);
    EXPECT_EQ(report.infeasible, 1u);
    EXPECT_DOUBLE_EQ(report.worst_post_fault_deviation, 0.03);
  }
}

TEST(ContingencyDeadline, UnlimitedTokenReportsNotCancelled) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions o;
  o.trials = 2;
  o.faults_per_trial = 1;
  o.seed = 11;
  const ContingencyReport report = engine.run_monte_carlo(acts4(), o);
  EXPECT_FALSE(report.cancelled);
  EXPECT_EQ(report.cases.size(), report.planned);
}

}  // namespace
}  // namespace vstack::core
