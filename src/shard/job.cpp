#include "shard/job.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/durable_file.h"
#include "common/error.h"
#include "core/campaign_manifest.h"
#include "power/workload.h"

namespace vstack::shard {

namespace fs = std::filesystem;

void JobSpec::validate() const {
  VS_REQUIRE(trials > 0, "shard job needs at least one trial");
  VS_REQUIRE(layers >= 1, "shard job needs at least one layer");
  VS_REQUIRE(chunk > 0, "chunk must be >= 1");
  VS_REQUIRE(max_attempts > 0, "max_attempts must be >= 1");
  VS_REQUIRE(std::isfinite(lease_expiry_s) && lease_expiry_s > 0.0,
             "lease_expiry_s must be > 0");
  VS_REQUIRE(std::isfinite(heartbeat_s) && heartbeat_s > 0.0 &&
                 heartbeat_s < lease_expiry_s,
             "heartbeat_s must be > 0 and shorter than lease_expiry_s");
}

std::size_t JobSpec::chunk_count() const {
  return (trials + chunk - 1) / chunk;
}

std::size_t JobSpec::chunk_end(std::size_t c) const {
  const std::size_t end = (c + 1) * chunk;
  return end < trials ? end : trials;
}

std::size_t default_converter_faults(bool stacked) {
  return stacked ? 32 : 0;
}

sc::SupervisorConfig calibrated_supervisor() {
  sc::SupervisorConfig sup;
  sup.trip_fraction = 0.10;
  sup.recovery_fraction = 0.08;
  sup.sense_interval = 5e-9;
  sup.detection_latency = 20e-9;
  sup.action_dwell = 60e-9;
  sup.watchdog_timeout = 300e-9;
  return sup;
}

pdn::StackupConfig job_stackup(const core::StudyContext& ctx, bool stacked,
                               std::size_t layers, std::size_t grid) {
  pdn::StackupConfig cfg = ctx.base;
  cfg.topology = stacked ? pdn::PdnTopology::VoltageStacked
                         : pdn::PdnTopology::Regular3d;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = grid;
  cfg.validate();
  return cfg;
}

CampaignSetup make_campaign(const core::StudyContext& ctx,
                            const JobSpec& spec) {
  spec.validate();
  CampaignSetup setup;
  setup.config = job_stackup(ctx, spec.stacked, spec.layers, spec.grid);
  setup.activities = power::interleaved_layer_activities(spec.layers,
                                                         spec.imbalance);

  core::CampaignOptions& opt = setup.options;
  opt.contingency.trials = spec.trials;
  opt.contingency.faults_per_trial = spec.faults_per_trial;
  opt.contingency.converter_faults_per_trial =
      spec.converter_faults_per_trial;
  opt.contingency.seed = spec.seed;
  opt.ride_through.transient.duration = spec.duration_s;
  opt.ride_through.supervisor = calibrated_supervisor();
  opt.fault_time = spec.fault_time_s;
  opt.scenario_timeout_s = spec.scenario_timeout_s;
  opt.max_retries = spec.max_retries;
  opt.retry_tolerance_relax = spec.retry_relax;
  return setup;
}

std::uint64_t job_config_hash(const core::StudyContext& ctx,
                              const JobSpec& spec) {
  const CampaignSetup setup = make_campaign(ctx, spec);
  return core::campaign_config_hash(setup.config, setup.activities,
                                    setup.options);
}

void JobPaths::create_dirs() const {
  fs::create_directories(root);
  fs::create_directories(shards_dir());
  fs::create_directories(leases_dir());
  fs::create_directories(attempts_dir());
  fs::create_directories(done_dir());
  fs::create_directories(quarantine_dir());
}

std::string plan_line(const JobSpec& spec, std::uint64_t config_hash) {
  std::ostringstream oss;
  oss << "{\"kind\":\"vstack-shard-plan\",\"version\":1"
      << ",\"stacked\":" << (spec.stacked ? 1 : 0)
      << ",\"layers\":" << spec.layers << ",\"grid\":" << spec.grid
      << ",\"imbalance\":" << core::fmt_double_17g(spec.imbalance)
      << ",\"trials\":" << spec.trials
      << ",\"faults\":" << spec.faults_per_trial
      << ",\"conv_faults\":" << spec.converter_faults_per_trial
      << ",\"seed\":" << spec.seed
      << ",\"duration\":" << core::fmt_double_17g(spec.duration_s)
      << ",\"fault_time\":" << core::fmt_double_17g(spec.fault_time_s)
      << ",\"timeout\":" << core::fmt_double_17g(spec.scenario_timeout_s)
      << ",\"retries\":" << spec.max_retries
      << ",\"retry_relax\":" << core::fmt_double_17g(spec.retry_relax)
      << ",\"chunk\":" << spec.chunk
      << ",\"max_attempts\":" << spec.max_attempts
      << ",\"lease_expiry\":" << core::fmt_double_17g(spec.lease_expiry_s)
      << ",\"heartbeat\":" << core::fmt_double_17g(spec.heartbeat_s)
      << ",\"config_hash\":\"" << core::hex64(config_hash) << "\"}";
  return oss.str();
}

bool parse_plan_line(const std::string& line, JobSpec& spec,
                     std::uint64_t& config_hash) {
  std::string kind;
  if (!core::json_field(line, "kind", kind) || kind != "vstack-shard-plan") {
    return false;
  }
  std::uint64_t stacked = 0, layers = 0, grid = 0, trials = 0, faults = 0;
  std::uint64_t conv = 0, seed = 0, retries = 0, chunk = 0, attempts = 0;
  if (!core::json_u64(line, "stacked", stacked)) return false;
  if (!core::json_u64(line, "layers", layers)) return false;
  if (!core::json_u64(line, "grid", grid)) return false;
  if (!core::json_double(line, "imbalance", spec.imbalance)) return false;
  if (!core::json_u64(line, "trials", trials)) return false;
  if (!core::json_u64(line, "faults", faults)) return false;
  if (!core::json_u64(line, "conv_faults", conv)) return false;
  if (!core::json_u64(line, "seed", seed)) return false;
  if (!core::json_double(line, "duration", spec.duration_s)) return false;
  if (!core::json_double(line, "fault_time", spec.fault_time_s)) return false;
  if (!core::json_double(line, "timeout", spec.scenario_timeout_s)) {
    return false;
  }
  if (!core::json_u64(line, "retries", retries)) return false;
  if (!core::json_double(line, "retry_relax", spec.retry_relax)) return false;
  if (!core::json_u64(line, "chunk", chunk)) return false;
  if (!core::json_u64(line, "max_attempts", attempts)) return false;
  if (!core::json_double(line, "lease_expiry", spec.lease_expiry_s)) {
    return false;
  }
  if (!core::json_double(line, "heartbeat", spec.heartbeat_s)) return false;
  if (!core::json_hex64(line, "config_hash", config_hash)) return false;
  spec.stacked = stacked != 0;
  spec.layers = layers;
  spec.grid = grid;
  spec.trials = trials;
  spec.faults_per_trial = faults;
  spec.converter_faults_per_trial = conv;
  spec.seed = seed;
  spec.max_retries = retries;
  spec.chunk = chunk;
  spec.max_attempts = attempts;
  return true;
}

void publish_plan(const JobPaths& paths, const JobSpec& spec,
                  std::uint64_t config_hash) {
  paths.create_dirs();
  const std::string want = plan_line(spec, config_hash);
  std::ifstream in(paths.plan());
  if (in) {
    std::string have;
    std::getline(in, have);
    VS_REQUIRE(have == want,
               "job directory '" + paths.root +
                   "' already holds a DIFFERENT job's plan.json; use a "
                   "fresh --job-dir or remove the stale one");
    return;  // resuming the same job
  }
  atomic_write_file(paths.plan(), want + "\n");
}

JobSpec load_plan(const JobPaths& paths, std::uint64_t& config_hash) {
  std::ifstream in(paths.plan());
  VS_REQUIRE(static_cast<bool>(in),
             "no plan.json in job directory '" + paths.root +
                 "' (start the job via the supervisor, or write the plan "
                 "first)");
  std::string line;
  std::getline(in, line);
  JobSpec spec;
  VS_REQUIRE(parse_plan_line(line, spec, config_hash),
             "plan.json in '" + paths.root + "' is not a shard plan");
  spec.validate();
  return spec;
}

}  // namespace vstack::shard
