#include "core/campaign_manifest.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "pdn/config_io.h"

namespace vstack::core {

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

void Fnv1a::u64(std::uint64_t v) { bytes(&v, 8); }

void Fnv1a::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Fnv1a::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::uint64_t campaign_scenario_hash(const PlannedScenario& scenario,
                                     double fault_time) {
  Fnv1a f;
  f.u64(scenario.index);
  f.str(scenario.label);
  f.f64(fault_time);
  for (const pdn::Fault& fault : scenario.faults.faults()) {
    f.u64(static_cast<std::uint64_t>(fault.kind));
    f.u64(fault.index);
    f.u64(fault.units);
    f.f64(fault.severity);
  }
  return f.h;
}

std::uint64_t campaign_config_hash(const pdn::StackupConfig& config,
                                   const std::vector<double>& activities,
                                   const CampaignOptions& options) {
  Fnv1a f;
  // write_stackup_config is round-trip capable, so it covers every knob of
  // the network topology.
  f.str(pdn::write_stackup_config(config));
  f.u64(activities.size());
  for (const double a : activities) f.f64(a);

  const ContingencyOptions& c = options.contingency;
  f.u64(c.seed);
  f.u64(c.trials);
  f.u64(c.faults_per_trial);
  f.u64(c.converter_faults_per_trial);
  f.u64(c.leakage_faults_per_trial);
  // The fault severities and the mission time are fixed, but their bytes
  // stay in the hash so existing manifests and shard plans keep resuming.
  f.f64(kLeakageResistance);
  f.f64(kDegradeFactor);
  f.f64(0.0);  // mission time: 0 = derived from the baseline TSV array

  const pdn::RideThroughOptions& rt = options.ride_through;
  f.f64(rt.transient.decap_density);
  f.f64(rt.transient.package_inductance);
  f.f64(rt.transient.time_step);
  f.f64(rt.transient.duration);
  f.f64(rt.transient.control.rel_tol);
  f.f64(rt.transient.control.abs_tol);
  f.f64(rt.supervisor.trip_fraction);
  f.f64(rt.supervisor.recovery_fraction);
  f.f64(rt.supervisor.detection_latency);
  f.f64(rt.supervisor.sense_interval);
  f.f64(rt.supervisor.action_dwell);
  f.f64(rt.supervisor.watchdog_timeout);
  f.f64(rt.supervisor.frequency_boost);
  f.u64(rt.supervisor.max_actions);
  f.f64(rt.bypass_resistance);
  f.f64(rt.max_rebalance_boost);

  f.f64(options.fault_time);
  f.u64(options.max_retries);
  f.f64(options.retry_tolerance_relax);
  // options.execution is deliberately NOT hashed: scheduling does not
  // change results, so a manifest written at jobs=1 must resume at jobs=8
  // and vice versa (and a shard fleet must merge into the serial bytes).
  return f.h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_double_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool json_field(const std::string& line, const std::string& key,
                std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t begin = pos + needle.size();
  if (begin >= line.size()) return false;
  if (line[begin] == '"') {
    const auto end = line.find('"', begin + 1);
    if (end == std::string::npos) return false;
    out = line.substr(begin + 1, end - begin - 1);
    return true;
  }
  auto end = line.find_first_of(",}", begin);
  if (end == std::string::npos) return false;
  out = line.substr(begin, end - begin);
  return true;
}

bool json_u64(const std::string& line, const std::string& key,
              std::uint64_t& out) {
  std::string s;
  if (!json_field(line, key, s)) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end && *end == '\0';
}

bool json_hex64(const std::string& line, const std::string& key,
                std::uint64_t& out) {
  std::string s;
  if (!json_field(line, key, s)) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 16);
  return end && *end == '\0';
}

bool json_double(const std::string& line, const std::string& key,
                 double& out) {
  std::string s;
  if (!json_field(line, key, s)) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end && *end == '\0';
}

std::string campaign_manifest_header(std::uint64_t seed, std::size_t trials,
                                     std::uint64_t config_hash) {
  std::ostringstream oss;
  oss << "{\"kind\":\"vstack-campaign\",\"version\":1,\"seed\":" << seed
      << ",\"trials\":" << trials << ",\"config_hash\":\""
      << hex64(config_hash) << "\"}";
  return oss.str();
}

bool parse_campaign_manifest_header(const std::string& line,
                                    CampaignManifestHeader& out) {
  std::string kind;
  return json_field(line, "kind", kind) && kind == "vstack-campaign" &&
         json_u64(line, "seed", out.seed) &&
         json_u64(line, "trials", out.trials) &&
         json_hex64(line, "config_hash", out.config_hash);
}

std::string campaign_scenario_line(const CampaignScenarioResult& r) {
  std::ostringstream oss;
  oss << "{\"index\":" << r.index << ",\"hash\":\"" << hex64(r.scenario_hash)
      << "\",\"label\":\"" << r.label << "\",\"outcome\":\""
      << pdn::to_string(r.outcome) << "\",\"completed\":" << (r.completed ? 1 : 0)
      << ",\"timed_out\":" << (r.timed_out ? 1 : 0)
      << ",\"attempts\":" << r.attempts
      << ",\"detected_at\":" << fmt_double_17g(r.detected_at)
      << ",\"recovered_at\":" << fmt_double_17g(r.recovered_at)
      << ",\"worst_droop\":" << fmt_double_17g(r.worst_droop)
      << ",\"final_droop\":" << fmt_double_17g(r.final_droop)
      << ",\"actions\":" << r.action_count
      << ",\"shutdowns\":" << r.shutdown_count
      << ",\"wall_seconds\":" << fmt_double_17g(r.wall_seconds) << "}";
  return oss.str();
}

namespace {

bool parse_outcome(const std::string& s, pdn::RideThroughOutcome& out) {
  if (s == "recovered") out = pdn::RideThroughOutcome::Recovered;
  else if (s == "degraded") out = pdn::RideThroughOutcome::Degraded;
  else if (s == "lost") out = pdn::RideThroughOutcome::Lost;
  else return false;
  return true;
}

}  // namespace

bool parse_campaign_scenario_line(const std::string& line,
                                  CampaignScenarioResult& r) {
  std::uint64_t index = 0, completed = 0, timed_out = 0, attempts = 0;
  std::uint64_t actions = 0, shutdowns = 0;
  std::string outcome;
  if (!json_u64(line, "index", index)) return false;
  if (!json_hex64(line, "hash", r.scenario_hash)) return false;
  if (!json_field(line, "label", r.label)) return false;
  if (!json_field(line, "outcome", outcome) ||
      !parse_outcome(outcome, r.outcome)) {
    return false;
  }
  if (!json_u64(line, "completed", completed)) return false;
  if (!json_u64(line, "timed_out", timed_out)) return false;
  if (!json_u64(line, "attempts", attempts)) return false;
  if (!json_double(line, "detected_at", r.detected_at)) return false;
  if (!json_double(line, "recovered_at", r.recovered_at)) return false;
  if (!json_double(line, "worst_droop", r.worst_droop)) return false;
  if (!json_double(line, "final_droop", r.final_droop)) return false;
  if (!json_u64(line, "actions", actions)) return false;
  if (!json_u64(line, "shutdowns", shutdowns)) return false;
  if (!json_double(line, "wall_seconds", r.wall_seconds)) return false;
  r.index = index;
  r.completed = completed != 0;
  r.timed_out = timed_out != 0;
  r.attempts = attempts;
  r.action_count = actions;
  r.shutdown_count = shutdowns;
  r.from_checkpoint = true;
  return true;
}

bool load_campaign_manifest(
    const std::string& path, std::uint64_t seed, std::size_t trials,
    std::uint64_t config_hash,
    std::map<std::size_t, CampaignScenarioResult>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line.empty()) return false;

  CampaignManifestHeader header;
  VS_REQUIRE(parse_campaign_manifest_header(line, header),
             "campaign manifest '" + path + "' has an unrecognized header");
  VS_REQUIRE(header.seed == seed && header.trials == trials &&
                 header.config_hash == config_hash,
             "campaign manifest '" + path +
                 "' belongs to a different campaign (seed/trials/config "
                 "mismatch); move it aside or change manifest_path");

  while (std::getline(in, line)) {
    CampaignScenarioResult r;
    if (!parse_campaign_scenario_line(line, r)) continue;  // torn tail
    out[r.index] = std::move(r);
  }
  return true;
}

void accumulate_campaign_result(CampaignReport& report,
                                const CampaignScenarioResult& result) {
  switch (result.outcome) {
    case pdn::RideThroughOutcome::Recovered: ++report.recovered; break;
    case pdn::RideThroughOutcome::Degraded:  ++report.degraded;  break;
    case pdn::RideThroughOutcome::Lost:      ++report.lost;      break;
  }
  if (result.timed_out) ++report.timed_out;
  if (result.completed) {
    report.worst_droop = std::max(report.worst_droop, result.worst_droop);
  }
  report.scenarios.push_back(result);
}

}  // namespace vstack::core
