#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/durable_file.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "core/campaign.h"
#include "core/campaign_manifest.h"
#include "core/contingency.h"
#include "core/sweeps.h"
#include "pdn/fault.h"
#include "pdn/ride_through.h"
#include "power/workload.h"
#include "service/request.h"
#include "shard/job.h"
#include "shard/supervisor.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace fs = std::filesystem;

namespace vstack::service {

namespace {

// Service telemetry: the health snapshot dumps the whole registry, so
// these double as the service's live gauges.
const telemetry::Counter t_requests("service.requests");
const telemetry::Counter t_ok("service.requests_ok");
const telemetry::Counter t_failed("service.requests_failed");
const telemetry::Counter t_timeout("service.requests_timeout");
const telemetry::Counter t_invalid("service.requests_invalid");
const telemetry::Counter t_rejected("service.rejected_overload");
const telemetry::Counter t_degraded("service.degraded");
const telemetry::Counter t_retries("service.retries");
const telemetry::Gauge g_queue_depth("service.queue_depth");
const telemetry::Gauge g_active("service.active");

// Serialization helpers shared with the campaign manifest format
// (core/campaign_manifest.h); thin aliases keep the call sites short.
std::string fmt_double(double v) { return core::fmt_double_17g(v); }

/// JSON string payload sanitizer: the response format is flat JSON without
/// escape support (same contract as the campaign manifest), so quotes and
/// control characters in diagnostics are rewritten, not escaped.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '"') c = '\'';
    else if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  return s;
}

bool json_field(const std::string& line, const std::string& key,
                std::string& out) {
  return core::json_field(line, key, out);
}

std::string hex64(std::uint64_t v) { return core::hex64(v); }

/// One terminal answer; rendered as a single JSONL line.
struct Response {
  std::string id;
  std::string kind;           // request kind, or "?" for unparseable files
  std::string status;         // ok|timeout|failed|invalid|rejected-overload
  bool degraded = false;
  std::size_t attempts = 1;
  double wall_seconds = 0.0;
  std::string aggregates;     // ",\"key\":value,..." fragment, may be empty
  std::string detail;         // human-readable reason; sanitized
};

std::string response_line(const Response& r) {
  std::ostringstream oss;
  oss << "{\"kind\":\"vstack-response\",\"id\":\"" << sanitize(r.id)
      << "\",\"request\":\"" << r.kind << "\",\"status\":\"" << r.status
      << "\",\"degraded\":" << (r.degraded ? 1 : 0)
      << ",\"attempts\":" << r.attempts
      << ",\"wall_seconds\":" << fmt_double(r.wall_seconds) << r.aggregates;
  if (!r.detail.empty()) oss << ",\"detail\":\"" << sanitize(r.detail) << "\"";
  oss << "}";
  return oss.str();
}

/// Outcome of one execution attempt that ran to a verdict (vs throwing).
struct RunOutcome {
  bool cancelled = false;   // the deadline/stop token truncated the run
  std::string aggregates;
  std::string detail;
};

std::vector<fs::path> sorted_requests(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".req") continue;
    out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void interruptible_sleep(double seconds, const Deadline& stop) {
  const double slice = 0.05;
  double remaining = seconds;
  while (remaining > 0.0 && !stop.expired()) {
    const double nap = std::min(slice, remaining);
    std::this_thread::sleep_for(std::chrono::duration<double>(nap));
    remaining -= nap;
  }
}

}  // namespace

void ServerOptions::validate() const {
  VS_REQUIRE(!root.empty(), "serve: spool root must not be empty");
  VS_REQUIRE(poll_interval_s > 0.0 && poll_interval_s <= 60.0,
             "poll_interval_s must lie in (0, 60]");
  VS_REQUIRE(health_interval_s >= 0.0, "health_interval_s must be >= 0");
  VS_REQUIRE(idle_exit_s >= 0.0, "idle_exit_s must be >= 0");
  VS_REQUIRE(default_deadline_s >= 0.0, "default_deadline_s must be >= 0");
  retry.validate();
  admission.validate();
  execution.validate();
  VS_REQUIRE(shard_workers == 0 || !worker_command.empty(),
             "shard_workers needs a worker_command to exec");
}

std::string ServerStats::summary() const {
  std::ostringstream oss;
  oss << served << " served (" << ok << " ok, " << timeout << " timeout, "
      << failed << " failed, " << invalid << " invalid, " << rejected
      << " rejected-overload); " << degraded << " degraded, " << retries
      << " retries, " << recovered << " recovered";
  if (interrupted) oss << "; INTERRUPTED (in-flight request kept in active/)";
  return oss.str();
}

SpoolServer::SpoolServer(const core::StudyContext& ctx, ServerOptions options)
    : ctx_(ctx), options_(std::move(options)) {
  options_.validate();
}

namespace {

/// All the per-run state the poll loop threads through; keeps SpoolServer's
/// public surface small.
class ServerRun {
 public:
  ServerRun(const core::StudyContext& ctx, const ServerOptions& options)
      : ctx_(ctx),
        opts_(options),
        admission_(options.admission),
        root_(options.root),
        incoming_(root_ / "incoming"),
        active_(root_ / "active"),
        done_(root_ / "done"),
        failed_(root_ / "failed") {}

  ServerStats run() {
    ensure_layout();
    // repair_torn_tail: a kill -9 mid-response-append must not let the next
    // incarnation concatenate its first response onto the torn fragment --
    // that would lose the answer AND corrupt duplicate-id recovery.
    responses_.open((root_ / "results" / "responses.jsonl").string(),
                    /*repair_torn_tail=*/true);
    const std::set<std::string> answered = load_answered_ids();
    recover_active(answered);
    write_health();

    double idle_since = telemetry::monotonic_seconds();
    double last_health = telemetry::monotonic_seconds();
    for (;;) {
      if (opts_.stop.expired()) {
        stats_.interrupted = true;
        break;
      }
      if (opts_.max_requests > 0 && stats_.served >= opts_.max_requests) {
        break;
      }
      if (opts_.health_interval_s > 0.0 &&
          telemetry::monotonic_seconds() - last_health >=
              opts_.health_interval_s) {
        write_health();
        last_health = telemetry::monotonic_seconds();
      }

      shed_overflow();

      // Oldest recovered request first, then the head of incoming/.
      fs::path request = oldest_active();
      if (request.empty()) {
        const auto incoming = sorted_requests(incoming_);
        if (!incoming.empty()) {
          request = active_ / incoming.front().filename();
          fs::rename(incoming.front(), request);  // claim
          // Crash here: the request sits in active/ unanswered -- startup
          // recovery must re-run it, not lose it.
          VS_FAILPOINT("server.claim.after_rename");
        }
      }
      g_queue_depth.set(static_cast<double>(queue_depth()));

      if (request.empty()) {
        if (opts_.idle_exit_s > 0.0 &&
            telemetry::monotonic_seconds() - idle_since >= opts_.idle_exit_s) {
          VS_LOG_INFO("serve: spool idle for " << opts_.idle_exit_s
                                               << " s; exiting");
          break;
        }
        interruptible_sleep(opts_.poll_interval_s, opts_.stop);
        continue;
      }

      idle_since = telemetry::monotonic_seconds();
      const bool interrupted = process(request);
      if (interrupted) {
        stats_.interrupted = true;
        break;
      }
    }
    write_health();
    responses_.close();
    return stats_;
  }

 private:
  void ensure_layout() {
    for (const fs::path& dir :
         {incoming_, active_, done_, failed_, root_ / "results",
          root_ / "manifests"}) {
      fs::create_directories(dir);
    }
    // Orphan temp files from a previous incarnation killed mid-
    // atomic_write_file (health snapshots, quarantine records under
    // jobs/).  Startup is the one moment no sibling can have a temp file
    // in flight here.
    const std::size_t swept =
        sweep_stale_temp_files(root_.string(), /*recursive=*/true);
    if (swept > 0) {
      VS_LOG_WARN("serve: swept " << swept << " stale temp file(s) from "
                                  << root_);
    }
  }

  std::set<std::string> load_answered_ids() const {
    std::set<std::string> ids;
    std::ifstream in(root_ / "results" / "responses.jsonl");
    if (!in) return ids;
    std::string line;
    while (std::getline(in, line)) {
      std::string kind, id;
      // A torn final line (kill -9 mid-append) simply fails the field
      // check and is ignored; its request is still in active/ and re-runs.
      if (!json_field(line, "kind", kind) || kind != "vstack-response") {
        continue;
      }
      if (json_field(line, "id", id)) ids.insert(id);
    }
    return ids;
  }

  /// Startup recovery: a request in active/ either already has a response
  /// (the crash hit between append and rename -- finish the move) or it
  /// does not (re-run it; its manifest resumes finished scenarios).
  void recover_active(const std::set<std::string>& answered) {
    for (const fs::path& path : sorted_requests(active_)) {
      const std::string id = path.stem().string();
      if (answered.count(id) > 0) {
        fs::rename(path, done_ / path.filename());
        VS_LOG_INFO("serve: " << id << " already answered; moved to done/");
      } else {
        ++stats_.recovered;
        VS_LOG_INFO("serve: recovering in-flight request " << id);
      }
    }
  }

  std::size_t queue_depth() const {
    return sorted_requests(incoming_).size();
  }

  fs::path oldest_active() const {
    const auto active = sorted_requests(active_);
    return active.empty() ? fs::path() : active.front();
  }

  /// Queue-overflow shedding: everything past the depth bound answers
  /// REJECTED_OVERLOAD immediately, oldest requests keep their place.
  void shed_overflow() {
    const auto incoming = sorted_requests(incoming_);
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      if (!admission_.overflows(i)) continue;
      Response r;
      r.id = incoming[i].stem().string();
      r.kind = "?";
      r.status = "rejected-overload";
      r.detail = "queue depth " + std::to_string(incoming.size()) +
                 " exceeds the bound of " +
                 std::to_string(admission_.options().max_queue_depth);
      finish(incoming[i], r, failed_);
      ++stats_.rejected;
      t_rejected.add();
    }
  }

  /// Durable terminal answer: the response line is fsynced BEFORE the
  /// request file leaves the spool stage, so a crash between the two
  /// re-runs recovery (which sees the answer and just finishes the move)
  /// instead of losing or double-answering the request.
  void finish(const fs::path& request, const Response& r,
              const fs::path& stage) {
    // Crash here: the request is fully executed but unanswered -- recovery
    // re-runs it from active/ (the campaign manifest resumes the trials).
    VS_FAILPOINT("server.response.before_append");
    responses_.append_line(response_line(r));
    // Crash here: the answer is durable but the request file still sits in
    // active/ -- recovery must finish the move, not answer twice.
    VS_FAILPOINT("server.response.after_append");
    fs::rename(request, stage / request.filename());
    VS_FAILPOINT("server.response.after_rename");
    ++stats_.served;
    t_requests.add();
  }

  /// Execute one claimed request.  Returns true when the server stop token
  /// interrupted it (request stays in active/, unanswered).
  bool process(const fs::path& path) {
    const std::string id = path.stem().string();
    VS_LOG_INFO("serve: processing " << id);
    g_active.set(1.0);
    const bool interrupted = process_inner(path, id);
    g_active.set(0.0);
    return interrupted;
  }

  bool process_inner(const fs::path& path, const std::string& id) {
    Response r;
    r.id = id;
    r.kind = "?";

    RequestSpec spec;
    try {
      spec = parse_request(read_file(path.string()), id,
                           path.filename().string());
    } catch (const std::exception& e) {
      r.status = "invalid";
      r.detail = e.what();
      finish(path, r, failed_);
      ++stats_.invalid;
      t_invalid.add();
      return false;
    }
    r.kind = to_string(spec.kind);

    // Admission: depth counts the waiting queue plus this request.
    const std::size_t jobs =
        spec.jobs > 0 ? spec.jobs : opts_.execution.resolved_jobs();
    const AdmissionVerdict verdict =
        admission_.decide(queue_depth() + 1, spec.estimated_bytes(jobs));
    if (verdict.decision == AdmissionDecision::Reject) {
      r.status = "rejected-overload";
      r.detail = verdict.reason;
      finish(path, r, failed_);
      ++stats_.rejected;
      t_rejected.add();
      return false;
    }
    const bool degraded = verdict.decision == AdmissionDecision::Degrade;
    if (degraded) {
      VS_LOG_WARN("serve: " << id << " degraded: " << verdict.reason);
      ++stats_.degraded;
      t_degraded.add();
    }
    r.degraded = degraded;

    const double deadline_s =
        spec.deadline_s > 0.0 ? spec.deadline_s : opts_.default_deadline_s;
    const Deadline request_deadline =
        Deadline::limited_by(opts_.stop, deadline_s);
    const double start = telemetry::monotonic_seconds();
    const auto own_deadline_elapsed = [&] {
      return deadline_s > 0.0 &&
             telemetry::monotonic_seconds() - start >= deadline_s;
    };

    RunOutcome outcome;
    const RetryRun retry = run_with_retry(
        opts_.retry, opts_.stop, retry_salt(id),
        [&](std::size_t) {
          outcome = execute(spec, degraded, jobs, request_deadline);
        },
        [&](double seconds) { interruptible_sleep(seconds, opts_.stop); });
    if (retry.attempts > 1) {
      stats_.retries += retry.attempts - 1;
      t_retries.add(static_cast<double>(retry.attempts - 1));
    }
    r.attempts = std::max<std::size_t>(1, retry.attempts);
    r.wall_seconds = telemetry::monotonic_seconds() - start;

    // Stop-token interruption dominates everything EXCEPT a request whose
    // own deadline had already elapsed (that one is terminal either way).
    if (opts_.stop.expired() && !own_deadline_elapsed()) {
      VS_LOG_INFO("serve: interrupted while running " << id
                                                      << "; kept in active/");
      return true;
    }

    if (!retry.ok) {
      if (request_deadline.expired() && own_deadline_elapsed()) {
        r.status = "timeout";
        ++stats_.timeout;
        t_timeout.add();
      } else {
        r.status = "failed";
        ++stats_.failed;
        t_failed.add();
      }
      r.detail = retry.last_error;
      r.aggregates = outcome.aggregates;  // last successful partials, if any
      finish(path, r, failed_);
      return false;
    }

    if (outcome.cancelled) {
      r.status = "timeout";
      ++stats_.timeout;
      t_timeout.add();
    } else {
      r.status = "ok";
      ++stats_.ok;
      t_ok.add();
    }
    r.aggregates = outcome.aggregates;
    r.detail = outcome.detail;
    finish(path, r, done_);
    return false;
  }

  // -- request execution ----------------------------------------------------

  core::ExecutionPolicy execution_for(std::size_t jobs,
                                      const Deadline& deadline) const {
    core::ExecutionPolicy policy = opts_.execution;
    policy.jobs = jobs;
    policy.deadline = deadline;
    return policy;
  }

  RunOutcome execute(const RequestSpec& spec, bool degraded,
                     std::size_t jobs, const Deadline& deadline) const {
    switch (spec.kind) {
      case RequestKind::Campaign:
        return execute_campaign(spec, degraded, jobs, deadline);
      case RequestKind::Contingency:
        return execute_contingency(spec, degraded, jobs, deadline);
      case RequestKind::Sweep:
        return execute_sweep(spec, jobs, deadline);
      case RequestKind::RideThrough:
        return execute_ride_through(spec, deadline);
    }
    VS_FAIL("unreachable request kind");
  }

  std::size_t effective_trials(const RequestSpec& spec, bool degraded) const {
    return degraded ? admission_.degraded_trials(spec.trials) : spec.trials;
  }

  /// The campaign a request describes, as a shard job plan carries it; the
  /// in-process and the shard-fleet paths both run this one spec.
  shard::JobSpec campaign_job(const RequestSpec& spec, bool degraded) const {
    shard::JobSpec job;
    job.stacked = spec.stacked;
    job.layers = spec.layers;
    job.grid = spec.grid;
    job.imbalance = spec.imbalance;
    job.trials = effective_trials(spec, degraded);
    job.faults_per_trial = spec.faults_per_trial;
    job.converter_faults_per_trial =
        shard::default_converter_faults(spec.stacked);
    job.seed = spec.seed;
    job.duration_s = spec.duration_s;
    job.fault_time_s =
        spec.fault_time_s > 0.0 ? spec.fault_time_s : spec.duration_s / 8.0;
    // Per-scenario wall timeouts couple results to machine speed; the
    // request deadline is the service's hang guard, so scenarios run
    // untimed and responses stay bit-reproducible.
    job.scenario_timeout_s = 0.0;
    return job;
  }

  /// The aggregate fields every campaign response carries.
  static std::string campaign_aggregates(const core::CampaignReport& report) {
    std::ostringstream agg;
    agg << ",\"trials\":" << report.planned
        << ",\"completed\":" << report.scenarios.size()
        << ",\"recovered\":" << report.recovered
        << ",\"degraded_outcomes\":" << report.degraded
        << ",\"lost\":" << report.lost
        << ",\"timed_out_scenarios\":" << report.timed_out
        << ",\"worst_droop\":" << fmt_double(report.worst_droop)
        << ",\"resumed\":" << report.resumed
        << ",\"evaluated\":" << report.evaluated;
    return agg.str();
  }

  RunOutcome execute_campaign(const RequestSpec& spec, bool degraded,
                              std::size_t jobs,
                              const Deadline& deadline) const {
    const shard::JobSpec job = campaign_job(spec, degraded);
    if (opts_.shard_workers > 0) {
      return execute_campaign_sharded(spec.id, job, jobs, deadline);
    }

    shard::CampaignSetup setup = shard::make_campaign(ctx_, job);
    setup.options.manifest_path =
        (root_ / "manifests" / (spec.id + ".jsonl")).string();
    setup.options.execution = execution_for(jobs, deadline);
    const core::CampaignRunner runner(ctx_, setup.config);
    const core::CampaignReport report =
        runner.run(setup.activities, setup.options);

    RunOutcome out;
    out.cancelled = report.cancelled;
    out.aggregates = campaign_aggregates(report);
    out.detail = report.summary();
    return out;
  }

  /// Campaign on a multi-process worker fleet: one job directory per
  /// request under root/jobs/<id>, supervised locally, merged back into
  /// the same aggregate shape the in-process path answers with.  Worker
  /// crashes and poison scenarios are isolated from the server process;
  /// quarantined trials surface in the aggregates instead of wedging the
  /// request in a crash loop.
  RunOutcome execute_campaign_sharded(const std::string& id,
                                      const shard::JobSpec& job,
                                      std::size_t jobs,
                                      const Deadline& deadline) const {
    shard::SupervisorOptions sup;
    sup.job_dir = (root_ / "jobs" / id).string();
    sup.shards = opts_.shard_workers;
    sup.worker_command = opts_.worker_command;
    sup.worker_jobs = jobs > 0 ? jobs : 1;
    sup.stop = deadline;

    const shard::SupervisorReport result =
        shard::run_supervised_job(ctx_, job, sup);
    std::ostringstream agg;
    // A merge never resumes, so "resumed" reads 0 here.
    agg << campaign_aggregates(result.merge.report)
        << ",\"shard_workers\":" << sup.shards
        << ",\"worker_restarts\":" << result.workers_restarted
        << ",\"quarantined\":" << result.merge.quarantined_trials.size();
    RunOutcome out;
    // Quarantine is a terminal verdict for those trials, not a truncation:
    // only a fired deadline (or trials nobody could finish) re-queues work.
    out.cancelled =
        result.interrupted || !result.merge.missing_trials.empty();
    out.aggregates = agg.str();
    out.detail = result.merge.summary();
    return out;
  }

  RunOutcome execute_contingency(const RequestSpec& spec, bool degraded,
                                 std::size_t jobs,
                                 const Deadline& deadline) const {
    const auto cfg =
        shard::job_stackup(ctx_, spec.stacked, spec.layers, spec.grid);
    const auto acts = power::interleaved_layer_activities(cfg.layer_count,
                                                          spec.imbalance);
    core::ContingencyOptions opt;
    opt.trials = effective_trials(spec, degraded);
    opt.faults_per_trial = spec.faults_per_trial;
    opt.seed = spec.seed;
    opt.execution = execution_for(jobs, deadline);

    const core::ContingencyEngine engine(ctx_, cfg);
    const core::ContingencyReport report =
        spec.monte_carlo ? engine.run_monte_carlo(acts, opt)
                         : engine.run_n_minus_1(acts, opt);

    std::ostringstream agg;
    agg << ",\"cases\":" << report.planned
        << ",\"completed\":" << report.cases.size()
        << ",\"survivable\":" << report.survivable
        << ",\"degraded_cases\":" << report.degraded
        << ",\"infeasible\":" << report.infeasible
        << ",\"worst_deviation\":"
        << fmt_double(report.worst_post_fault_deviation);
    RunOutcome out;
    out.cancelled = report.cancelled;
    out.aggregates = agg.str();
    return out;
  }

  RunOutcome execute_sweep(const RequestSpec& spec, std::size_t jobs,
                           const Deadline& deadline) const {
    // Sweeps reproduce the paper's figure shapes from ctx directly; the
    // request's stack-shape keys do not apply (documented in
    // docs/service_mode.md).
    core::SweepOptions so;
    so.execution = execution_for(jobs, deadline);
    const core::SweepRunner sweeps(ctx_, so);

    core::Fnv1a hash;
    std::size_t rows = 0;
    if (spec.figure == "5a") {
      for (const auto& r : sweeps.fig5a()) {
        ++rows;
        hash.f64(static_cast<double>(r.layers));
        hash.f64(r.reg_dense);
        hash.f64(r.reg_sparse);
        hash.f64(r.reg_few);
        hash.f64(r.vs_few);
      }
    } else if (spec.figure == "5b") {
      for (const auto& r : sweeps.fig5b()) {
        ++rows;
        hash.f64(static_cast<double>(r.layers));
        hash.f64(r.reg_25);
        hash.f64(r.reg_50);
        hash.f64(r.reg_75);
        hash.f64(r.reg_100);
        hash.f64(r.vs);
      }
    } else if (spec.figure == "6") {
      const auto result = sweeps.fig6({0.0, 0.25, 0.5, 0.75, 1.0});
      for (const auto& row : result.rows) {
        ++rows;
        hash.f64(row.imbalance);
        for (const auto& v : row.vs_noise) hash.f64(v ? *v : -1.0);
      }
    } else if (spec.figure == "7") {
      for (const auto& app : sweeps.fig7()) {
        ++rows;
        hash.f64(app.power.median);
        hash.f64(app.max_imbalance);
      }
    } else {
      const auto result = sweeps.fig8({0.1, 0.3, 0.5, 0.7, 0.9});
      for (const auto& row : result.rows) {
        ++rows;
        hash.f64(row.imbalance);
        for (const auto& v : row.vs_efficiency) {
          hash.f64(v ? *v : -1.0);
        }
        hash.f64(row.regular_sc);
      }
    }

    std::ostringstream agg;
    agg << ",\"figure\":\"" << spec.figure << "\",\"rows\":" << rows
        << ",\"data_hash\":\"" << hex64(hash.h) << "\"";
    RunOutcome out;
    // The figure drivers have no committed-count channel; an expired
    // deadline means the tail rows were skipped, so label it truncated.
    out.cancelled = deadline.expired();
    out.aggregates = agg.str();
    return out;
  }

  RunOutcome execute_ride_through(const RequestSpec& spec,
                                  const Deadline& deadline) const {
    const auto cfg =
        shard::job_stackup(ctx_, spec.stacked, spec.layers, spec.grid);
    const auto acts = power::interleaved_layer_activities(cfg.layer_count,
                                                          spec.imbalance);
    const pdn::PdnModel model(cfg, ctx_.layer_floorplan);

    pdn::RideThroughOptions opt;
    opt.transient.duration = spec.duration_s;
    opt.supervisor = shard::calibrated_supervisor();
    opt.transient.control.deadline = deadline;
    opt.transient.iterative.deadline = deadline;

    const std::size_t fault_level =
        spec.fault_level > 0
            ? spec.fault_level
            : std::min<std::size_t>(3, cfg.layer_count - 1);
    VS_REQUIRE(fault_level >= 1 && fault_level < cfg.layer_count,
               "fault_level must name an intermediate rail (1..layers-1)");
    pdn::TimedFaultEvent ev;
    ev.time = spec.fault_time_s > 0.0 ? spec.fault_time_s
                                      : spec.duration_s / 2.0;
    ev.label = "converter bank stuck-off";
    pdn::stick_off_converter_bank(ev.faults, model.network(), fault_level,
                                  spec.keep);
    opt.fault_events.push_back(std::move(ev));

    const auto result =
        pdn::simulate_ride_through(model, ctx_.core_model, acts, opt);
    const auto& rep = result.report;

    std::ostringstream agg;
    agg << ",\"outcome\":\"" << pdn::to_string(rep.outcome)
        << "\",\"completed\":" << (rep.ok() ? 1 : 0)
        << ",\"worst_droop\":" << fmt_double(rep.worst_droop)
        << ",\"final_droop\":" << fmt_double(rep.final_droop)
        << ",\"actions\":" << rep.actions.size();
    RunOutcome out;
    out.cancelled = !rep.ok() && deadline.expired();
    out.aggregates = agg.str();
    out.detail = rep.transient.summary();
    return out;
  }

  // -- health ---------------------------------------------------------------

  void write_health() {
    std::ostringstream oss;
    oss << "{\"kind\":\"vstack-health\",\"queue_depth\":" << queue_depth()
        << ",\"active\":" << sorted_requests(active_).size()
        << ",\"served\":" << stats_.served << ",\"ok\":" << stats_.ok
        << ",\"failed\":" << stats_.failed
        << ",\"timeout\":" << stats_.timeout
        << ",\"invalid\":" << stats_.invalid
        << ",\"rejected_overload\":" << stats_.rejected
        << ",\"degraded\":" << stats_.degraded
        << ",\"retries\":" << stats_.retries
        << ",\"recovered\":" << stats_.recovered
        << ",\"stopping\":" << (opts_.stop.expired() ? 1 : 0)
        << ",\"metrics\":" << telemetry::metrics_json() << "}\n";
    try {
      VS_FAILPOINT("server.health.write");
      atomic_write_file((root_ / "health.json").string(), oss.str());
    } catch (const std::exception& e) {
      // Health is advisory; never let a snapshot failure kill the server.
      VS_LOG_WARN("serve: health snapshot failed: " << e.what());
    }
  }

  const core::StudyContext& ctx_;
  const ServerOptions& opts_;
  AdmissionController admission_;
  fs::path root_;
  fs::path incoming_;
  fs::path active_;
  fs::path done_;
  fs::path failed_;
  DurableAppender responses_;
  ServerStats stats_;
};

}  // namespace

ServerStats SpoolServer::run() {
  VS_SPAN("service.server.run");
  ServerRun run(ctx_, options_);
  return run.run();
}

}  // namespace vstack::service
