#include "shard/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "common/durable_file.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace vstack::shard {

namespace fs = std::filesystem;

namespace {

const telemetry::Counter t_started("shard.workers.started");
const telemetry::Counter t_restarted("shard.workers.restarted");

constexpr double kPollS = 0.2;     // reap/health poll period [s]
constexpr double kBackoffS = 0.5;  // initial restart backoff (doubles, cap 16x)

struct Slot {
  pid_t pid = -1;
  std::string worker_id;
  std::size_t restarts = 0;
  std::size_t consecutive_crashes = 0;
  double next_start_s = 0.0;  // monotonic_seconds gate for backoff
  bool done = false;
  bool failed = false;  // exhausted max_restarts
};

pid_t spawn_worker(const SupervisorOptions& opts, const std::string& id) {
  std::vector<std::string> argv_s = opts.worker_command;
  argv_s.push_back("worker");
  argv_s.push_back("--job-dir=" + opts.job_dir);
  argv_s.push_back("--worker-id=" + id);
  argv_s.push_back("--jobs=" + std::to_string(opts.worker_jobs));
  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  VS_REQUIRE(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // execv only returns on failure; stderr is shared with the parent.
    ::perror("shard supervisor: execv");
    ::_exit(127);
  }
  return pid;
}

}  // namespace

void SupervisorOptions::validate() const {
  VS_REQUIRE(!job_dir.empty(), "supervisor needs a job_dir");
  VS_REQUIRE(shards >= 1, "supervisor needs at least one shard");
  VS_REQUIRE(!worker_command.empty() && !worker_command.front().empty(),
             "supervisor needs a worker command");
}

SupervisorReport run_supervised_job(const core::StudyContext& ctx,
                                    const JobSpec& spec,
                                    const SupervisorOptions& opts) {
  opts.validate();
  const JobPaths paths(opts.job_dir);
  publish_plan(paths, spec, job_config_hash(ctx, spec));

  // A previous fleet killed mid-atomic_write_file leaves orphan
  // `*.tmp.<pid>` files (health, done markers, quarantine records).  Sweep
  // them now, before any worker exists -- with workers live this would race
  // against their in-flight temp files.
  const std::size_t swept = sweep_stale_temp_files(opts.job_dir,
                                                   /*recursive=*/true);
  if (swept > 0) {
    VS_LOG_WARN("shard: swept " << swept
                                << " stale temp file(s) from " << opts.job_dir);
  }

  const std::size_t chunks = spec.chunk_count();
  const auto resolved_chunks = [&] {
    std::size_t done = 0, quarantined = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      if (fs::exists(paths.done(c))) ++done;
      else if (fs::exists(paths.quarantine(c))) ++quarantined;
    }
    return std::make_pair(done, quarantined);
  };

  SupervisorReport report;
  std::vector<Slot> slots(opts.shards);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].worker_id = "w" + std::to_string(i);
    slots[i].pid = spawn_worker(opts, slots[i].worker_id);
    ++report.workers_started;
    t_started.add();
  }

  const auto write_health = [&] {
    const auto [done, quarantined] = resolved_chunks();
    std::size_t live = 0;
    for (const Slot& s : slots) live += s.pid >= 0 ? 1 : 0;
    std::ostringstream oss;
    oss << "{\"kind\":\"vstack-shard-health\",\"chunks\":" << chunks
        << ",\"done\":" << done << ",\"quarantined\":" << quarantined
        << ",\"workers_live\":" << live
        << ",\"workers_restarted\":" << report.workers_restarted
        << ",\"metrics\":" << telemetry::metrics_json() << "}\n";
    // Health snapshots are advisory observability: a full disk or flaky
    // filesystem must not take down a supervisor mid-campaign.  Log and
    // carry on; the next interval retries.
    try {
      VS_FAILPOINT("supervisor.health.write");
      atomic_write_file(paths.health(), oss.str());
    } catch (const std::exception& e) {
      VS_LOG_WARN("shard: health write failed (continuing): " << e.what());
    }
  };

  bool terminated = false;  // SIGTERM already forwarded to the fleet
  double last_health = telemetry::monotonic_seconds();
  write_health();
  for (;;) {
    const double now = telemetry::monotonic_seconds();
    if (opts.stop.expired() && !terminated) {
      report.interrupted = true;
      terminated = true;
      for (const Slot& s : slots) {
        if (s.pid >= 0) ::kill(s.pid, SIGTERM);
      }
    }

    // Reap every exited child.
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      Slot* slot = nullptr;
      for (Slot& s : slots) {
        if (s.pid == pid) slot = &s;
      }
      if (!slot) continue;  // not ours (shouldn't happen)
      slot->pid = -1;
      const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      // Exit 4 is the repo-wide "interrupted by signal" code; after WE sent
      // SIGTERM it is the expected way for a worker to finish.
      const bool stopped =
          terminated && WIFEXITED(status) && WEXITSTATUS(status) == 4;
      if (clean_exit || stopped) {
        slot->done = true;
        slot->consecutive_crashes = 0;
        continue;
      }
      // Crash (signal, _exit(86) poison hook, nonzero): restart with
      // exponential backoff unless the slot is exhausted.
      ++slot->consecutive_crashes;
      if (slot->restarts >= opts.max_restarts) {
        slot->failed = true;
        ++report.failed_slots;
        VS_LOG_ERROR("shard: worker "
                     << slot->worker_id << " exhausted " << opts.max_restarts
                     << " restarts; abandoning the slot");
        continue;
      }
      const double factor =
          static_cast<double>(1u << (slot->consecutive_crashes > 4
                                         ? 4
                                         : slot->consecutive_crashes - 1));
      slot->next_start_s = now + kBackoffS * factor;
      VS_LOG_WARN("shard: worker " << slot->worker_id << " died ("
                                   << (WIFSIGNALED(status)
                                           ? "signal " +
                                                 std::to_string(WTERMSIG(status))
                                           : "exit " + std::to_string(
                                                           WEXITSTATUS(status)))
                                   << "); restart in "
                                   << kBackoffS * factor << " s");
    }

    // Restart due slots (never after stop: the fleet is draining).
    if (!terminated) {
      for (Slot& s : slots) {
        if (s.pid < 0 && !s.done && !s.failed && now >= s.next_start_s) {
          s.pid = spawn_worker(opts, s.worker_id);
          ++s.restarts;
          ++report.workers_restarted;
          t_restarted.add();
        }
      }
    }

    if (opts.health_interval_s > 0.0 &&
        now - last_health >= opts.health_interval_s) {
      write_health();
      last_health = now;
    }

    // Fleet drained?  (A failed slot's chunks are still reachable by the
    // other slots via lease expiry, so "drained" is purely about pids.)
    bool any_live = false;
    bool any_pending = false;
    for (const Slot& s : slots) {
      any_live = any_live || s.pid >= 0;
      any_pending = any_pending || (!s.done && !s.failed);
    }
    if (!any_live && (terminated || !any_pending)) break;
    // Poll again: reap live workers, or wait out a restart backoff.
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollS));
  }

  write_health();
  // Crash here: every chunk is resolved but merged.jsonl was never
  // produced -- re-running the supervisor (or `vstack_cli merge`) must
  // complete the job from the shard manifests alone.
  VS_FAILPOINT("supervisor.before_merge");
  report.merge = merge_job(ctx, opts.job_dir);
  return report;
}

}  // namespace vstack::shard
