#include "chaos/explorer.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>

#include "common/durable_file.h"
#include "common/error.h"

namespace vstack::chaos {

namespace fs = std::filesystem;

namespace {

struct RunResult {
  int exit_code = -1;
  bool signaled = false;
  int signal = 0;

  std::string describe() const {
    return signaled ? "signal " + std::to_string(signal)
                    : "exit " + std::to_string(exit_code);
  }
};

/// One environment override for a child run; empty value = unset.
using EnvSpec = std::vector<std::pair<std::string, std::string>>;

/// Fork/exec one CLI run with stdout+stderr captured to `log_path`.  The
/// three failpoint channels are always cleared first so a schedule's
/// environment never leaks into the next run (or in from the caller).
RunResult run_cli(const std::string& cli,
                  const std::vector<std::string>& args, const EnvSpec& env,
                  const std::string& log_path) {
  const pid_t pid = ::fork();
  VS_REQUIRE(pid >= 0, "chaos explorer: fork failed");
  if (pid == 0) {
    ::unsetenv("VSTACK_FAILPOINTS");
    ::unsetenv("VSTACK_FAILPOINT_CENSUS");
    ::unsetenv("VSTACK_FAILPOINTS_ONCE");
    ::unsetenv("VSTACK_SHARD_CRASH_TRIAL");
    for (const auto& [key, value] : env) {
      if (value.empty()) ::unsetenv(key.c_str());
      else ::setenv(key.c_str(), value.c_str(), 1);
    }
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    std::vector<std::string> argv_s;
    argv_s.push_back(cli);
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execv(cli.c_str(), argv.data());
    ::_exit(126);  // exec failed
  }
  int status = 0;
  pid_t got;
  do {
    got = ::waitpid(pid, &status, 0);
  } while (got < 0 && errno == EINTR);
  RunResult r;
  if (got == pid && WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (got == pid && WIFSIGNALED(status)) {
    r.signaled = true;
    r.signal = WTERMSIG(status);
  }
  return r;
}

/// Manifest masking (same convention as tests/scripts/shard_chaos.sh):
/// wall_seconds is the one field measuring real time, not physics.
std::string mask_manifest(const std::string& text) {
  static const std::regex kMask(R"(,"wall_seconds":[^,}]*)");
  return std::regex_replace(text, kMask, "");
}

/// Response masking (same convention as tests/scripts/serve_chaos.sh):
/// wall time, retry bookkeeping, and resume counters legitimately depend
/// on where an injection landed; the physics fields must not.
std::string mask_response(const std::string& line) {
  static const std::regex kMask(
      R"re("(wall_seconds|attempts|resumed|evaluated)":[^,}]*|"detail":"[^"]*")re");
  return std::regex_replace(line, kMask, "");
}

/// Per-process hit counts from a census file (one point name per line).
std::map<std::string, std::uint64_t> parse_census(const fs::path& path) {
  std::map<std::string, std::uint64_t> counts;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++counts[line];
  }
  return counts;
}

/// One explorable workload: how to set up its inputs, run it, and reduce
/// its on-disk outcome to a canonical artifact string (masked, ordered,
/// invariant-checked -- an artifact mismatch IS a failed invariant).
struct Workload {
  std::string name;
  std::vector<std::string> (*command)(const fs::path& dir);
  void (*prepare)(const fs::path& dir);
  std::string (*artifact)(const fs::path& dir);
};

// -- shard workload ---------------------------------------------------------
//
// A sharded campaign (supervisor + 2 forked workers, chunk=1) whose merged
// manifest must be bit-identical (masked) to the serial run's -- the
// exactly-once-commit invariant under any crash schedule.

const char* kCampaignArgs[] = {
    "--layers=2",  "--grid=4", "--trials=3", "--faults=1",
    "--seed=7",    "--timeout=0",
};

std::vector<std::string> shard_command(const fs::path& dir) {
  std::vector<std::string> args{"campaign"};
  args.insert(args.end(), std::begin(kCampaignArgs), std::end(kCampaignArgs));
  args.insert(args.end(),
              {"--jobs=1", "--shards=2", "--chunk=1", "--max-attempts=4",
               "--lease-expiry=1", "--heartbeat=0.2",
               "--job-dir=" + (dir / "job").string()});
  return args;
}

void shard_prepare(const fs::path&) {}  // the CLI creates the job dir

std::string shard_artifact(const fs::path& dir) {
  return mask_manifest(read_file((dir / "job" / "merged.jsonl").string()));
}

// -- serve workload ---------------------------------------------------------
//
// A spool-server drain over a fixed request batch (resumable campaign,
// contingency, one invalid request).  Every request must reach exactly one
// terminal state with masked responses identical to the uninterrupted run.

const char* kServeRequestIds[] = {"a_camp", "b_cont", "d_bad"};

std::vector<std::string> serve_command(const fs::path& dir) {
  return {"serve",     "--spool=" + (dir / "spool").string(),
          "--jobs=1",  "--degrade-divisor=1",
          "--poll=0.05", "--idle-exit=0.4"};
}

void serve_prepare(const fs::path& dir) {
  const fs::path incoming = dir / "spool" / "incoming";
  fs::create_directories(incoming);
  std::ofstream(incoming / "a_camp.req")
      << "id = a_camp\nkind = campaign\ntopology = stacked\nlayers = 2\n"
         "grid = 4\ntrials = 2\nfaults = 1\nseed = 42\n";
  std::ofstream(incoming / "b_cont.req")
      << "id = b_cont\nkind = contingency\ntopology = stacked\nlayers = 2\n"
         "grid = 4\ntrials = 2\nfaults = 1\nseed = 11\n";
  std::ofstream(incoming / "d_bad.req") << "kind = warp\n";
}

std::string serve_artifact(const fs::path& dir) {
  const fs::path spool = dir / "spool";
  std::map<std::string, std::string> by_id;
  std::ifstream in(spool / "results" / "responses.jsonl");
  VS_REQUIRE(static_cast<bool>(in),
             "serve artifact: no responses.jsonl under " + spool.string());
  static const std::regex kId(R"re("id":"([^"]*)")re");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::smatch m;
    VS_REQUIRE(std::regex_search(line, m, kId),
               "serve artifact: response line without an id: " + line);
    const auto [it, inserted] = by_id.emplace(m[1], mask_response(line));
    VS_REQUIRE(inserted, "serve artifact: DUPLICATE response for id '" +
                             it->first + "' (answered twice)");
  }
  std::ostringstream out;
  for (const char* id : kServeRequestIds) {
    VS_REQUIRE(by_id.count(id) > 0,
               std::string("serve artifact: no response for '") + id + "'");
    // Exactly-one-terminal-state: the request file sits in done/ or
    // failed/, never both, never still queued.
    std::string stage;
    for (const char* dir_name : {"done", "failed"}) {
      if (fs::exists(spool / dir_name / (std::string(id) + ".req"))) {
        VS_REQUIRE(stage.empty(), std::string("serve artifact: '") + id +
                                      "' present in both done/ and failed/");
        stage = dir_name;
      }
    }
    VS_REQUIRE(!stage.empty(), std::string("serve artifact: '") + id +
                                   "' reached no terminal directory");
    for (const char* dir_name : {"incoming", "active"}) {
      VS_REQUIRE(!fs::exists(spool / dir_name / (std::string(id) + ".req")),
                 std::string("serve artifact: '") + id + "' still in " +
                     dir_name + "/");
    }
    out << id << "\t" << stage << "\t" << by_id[id] << "\n";
  }
  return out.str();
}

// -- schedule machinery -----------------------------------------------------

struct Schedule {
  std::string point;
  std::uint64_t hit = 1;
  std::string action;  // "crash" | "err:EIO" | ...
  bool is_crash = false;
};

std::string sanitize_dir_name(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '/' || c == ':') c = '_';
  }
  return out;
}

void narrate(std::ostream* out, const std::string& line) {
  if (out) *out << line << "\n" << std::flush;
}

/// Run one schedule end to end: inject, observe, recover, compare.
ScheduleResult run_schedule(const ExplorerOptions& opts,
                            const Workload& workload, const Schedule& sched,
                            const fs::path& dir,
                            const std::string& reference) {
  ScheduleResult result;
  result.workload = workload.name;
  result.point = sched.point;
  result.hit = sched.hit;
  result.action = sched.action;

  const fs::path once = dir / "once";
  fs::create_directories(once);
  workload.prepare(dir);

  const std::string spec =
      sched.point + "=" + sched.action + "@" + std::to_string(sched.hit);
  const RunResult injected = run_cli(
      opts.cli_path, workload.command(dir),
      {{"VSTACK_FAILPOINTS", spec}, {"VSTACK_FAILPOINTS_ONCE", once.string()}},
      (dir / "run.log").string());
  result.fired = fs::exists(once / (sched.point + "@" +
                                    std::to_string(sched.hit) + ".fired"));

  const auto fail = [&](const std::string& why) {
    result.passed = false;
    result.detail = why + " [logs: " + dir.string() + "]";
    return result;
  };

  // Injected errors must surface as clean diagnostics (or be absorbed);
  // injected crashes _exit(137) -- neither may die by signal.
  if (injected.signaled) {
    return fail("workload killed by " + injected.describe() +
                " under injection");
  }

  bool recovered = false;
  if (injected.exit_code != 0) {
    if (sched.is_crash) {
      if (!(result.fired && injected.exit_code == 137)) {
        return fail("unexpected " + injected.describe() + " under injection" +
                    (result.fired ? "" : " (schedule never fired)"));
      }
    } else {
      // err actions map onto the CLI's ordinary failure codes (1 usage/
      // I/O error, 2 incomplete, 3 outcome failure) -- anything else
      // means the diagnostic path itself is broken.
      if (!result.fired || injected.exit_code > 3) {
        return fail("unexpected " + injected.describe() + " under injection" +
                    (result.fired ? "" : " (schedule never fired)"));
      }
    }
    // Restart without injection: recovery must complete cleanly.
    const RunResult recovery =
        run_cli(opts.cli_path, workload.command(dir), {},
                (dir / "recovery.log").string());
    if (recovery.signaled || recovery.exit_code != 0) {
      return fail("recovery run failed with " + recovery.describe());
    }
    recovered = true;
  }

  // The artifact must be bit-identical (masked) to the reference whether
  // the injection was absorbed, survived, or recovered from.
  std::string artifact;
  try {
    artifact = workload.artifact(dir);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (artifact != reference) {
    return fail("artifact differs from the uninjected reference");
  }

  result.passed = true;
  result.detail = !result.fired  ? "not fired"
                  : recovered    ? "fired; recovered"
                                 : "fired; absorbed";
  std::error_code ec;
  fs::remove_all(dir, ec);  // keep only failing schedules for post-mortem
  return result;
}

Workload make_workload(const std::string& name) {
  if (name == "shard") {
    return {"shard", shard_command, shard_prepare, shard_artifact};
  }
  return {"serve", serve_command, serve_prepare, serve_artifact};
}

/// Reference + census for one workload.  Returns the reference artifact
/// and fills `counts` with the census totals.
std::string run_baseline(const ExplorerOptions& opts, const Workload& w,
                         const fs::path& root,
                         std::map<std::string, std::uint64_t>& counts) {
  const fs::path ref_dir = root / "reference";
  fs::create_directories(ref_dir);
  w.prepare(ref_dir);
  const RunResult ref = run_cli(opts.cli_path, w.command(ref_dir), {},
                                (ref_dir / "run.log").string());
  VS_REQUIRE(!ref.signaled && ref.exit_code == 0,
             "chaos explorer: " + w.name + " reference run failed with " +
                 ref.describe() + " (log: " +
                 (ref_dir / "run.log").string() + ")");
  const std::string reference = w.artifact(ref_dir);

  const fs::path census_dir = root / "census";
  fs::create_directories(census_dir);
  w.prepare(census_dir);
  const fs::path census_file = census_dir / "census.txt";
  const RunResult census =
      run_cli(opts.cli_path, w.command(census_dir),
              {{"VSTACK_FAILPOINT_CENSUS", census_file.string()}},
              (census_dir / "run.log").string());
  VS_REQUIRE(!census.signaled && census.exit_code == 0,
             "chaos explorer: " + w.name + " census run failed with " +
                 census.describe());
  VS_REQUIRE(w.artifact(census_dir) == reference,
             "chaos explorer: " + w.name +
                 " census run artifact differs from reference -- the census "
                 "channel must be observation-only");
  counts = parse_census(census_file);
  VS_REQUIRE(!counts.empty(),
             "chaos explorer: " + w.name +
                 " census saw no failpoint evaluations -- was the CLI built "
                 "with -DVSTACK_FAILPOINTS=OFF?");
  return reference;
}

}  // namespace

void ExplorerOptions::validate() const {
  VS_REQUIRE(!cli_path.empty(), "chaos explorer needs a CLI path");
  VS_REQUIRE(!work_dir.empty(), "chaos explorer needs a work dir");
  VS_REQUIRE(workload == "shard" || workload == "serve" || workload == "both",
             "workload must be shard|serve|both");
  VS_REQUIRE(mode == "crash" || mode == "err" || mode == "both",
             "mode must be crash|err|both");
  VS_REQUIRE(max_hits >= 1, "max_hits must be >= 1");
}

std::size_t ExplorerReport::passed() const {
  return static_cast<std::size_t>(
      std::count_if(schedules.begin(), schedules.end(),
                    [](const ScheduleResult& s) { return s.passed; }));
}

std::size_t ExplorerReport::failed() const {
  return schedules.size() - passed();
}

std::size_t ExplorerReport::fired() const {
  return static_cast<std::size_t>(
      std::count_if(schedules.begin(), schedules.end(),
                    [](const ScheduleResult& s) { return s.fired; }));
}

std::string ExplorerReport::summary() const {
  std::ostringstream oss;
  oss << schedules.size() << " schedules over " << census_points
      << " failpoints: " << passed() << " passed, " << failed() << " failed ("
      << fired() << " fired";
  if (skipped > 0) oss << "; " << skipped << " dropped by --max-schedules";
  oss << ")";
  return oss.str();
}

ExplorerReport run_explorer(const ExplorerOptions& options) {
  options.validate();
  VS_REQUIRE(fs::exists(options.cli_path),
             "chaos explorer: no CLI at '" + options.cli_path + "'");
  const fs::path root(options.work_dir);
  fs::create_directories(root);

  std::vector<std::string> workloads;
  if (options.workload == "both") workloads = {"shard", "serve"};
  else workloads = {options.workload};

  ExplorerReport report;
  std::set<std::string> all_points;
  for (const std::string& name : workloads) {
    const Workload w = make_workload(name);
    const fs::path wroot = root / name;
    std::map<std::string, std::uint64_t> counts;
    narrate(options.out, name + ": reference + census runs...");
    const std::string reference = run_baseline(options, w, wroot, counts);
    for (const auto& [point, hits] : counts) all_points.insert(point);

    // Build the schedule list: every (point, hit) crash up to max_hits,
    // then every (point, errno) at hit 1.
    std::vector<Schedule> schedules;
    if (options.mode != "err") {
      for (const auto& [point, hits] : counts) {
        const std::uint64_t top = std::min<std::uint64_t>(options.max_hits,
                                                          hits);
        for (std::uint64_t h = 1; h <= top; ++h) {
          schedules.push_back({point, h, "crash", true});
        }
      }
    }
    if (options.mode != "crash") {
      for (const auto& [point, hits] : counts) {
        for (const std::string& e : options.errnos) {
          schedules.push_back({point, 1, "err:" + e, false});
        }
      }
    }
    if (options.max_schedules > 0 &&
        schedules.size() > options.max_schedules) {
      report.skipped += schedules.size() - options.max_schedules;
      narrate(options.out,
              name + ": capping " + std::to_string(schedules.size()) +
                  " schedules at " + std::to_string(options.max_schedules) +
                  " (--max-schedules); dropped coverage is counted, not "
                  "silent");
      schedules.resize(options.max_schedules);
    }

    narrate(options.out, name + ": " + std::to_string(counts.size()) +
                             " failpoints, " +
                             std::to_string(schedules.size()) + " schedules");
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      const Schedule& s = schedules[i];
      const fs::path dir =
          wroot / (std::to_string(i) + "_" + sanitize_dir_name(s.point) +
                   "@" + std::to_string(s.hit) + "_" +
                   sanitize_dir_name(s.action));
      const ScheduleResult r =
          run_schedule(options, w, s, dir, reference);
      narrate(options.out,
              "  [" + std::to_string(i + 1) + "/" +
                  std::to_string(schedules.size()) + "] " + s.point + "@" +
                  std::to_string(s.hit) + " " + s.action + ": " +
                  (r.passed ? "ok (" + r.detail + ")" : "FAIL " + r.detail));
      report.schedules.push_back(r);
    }
  }
  report.census_points = all_points.size();
  return report;
}

}  // namespace vstack::chaos
