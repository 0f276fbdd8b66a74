// vbench_driver: runs one benchmark workload against the vstack libraries
// and prints its metrics as the last line of standard output.
//
//   vbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                 [--scratch DIR] [--out DIR] [--fixtures DIR] [--setup-only]
//
// --trace 0 times repetitions of the workload with tracing off for S
// seconds and reports the end-to-end metrics.  --trace 1 spends part of
// the budget on untraced repetitions (the overhead baseline) and the rest
// on traced ones, then reports the per-layer metrics and writes the trace
// and a layer report to --out.  --setup-only stops after set-up and prints
// the CLOCK_MONOTONIC time it finished, for run.py's set-up timing.
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "la/backend.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace {

using namespace vbench;
namespace telemetry = vstack::telemetry;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string scratch = ".bench_build/run";
  std::string out = ".bench_build/out";
  std::string fixtures = "tests/data/pgio";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "vbench_driver: " << why
            << "\nusage: vbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--out DIR] [--fixtures DIR] "
               "[--setup-only]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      errno = 0;
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || *end != '\0' || value.empty()) usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0)) {
        usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--scratch") {
      a.scratch = value;
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--fixtures") {
      a.fixtures = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void make_dirs(const std::string& path) {
  for (std::size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create " + prefix + ": " +
                               std::strerror(errno));
    }
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Build provenance, stamped into every result.
std::string provenance_json(const Args& args) {
  const auto& b = telemetry::build_info();
  std::ostringstream o;
  o << "{\"git_describe\": " << json_string(b.version)
    << ", \"build_type\": " << json_string(b.build_type)
    << ", \"sanitizer\": " << json_string(b.sanitizer)
    << ", \"telemetry\": " << (b.telemetry_enabled ? "true" : "false")
    << ", \"failpoints\": " << (VSTACK_FAILPOINTS_ENABLED ? "true" : "false")
    << ", \"la_backend\": "
    << json_string(vstack::la::default_backend().name())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"jobs\": " << kJobs << ", \"workload\": " << json_string(args.workload)
    << ", \"seed\": " << args.seed << "}";
  return o.str();
}

/// The benchmark measures optimized, uninstrumented-by-sanitizer builds
/// only; anything else would make every number meaningless.
void require_release_build() {
  const auto& b = telemetry::build_info();
  if (b.build_type != "Release" || b.sanitizer != "none") {
    std::cerr << "vbench_driver: refusing to report from a '" << b.build_type
              << "' build with sanitizer '" << b.sanitizer
              << "'; configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "sanitizer\n";
    std::exit(3);
  }
}

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics, in the order BENCHMARK.json lists them.  Every traced
// run reports all of them; a layer the workload never enters reads 0.
constexpr Metric kPerLayer[] = {
    {"core.sweep.fig5a_s", "s"},
    {"core.sweep.fig5b_s", "s"},
    {"core.sweep.fig6_s", "s"},
    {"core.sweep.fig7_s", "s"},
    {"core.sweep.fig8_s", "s"},
    {"core.task_pool.commit_wait_s", "s"},
    {"core.task_pool.chunk_s_p95", "s"},
    {"pdn.dc_solves", "count"},
    {"pdn.model_build_s", "s"},
    {"pdn.dc_solve_s", "s"},
    {"core.campaign.plan_s", "s"},
    {"core.campaign.run_s", "s"},
    {"core.campaign.scenario_s_p50", "s"},
    {"core.campaign.scenario_s_max", "s"},
    {"pdn.step_cache.hits", "count"},
    {"pdn.step_cache.misses", "count"},
    {"pdn.step_cache.hit_ratio", "ratio"},
    {"la.solver_binds", "count"},
    {"la.cg_calls", "count"},
    {"la.cg_iterations", "count"},
    {"la.cg_solve_s", "s"},
    {"la.bind_s", "s"},
    {"la.solve_s", "s"},
    {"la.dc_iterations", "count"},
    {"sim.accepted_steps", "count"},
    {"sim.rejected_steps", "count"},
    {"sim.steps_per_period", "count"},
    {"sim.host_us_per_step", "us"},
    {"circuit.point_s_p50", "s"},
    {"circuit.point_s_max", "s"},
    {"pgio.parse_s", "s"},
    {"pgio.parse_mib_per_s", "MiB/s"},
    {"pgio.import_s", "s"},
    {"pgio.stamp_s", "s"},
    {"pgio.dc_solve_s", "s"},
    {"pgio.n1_s", "s"},
    {"pgio.n1_case_s_p50", "s"},
    {"pgio.load_step_s", "s"},
    {"pgio.load_step_iters_per_step", "count"},
    {"common.manifest_commits", "count"},
    {"telemetry.trace_overhead", "ratio"},
    {"telemetry.trace_dropped", "count"},
    {"telemetry.unattributed_share", "ratio"},
    {"self.core_s", "s"},
    {"self.pdn_s", "s"},
    {"self.la_s", "s"},
    {"self.sim_s", "s"},
    {"self.circuit_s", "s"},
    {"self.sc_s", "s"},
    {"self.pgio_s", "s"},
};

/// Generic per-layer figures of one traced rep, from the telemetry snapshot
/// and the trace.
std::map<std::string, double> telemetry_layers(
    const telemetry::MetricsSnapshot& snap,
    const std::vector<telemetry::TraceEvent>& events,
    const TraceAnalysis& analysis) {
  std::map<std::string, double> m;
  const auto counter = [&](const char* name) { return snap.counter_value(name); };
  if (const auto* h = snap.histogram("core.task_pool.commit_wait_seconds")) {
    m["core.task_pool.commit_wait_s"] = h->sum;
  }
  m["core.task_pool.chunk_s_p95"] =
      quantile(span_seconds(events, "core.task_pool.chunk"), 0.95);
  m["pdn.dc_solves"] = counter("pdn.dc.solves");
  const double hits = counter("pdn.step_solver.cache.hits");
  const double misses = counter("pdn.step_solver.cache.misses");
  m["pdn.step_cache.hits"] = hits;
  m["pdn.step_cache.misses"] = misses;
  m["pdn.step_cache.hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  m["la.solver_binds"] = counter("la.solver.binds");
  m["la.cg_calls"] = counter("la.cg.calls");
  m["la.cg_iterations"] = counter("la.cg.iterations");
  m["la.cg_solve_s"] = analysis.seconds("la.cg.solve");
  const double accepted = counter("sim.transient.accepted_steps");
  const double rejected = counter("sim.transient.rejected_steps");
  m["sim.accepted_steps"] = accepted;
  m["sim.rejected_steps"] = rejected;
  m["sim.host_us_per_step"] =
      accepted + rejected > 0.0
          ? 1e6 * analysis.seconds("sim.transient.run") / (accepted + rejected)
          : 0.0;
  m["telemetry.unattributed_share"] =
      analysis.container_s > 0.0 ? analysis.unattributed_s / analysis.container_s : 0.0;
  for (const char* layer : {"core", "pdn", "la", "sim", "circuit", "sc", "pgio"}) {
    const auto it = analysis.self_s.find(layer);
    m[std::string("self.") + layer + "_s"] =
        it == analysis.self_s.end() ? 0.0 : it->second;
  }
  return m;
}

struct Timed {
  std::vector<double> wall_s, cpu_s, peak_rss_mib;
};

/// Repeat `w.rep` until `budget_s` (measured from `start`) would be
/// overrun by one more rep of the slowest length seen; at least once.
Timed run_reps(Workload& w, Tally& tally, Verdict& verdict,
               double start, double budget_s,
               const std::function<void()>& before = {},
               const std::function<void()>& after = {}) {
  Timed t;
  double slowest = 0.0;
  do {
    if (before) before();
    reset_peak_rss();
    const double c0 = cpu_now();
    const double w0 = wall_now();
    w.rep();
    const double wall = wall_now() - w0;
    t.cpu_s.push_back(cpu_now() - c0);
    t.wall_s.push_back(wall);
    t.peak_rss_mib.push_back(peak_rss_mib());
    if (after) after();
    w.check(tally, verdict);
    slowest = std::max(slowest, wall_now() - w0);
  } while (wall_now() - start + slowest <= budget_s);
  return t;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string metrics_json(const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string s = "{";
  for (const auto& [name, vu] : m) {
    if (s.size() > 1) s += ", ";
    s += json_string(name) + ": {\"value\": " + num(vu.first) +
         ", \"unit\": " + json_string(vu.second) + "}";
  }
  return s + "}";
}

int run(const Args& args) {
  require_release_build();
  telemetry::set_tracing_enabled(false);
  make_dirs(args.scratch);

  WorkloadEnv env;
  env.seed = args.seed;
  env.scratch_dir = args.scratch;
  env.fixture_dir = args.fixtures;
  auto w = make_workload(args.workload, env);
  if (!w) usage("unknown workload '" + args.workload + "'");

  w->setup();
  if (args.setup_only) {
    std::cout << "{\"setup_done_s\": " << num(wall_now()) << "}\n";
    return 0;
  }
  w->generate();

  Tally tally;
  Verdict verdict;
  const double start = wall_now();
  const double untraced_budget = args.trace ? 0.4 * args.seconds : args.seconds;
  const Timed untraced = run_reps(*w, tally, verdict, start, untraced_budget);

  std::map<std::string, std::pair<double, std::string>> metrics;
  std::ostringstream summary;
  summary << "# " << args.workload << " seed " << args.seed << ": "
          << untraced.wall_s.size() << " untraced reps, wall_s median "
          << num(median(untraced.wall_s)) << " max "
          << num(quantile(untraced.wall_s, 1.0)) << ", cpu_s median "
          << num(median(untraced.cpu_s)) << ", peak_rss_mib min "
          << num(quantile(untraced.peak_rss_mib, 0.0)) << " max "
          << num(quantile(untraced.peak_rss_mib, 1.0));

  if (!args.trace) {
    metrics["wall_s"] = {median(untraced.wall_s), "s"};
    metrics["cpu_s"] = {median(untraced.cpu_s), "s"};
    metrics["peak_rss_mib"] = {median(untraced.peak_rss_mib), "MiB"};
    metrics["ok_ratio"] = {
        tally.attempted == 0
            ? 0.0
            : static_cast<double>(tally.attempted - tally.failed) /
                  static_cast<double>(tally.attempted),
        "ratio"};
  } else {
    std::vector<telemetry::TraceEvent> events;
    std::map<std::string, std::vector<double>> per_rep;
    telemetry::MetricsSnapshot snap;
    TraceAnalysis analysis;
    double dropped = 0.0;
    const auto before = [] {
      telemetry::reset_for_tests();
      telemetry::set_tracing_enabled(true);
    };
    const auto after = [&] {
      w->traced_probe();
      telemetry::set_tracing_enabled(false);
      snap = telemetry::snapshot();
      events = telemetry::collect_trace();
      dropped += static_cast<double>(telemetry::trace_dropped());
      analysis = analyze_trace(events);
      for (const auto& [k, v] : telemetry_layers(snap, events, analysis)) {
        per_rep[k].push_back(v);
      }
      for (const auto& [k, v] : w->layers(events, analysis)) per_rep[k].push_back(v);
    };
    const Timed traced =
        run_reps(*w, tally, verdict, start, args.seconds, before, after);
    std::map<std::string, double> layer;
    for (const auto& [k, v] : per_rep) layer[k] = median(v);
    layer["telemetry.trace_dropped"] = dropped;
    layer["telemetry.trace_overhead"] =
        median(traced.wall_s) / median(untraced.wall_s) - 1.0;
    for (const Metric& m : kPerLayer) {
      const auto it = layer.find(m.name);
      metrics[m.name] = {it == layer.end() ? 0.0 : it->second, m.unit};
    }
    summary << "; " << traced.wall_s.size() << " traced reps, wall_s median "
            << num(median(traced.wall_s));

    // Layer report + trace of the last traced rep.
    make_dirs(args.out);
    const std::string stem =
        args.out + "/" + args.workload + "-seed" + std::to_string(args.seed);
    std::ostringstream report;
    report << "{\n  \"provenance\": " << provenance_json(args)
           << ",\n  \"untraced_wall_s\": " << num(median(untraced.wall_s))
           << ",\n  \"traced_wall_s\": " << num(median(traced.wall_s))
           << ",\n  \"self_s\": {";
    const std::vector<std::string> dead = dead_counters(snap, analysis.self_s);
    bool first = true;
    for (const auto& [k, v] : analysis.self_s) {
      report << (first ? "" : ", ") << json_string(k) << ": " << num(v);
      first = false;
    }
    report << "},\n  \"unattributed_share\": "
           << num(layer["telemetry.unattributed_share"])
           << ",\n  \"dead_counters\": [";
    first = true;
    for (const auto& name : dead) {
      report << (first ? "" : ", ") << json_string(name);
      first = false;
    }
    report << "],\n  \"per_layer\": " << metrics_json(metrics)
           << ",\n  \"telemetry\": " << telemetry::metrics_json() << "\n}\n";
    write_file(stem + ".layers.json", report.str());
    std::ofstream trace_out(stem + ".trace.json", std::ios::trunc);
    telemetry::write_trace_json(trace_out, events, telemetry::trace_dropped());
    summary << "; wrote " << stem << ".{layers,trace}.json\n# unattributed share "
            << num(layer["telemetry.unattributed_share"]) << "; dead counters:";
    for (const auto& name : dead) summary << " " << name;
    if (dead.empty()) summary << " none";
  }

  for (const auto& p : verdict.problems) std::cerr << "oracle: " << p << "\n";
  std::cout << "{\"provenance\": " << provenance_json(args) << "}\n";
  std::cout << summary.str() << "\n";
  std::cout << "{\"correct\": " << (verdict.ok() && tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "vbench_driver: " << e.what() << "\n";
    return 1;
  }
}
