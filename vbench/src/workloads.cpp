#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>

#include "circuit/sc_testbench.h"
#include "common/rng.h"
#include "core/campaign.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "core/task_pool.h"
#include "gen_netlist.h"
#include "la/solver.h"
#include "pdn/solver.h"
#include "pgio/campaign.h"
#include "pgio/grid.h"
#include "pgio/reader.h"
#include "pgio/validate.h"
#include "power/workload.h"
#include "sc/compact_model.h"
#include "telemetry/telemetry.h"

namespace vbench {

namespace {

using namespace vstack;

core::ExecutionPolicy pooled() { return core::ExecutionPolicy::parallel(kJobs); }

/// Record one operation that passed iff `v` found nothing; returns `v`.
Verdict count(Tally& tally, Verdict v) {
  tally.record(v.ok());
  return v;
}

Verdict failure(std::string problem) {
  Verdict v;
  v.fail(std::move(problem));
  return v;
}

/// Telemetry counter read inside a rep only when tracing (a snapshot merges
/// every thread's shard, which is not free).
double traced_counter(const std::string& name) {
  if (!telemetry::tracing_enabled()) return 0.0;
  return telemetry::snapshot().counter_value(name);
}

// --- paper_sweeps ----------------------------------------------------------

/// Every paper figure driver at the paper's shapes, on four workers.  Many
/// small independent DC systems: model assembly, solver bind and
/// preconditioner setup dominate, Krylov iterations do not.
class PaperSweeps final : public Workload {
 public:
  explicit PaperSweeps(const WorkloadEnv& env) : env_(env) {}

  void setup() override {
    ctx_ = core::StudyContext::paper_defaults();
    core::SweepOptions options;
    options.execution = pooled();
    // The seed moves the Fig. 7 sampling seed; 2015 is the paper default.
    options.fig7_seed = 2015 + env_.seed;
    runner_.emplace(*ctx_, options);
  }

  void generate() override {
    fig6_points_ = fig6_imbalances(env_.seed);
    fig8_points_ = fig8_imbalances(env_.seed);
  }

  void rep() override {
    fig5a_ = timed("vbench.core.sweep_runner.fig5a", [&] { return runner_->fig5a(); });
    fig5b_ = timed("vbench.core.sweep_runner.fig5b", [&] { return runner_->fig5b(); });
    fig6_ = timed("vbench.core.sweep_runner.fig6",
                  [&] { return runner_->fig6(fig6_points_); });
    fig7_ = timed("vbench.core.sweep_runner.fig7", [&] { return runner_->fig7(); });
    fig8_ = timed("vbench.core.sweep_runner.fig8",
                  [&] { return runner_->fig8(fig8_points_); });
  }

  void check(Tally& tally, Verdict& verdict) override {
    const auto score = [&](std::size_t points, const Verdict& v) {
      // Each problem names one point; attribute at most one per point.
      const std::size_t bad = std::min(points, v.problems.size());
      for (std::size_t i = 0; i < points; ++i) tally.record(i >= bad);
      verdict.merge(v);
    };
    score(fig5a_.size(), check_fig5a(fig5a_));
    score(fig5b_.size(), check_fig5b(fig5b_));
    score(fig6_.rows.size(), check_fig6(fig6_));
    score(fig7_.size(), check_fig7(fig7_));
    score(fig8_.rows.size(), check_fig8(fig8_));
    fig5a_ = {};
    fig5b_ = {};
    fig6_ = {};
    fig7_ = {};
    fig8_ = {};
  }

  void traced_probe() override {
    // One PdnModel build + DC solve on the 8-layer stacked stack: the unit
    // of work every sweep point repeats.
    pdn::StackupConfig cfg = ctx_->base;
    cfg.topology = pdn::PdnTopology::VoltageStacked;
    cfg.layer_count = 8;
    cfg.validate();
    const auto acts = power::interleaved_layer_activities(8, 0.5);
    const auto model = timed("vbench.pdn.pdn_model.build", [&] {
      return std::make_unique<pdn::PdnModel>(cfg, ctx_->layer_floorplan);
    });
    timed("vbench.pdn.pdn_model.solve_activities",
          [&] { return model->solve_activities(ctx_->core_model, acts); });
  }

  std::map<std::string, double> layers(
      const std::vector<telemetry::TraceEvent>& /*trace*/,
      const TraceAnalysis& a) const override {
    return {
        {"core.sweep.fig5a_s", a.seconds("vbench.core.sweep_runner.fig5a")},
        {"core.sweep.fig5b_s", a.seconds("vbench.core.sweep_runner.fig5b")},
        {"core.sweep.fig6_s", a.seconds("vbench.core.sweep_runner.fig6")},
        {"core.sweep.fig7_s", a.seconds("vbench.core.sweep_runner.fig7")},
        {"core.sweep.fig8_s", a.seconds("vbench.core.sweep_runner.fig8")},
        {"pdn.model_build_s", a.seconds("vbench.pdn.pdn_model.build")},
        {"pdn.dc_solve_s", a.seconds("vbench.pdn.pdn_model.solve_activities")},
    };
  }

 private:
  WorkloadEnv env_;
  std::optional<core::StudyContext> ctx_;
  std::optional<core::SweepRunner> runner_;
  std::vector<double> fig6_points_, fig8_points_;
  std::vector<core::Fig5aRow> fig5a_;
  std::vector<core::Fig5bRow> fig5b_;
  core::Fig6Result fig6_;
  std::vector<power::ApplicationPowerSummary> fig7_;
  core::Fig8Result fig8_;
};

// --- ride_through_campaign -------------------------------------------------

/// Seeded Monte Carlo N-k ride-through campaign on the `vstack_cli
/// campaign` stack (2-layer voltage-stacked, 32x32 grid: ~4.1k unknowns,
/// so every transient step goes through the iterative la::Solver path),
/// four workers, durable manifest on.  Transient step-matrix churn in pdn /
/// la / sim dominates; DC solves are a rounding error.
class RideThroughCampaign final : public Workload {
 public:
  static constexpr std::size_t kTrials = 4;

  explicit RideThroughCampaign(const WorkloadEnv& env) : env_(env) {}

  void setup() override {
    ctx_ = core::StudyContext::paper_defaults();
    pdn::StackupConfig cfg = ctx_->base;
    cfg.topology = pdn::PdnTopology::VoltageStacked;
    cfg.validate();
    runner_.emplace(*ctx_, cfg);

    // The CLI's `campaign` defaults, except: the wall-clock timeout is off
    // so verdicts never depend on machine speed, and the faults strike at
    // 20 ns into a 100 ns window so one repetition fits the run budget.
    options_.contingency.trials = kTrials;
    options_.contingency.faults_per_trial = 2;
    options_.contingency.converter_faults_per_trial = 32;
    options_.contingency.seed = env_.seed;
    options_.ride_through.transient.duration = 100e-9;
    sc::SupervisorConfig& sup = options_.ride_through.supervisor;
    sup.trip_fraction = 0.10;
    sup.recovery_fraction = 0.08;
    sup.sense_interval = 5e-9;
    sup.detection_latency = 20e-9;
    sup.action_dwell = 60e-9;
    sup.watchdog_timeout = 300e-9;
    options_.fault_time = 20e-9;
    options_.scenario_timeout_s = 0.0;
    options_.manifest_path = env_.scratch_dir + "/campaign.jsonl";
    options_.execution = pooled();
  }

  void generate() override {
    activities_ = power::interleaved_layer_activities(2, 0.8);
  }

  void rep() override {
    std::remove(options_.manifest_path.c_str());  // fresh durable commits
    plan_ = timed("vbench.core.campaign_runner.plan",
                  [&] { return runner_->plan(activities_, options_); });
    report_ = timed("vbench.core.campaign_runner.run",
                    [&] { return runner_->run(activities_, options_); });
  }

  void check(Tally& tally, Verdict& verdict) override {
    for (const auto& s : report_.scenarios) {
      tally.record(s.completed && !s.timed_out && !s.deadline_truncated);
    }
    // The campaign-level checks count as one more operation.
    Verdict v = check_campaign(report_, env_.seed, kTrials);
    if (plan_.size() != kTrials) {
      v.fail("plan() returned " + std::to_string(plan_.size()) + " scenarios");
    }
    const std::size_t commits = count_commits();
    if (commits != report_.scenarios.size()) {
      v.fail("manifest holds " + std::to_string(commits) +
             " scenario lines for " +
             std::to_string(report_.scenarios.size()) + " scenarios");
    }
    if (!resume_checked_) {
      // Re-running against the finished manifest must restore every
      // scenario with identical aggregates (checked once per process).
      resume_checked_ = true;
      v.merge(check_resume(report_, runner_->run(activities_, options_)));
    }
    verdict.merge(count(tally, v));
    plan_ = {};
    report_ = {};
  }

  std::map<std::string, double> layers(
      const std::vector<telemetry::TraceEvent>& /*trace*/,
      const TraceAnalysis& a) const override {
    std::vector<double> scenario_s;
    for (const auto& s : report_.scenarios) scenario_s.push_back(s.wall_seconds);
    return {
        {"core.campaign.plan_s", a.seconds("vbench.core.campaign_runner.plan")},
        {"core.campaign.run_s", a.seconds("vbench.core.campaign_runner.run")},
        {"core.campaign.scenario_s_p50", median(scenario_s)},
        {"core.campaign.scenario_s_max", quantile(scenario_s, 1.0)},
        {"common.manifest_commits", static_cast<double>(count_commits())},
    };
  }

 private:
  std::size_t count_commits() const {
    std::ifstream in(options_.manifest_path);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);) lines += !line.empty();
    return lines == 0 ? 0 : lines - 1;  // minus the header line
  }

  WorkloadEnv env_;
  std::optional<core::StudyContext> ctx_;
  std::optional<core::CampaignRunner> runner_;
  core::CampaignOptions options_;
  std::vector<double> activities_;
  std::vector<core::PlannedScenario> plan_;
  core::CampaignReport report_;
  bool resume_checked_ = false;
};

// --- imported_grid ---------------------------------------------------------

/// A seeded IBM-PG-style two-net grid through the pgio pipeline: parse,
/// import, cold DC solve, the same system through la::Solver directly,
/// N-1 on four workers, and a load-step transient.  One large matrix, so
/// parse throughput and Krylov iteration count dominate.
class ImportedGridWorkload final : public Workload {
 public:
  explicit ImportedGridWorkload(const WorkloadEnv& env) : env_(env) {}

  void setup() override {
    if (env_.iteration_cap > 0) {
      solve_options_.iterative.max_iterations = env_.iteration_cap;
    }
    n1_options_.top_k = 4;
    n1_options_.execution = pooled();
    n1_options_.solve = solve_options_;
    step_options_.solve = solve_options_;
    step_options_.duration_s = 0.2e-9;
    step_options_.dt_s = 1e-11;
  }

  void generate() override { gen_ = generate_netlist(env_.seed); }

  void rep() override {
    netlist_ = timed("vbench.pgio.read_netlist_text", [&] {
      return std::make_unique<pgio::PgNetlist>(
          pgio::read_netlist_text(gen_.text, "vbench_grid"));
    });
    grid_ = timed("vbench.pgio.imported_grid.build", [&] {
      return std::make_unique<pgio::ImportedGrid>(*netlist_);
    });
    solution_ = timed("vbench.pgio.imported_grid.solve",
                      [&] { return grid_->solve(solve_options_); });

    const std::size_t n = grid_->unknown_count();
    la::CsrMatrix matrix;
    la::Vector fixed_rhs, load_rhs;
    timed("vbench.pgio.stamp_conductances", [&] {
      la::CooBuilder builder(n);
      grid_->stamp_conductances(builder, fixed_rhs, load_rhs);
      matrix = builder.build();
    });
    direct_ = solve_direct(matrix, fixed_rhs, load_rhs, la::BackendChoice::Auto,
                           solve_options_);

    n1_ = timed("vbench.pgio.run_n_minus_1",
                [&] { return pgio::run_n_minus_1(*grid_, n1_options_); });
    const double iters_before = traced_counter("la.cg.iterations");
    step_ = timed("vbench.pgio.simulate_load_step", [&] {
      return pgio::simulate_load_step(*grid_, step_options_);
    });
    step_iterations_ = traced_counter("la.cg.iterations") - iters_before;
  }

  void check(Tally& tally, Verdict& verdict) override {
    Verdict v;
    if (solution_.solve_ok) {
      v.merge(count(tally, check_kcl(*grid_, solution_, gen_.total_load_a)));
    } else {
      v.merge(count(tally, failure("cold DC solve failed: " + solution_.diagnostic)));
    }
    if (direct_.report.converged) {
      v.merge(count(tally, check_agreement(direct_.x, solution_.voltages, kAgreeV,
                                           "la::Solver vs ImportedGrid::solve")));
    } else {
      v.merge(count(tally, failure("direct la::Solver solve failed: " +
                                   direct_.report.diagnostic)));
    }
    for (const auto& c : n1_.cases) {
      if (!tally.record(c.solved)) v.fail("N-1 case " + c.label + " unsolved");
    }
    if (n1_.cases.size() != n1_options_.top_k) {
      v.fail("N-1 ran " + std::to_string(n1_.cases.size()) + " cases");
    }
    if (!tally.record(step_.solve_ok && step_.recovered)) {
      v.fail("load step: solve_ok=" + std::to_string(step_.solve_ok) +
             " recovered=" + std::to_string(step_.recovered) + " " +
             step_.diagnostic);
    }
    if (!cross_checked_) {
      cross_checked_ = true;
      v.merge(cross_check(tally));
    }
    verdict.merge(v);
    // The grid references the netlist: drop it first.
    grid_.reset();
    netlist_.reset();
    solution_ = {};
    direct_ = {};
    n1_ = {};
    step_ = {};
  }

  std::map<std::string, double> layers(
      const std::vector<telemetry::TraceEvent>& trace,
      const TraceAnalysis& a) const override {
    const double parse_s = a.seconds("vbench.pgio.read_netlist_text");
    // N-1 cases: the pool chunks inside the run_n_minus_1 span.
    std::vector<double> case_s;
    const telemetry::TraceEvent* window = nullptr;
    for (const auto& e : trace) {
      if (e.name == "vbench.pgio.run_n_minus_1") window = &e;
    }
    for (const auto& e : trace) {
      if (window != nullptr && e.name == "core.task_pool.chunk" &&
          e.ts_us >= window->ts_us &&
          e.ts_us + e.dur_us <= window->ts_us + window->dur_us) {
        case_s.push_back(1e-6 * e.dur_us);
      }
    }
    const double steps = static_cast<double>(std::max<std::size_t>(step_.steps, 1));
    return {
        {"pgio.parse_s", parse_s},
        {"pgio.parse_mib_per_s",
         parse_s > 0.0 ? static_cast<double>(gen_.text.size()) / 1048576.0 / parse_s
                       : 0.0},
        {"pgio.import_s", a.seconds("vbench.pgio.imported_grid.build")},
        {"pgio.stamp_s", a.seconds("vbench.pgio.stamp_conductances")},
        {"pgio.dc_solve_s", a.seconds("vbench.pgio.imported_grid.solve")},
        {"la.bind_s", a.seconds("vbench.la.solver.bind")},
        {"la.solve_s", a.seconds("vbench.la.solver.solve")},
        {"la.dc_iterations", static_cast<double>(direct_.report.iterations)},
        {"pgio.n1_s", a.seconds("vbench.pgio.run_n_minus_1")},
        {"pgio.n1_case_s_p50", median(case_s)},
        {"pgio.load_step_s", a.seconds("vbench.pgio.simulate_load_step")},
        {"pgio.load_step_iters_per_step", step_iterations_ / steps},
    };
  }

 private:
  struct Direct {
    la::Vector x;
    la::SolveReport report;
  };

  static Direct solve_direct(const la::CsrMatrix& matrix,
                             const la::Vector& fixed_rhs,
                             const la::Vector& load_rhs,
                             la::BackendChoice backend,
                             const pgio::GridSolveOptions& grid_options) {
    la::SolveOptions options;
    options.preconditioner = grid_options.preconditioner;
    options.backend = backend;
    auto solver = timed("vbench.la.solver.bind", [&] {
      return std::make_unique<la::Solver>(matrix, options);
    });
    la::Vector rhs(fixed_rhs.size());
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = fixed_rhs[i] + load_rhs[i];
    Direct out;
    out.x.assign(rhs.size(), 0.0);
    out.report = timed("vbench.la.solver.solve", [&] {
      return solver->solve(rhs, out.x, grid_options.iterative);
    });
    return out;
  }

  /// Once per process: the optimized backend against the reference result,
  /// and the committed golden fixtures under both backends.
  Verdict cross_check(Tally& tally) const {
    Verdict v;
    la::CooBuilder builder(grid_->unknown_count());
    la::Vector fixed_rhs, load_rhs;
    grid_->stamp_conductances(builder, fixed_rhs, load_rhs);
    const la::CsrMatrix matrix = builder.build();
    const Direct optimized = solve_direct(matrix, fixed_rhs, load_rhs,
                                          la::BackendChoice::Optimized,
                                          solve_options_);
    v.merge(count(tally, optimized.report.converged
                             ? check_agreement(optimized.x, solution_.voltages,
                                               kAgreeV, "optimized vs reference backend")
                             : failure("optimized-backend solve failed: " +
                                       optimized.report.diagnostic)));
    const pgio::ValidateOptions validate_options;  // 1e-6 V, both backends
    for (const char* name : {"ladder4", "mesh3x3", "twonet_vias"}) {
      const std::string base = env_.fixture_dir + "/" + name;
      try {
        const pgio::PgNetlist netlist = pgio::read_netlist_file(base + ".spice");
        const pgio::ImportedGrid grid(netlist);
        const auto golden = pgio::read_solution_file(base + ".solution");
        const auto report = pgio::validate(grid, golden, validate_options);
        for (const auto& b : report.backends) tally.record(b.pass());
        v.merge(check_fixture(report, name));
      } catch (const std::exception& e) {
        tally.record(false);
        v.fail(std::string("fixture ") + name + ": " + e.what());
      }
    }
    return v;
  }

  // Both solves stop at a 1e-9 relative residual; their difference sits
  // near 1e-8 V on this grid.
  static constexpr double kAgreeV = 1e-6;

  WorkloadEnv env_;
  pgio::GridSolveOptions solve_options_;
  pgio::GridCampaignOptions n1_options_;
  pgio::LoadStepOptions step_options_;
  GeneratedGrid gen_;
  std::unique_ptr<pgio::PgNetlist> netlist_;
  std::unique_ptr<pgio::ImportedGrid> grid_;
  pgio::GridSolution solution_;
  Direct direct_;
  core::ContingencyReport n1_;
  pgio::LoadStepReport step_;
  double step_iterations_ = 0.0;
  bool cross_checked_ = false;
};

// --- sc_converter_transient ------------------------------------------------

/// Switch-level push-pull SC converter transients at four seeded Fig. 3
/// points (both control policies), one per worker.  Millions of tiny
/// steps on a small MNA system: per-step overhead in the step controller
/// dominates.
class ScConverterTransient final : public Workload {
 public:
  explicit ScConverterTransient(const WorkloadEnv& env) : env_(env) {}

  void setup() override {
    for (const auto policy :
         {sc::ControlPolicy::ClosedLoop, sc::ControlPolicy::OpenLoop}) {
      sc::ScConverterDesign design;  // defaults mirror the testbench circuit
      design.control = policy;
      models_.emplace(policy, sc::ScCompactModel(design));
    }
    sim_options_.settle_periods = 40;
    sim_options_.measure_periods = 10;
  }

  void generate() override {
    // Two closed-loop and two open-loop points, drawn from the Fig. 3
    // points whose simulations take within 6% of the same number of steps
    // (and so hold the same waveform memory): the subset changes with the
    // seed, the cost and the memory of four concurrent runs hardly do.
    using P = sc::ControlPolicy;
    const std::vector<std::pair<P, std::vector<double>>> pools = {
        {P::ClosedLoop, {25.0, 50.0, 100.0}},
        {P::OpenLoop, {30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0}},
    };
    Rng rng(env_.seed ^ 0x5C0FFEEull);
    points_.clear();
    for (auto [policy, loads] : pools) {
      rng.shuffle(loads);
      for (std::size_t i = 0; i < kJobs / 2; ++i) points_.push_back({policy, loads[i]});
    }
  }

  void rep() override {
    sims_.assign(points_.size(), {});
    ops_.assign(points_.size(), {});
    const core::TaskPool pool(pooled());
    pool.run_ordered(
        points_.size(), [&](std::size_t i) { simulate(i); }, [](std::size_t) {});
  }

  void check(Tally& tally, Verdict& verdict) override {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      Verdict v;
      if (!sims_[i].ok()) {
        v.fail("transient at " + std::to_string(points_[i].load_ma) +
               " mA: " + sims_[i].transient.summary());
      }
      v.merge(check_sc_point(points_[i], sims_[i], ops_[i]));
      tally.record(v.ok());
      verdict.merge(v);
    }
    sims_.clear();  // the waveforms are most of the rep's memory
    ops_.clear();
  }

  std::map<std::string, double> layers(
      const std::vector<telemetry::TraceEvent>& trace,
      const TraceAnalysis& /*analysis*/) const override {
    double steps = 0.0;
    for (const auto& s : sims_) steps += static_cast<double>(s.transient.accepted_steps);
    const double periods = static_cast<double>(
        sims_.size() * static_cast<std::size_t>(sim_options_.settle_periods +
                                                sim_options_.measure_periods));
    const auto point_s = span_seconds(trace, "vbench.circuit.simulate_push_pull_sc");
    return {
        {"circuit.point_s_p50", median(point_s)},
        {"circuit.point_s_max", quantile(point_s, 1.0)},
        {"sim.steps_per_period", periods > 0.0 ? steps / periods : 0.0},
    };
  }

 private:
  void simulate(std::size_t i) {
    const double load = points_[i].load_ma * 1e-3;
    ops_[i] = timed("vbench.sc.compact_model.evaluate", [&] {
      return models_.at(points_[i].policy).evaluate(2.0, 0.0, load);
    });
    circuit::ScTestbenchConfig tb;
    tb.load_current = load;
    tb.switching_frequency = ops_[i].switching_frequency;
    sims_[i] = timed("vbench.circuit.simulate_push_pull_sc", [&] {
      return circuit::simulate_push_pull_sc(tb, sim_options_);
    });
  }

  WorkloadEnv env_;
  std::map<sc::ControlPolicy, sc::ScCompactModel> models_;
  circuit::ScSimulationOptions sim_options_;
  std::vector<ScPoint> points_;
  std::vector<circuit::ScMeasurement> sims_;
  std::vector<sc::ScOperatingPoint> ops_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadEnv& env) {
  if (name == "paper_sweeps") return std::make_unique<PaperSweeps>(env);
  if (name == "ride_through_campaign") {
    return std::make_unique<RideThroughCampaign>(env);
  }
  if (name == "imported_grid") return std::make_unique<ImportedGridWorkload>(env);
  if (name == "sc_converter_transient") {
    return std::make_unique<ScConverterTransient>(env);
  }
  return nullptr;
}

}  // namespace vbench
