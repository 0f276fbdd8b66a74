// Ablation/extension: supervisor detection latency vs worst droop during a
// live fault ride-through.
//
// A converter cluster (stacked) or most of the power TSVs (regular) die
// mid-run under an imbalanced workload; the stack supervisor detects the
// droop, climbs its mitigation ladder, and the run is classified
// Recovered / Degraded / Lost.  Sweeping the detection latency shows the
// cost of slow sensing: the worst excursion grows with latency, and past
// some point the watchdog (not the ladder) decides the outcome.
//
// Every (latency, topology) combination is an independent transient, so
// the grid fans out on core::TaskPool; rows commit in sweep order, so the
// table is identical for every --jobs value.
//
//   bench_ablation_fault_ride_through [--jobs=N]   ; default: auto
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/study.h"
#include "core/task_pool.h"
#include "pdn/fault.h"
#include "pdn/ride_through.h"
#include "power/workload.h"

namespace {

using namespace vstack;

/// Stacked stress: all but `keep` converter phases at `level` stick off.
pdn::FaultSet stacked_fault(const pdn::PdnModel& model, std::size_t level,
                            std::size_t keep) {
  pdn::FaultSet fs;
  pdn::stick_off_converter_bank(fs, model.network(), level, keep);
  return fs;
}

/// Regular stress: open three quarters of every Vdd TSV group.
pdn::FaultSet regular_fault(const pdn::PdnModel& model) {
  pdn::FaultSet fs;
  const auto& groups = model.network().conductors();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].kind != pdn::ConductorKind::TsvVdd) continue;
    const std::size_t open = groups[i].count * 3 / 4;
    if (open > 0) fs.open_conductor(i, open);
  }
  return fs;
}

struct Combo {
  double latency = 0.0;
  bool stacked = false;
};

struct ComboResult {
  pdn::RideThroughReport report;
  std::string trouble;  // non-empty when the waveform truncated
};

ComboResult run_combo(const core::StudyContext& ctx,
                      const std::vector<double>& acts, const Combo& combo) {
  const std::size_t layers = 8;
  auto cfg = combo.stacked
                 ? core::make_stacked(ctx, layers, ctx.base.tsv, 8)
                 : core::make_regular(ctx, layers, ctx.base.tsv, 0.25);
  cfg.grid_nx = cfg.grid_ny = 8;  // each run is a full adaptive transient
  pdn::PdnModel model(cfg, ctx.layer_floorplan);

  pdn::RideThroughOptions opt;
  opt.transient.time_step = 2e-9;
  opt.transient.duration = 1e-6;
  opt.supervisor.trip_fraction = 0.10;
  // Spreading resistance caps what rebalancing can recover (see
  // docs/fault_model.md section 6), hence the 8% recovery band.
  opt.supervisor.recovery_fraction = 0.08;
  opt.supervisor.sense_interval = 5e-9;
  opt.supervisor.detection_latency = combo.latency;
  opt.supervisor.action_dwell = 60e-9;
  opt.supervisor.watchdog_timeout = 500e-9;

  pdn::TimedFaultEvent ev;
  ev.time = 200e-9;
  ev.faults = combo.stacked ? stacked_fault(model, 3, 32)
                            : regular_fault(model);
  ev.label = combo.stacked ? "converter cluster stuck off" : "TSV die-off";
  opt.fault_events.push_back(ev);

  ComboResult result;
  result.report =
      pdn::simulate_ride_through(model, ctx.core_model, acts, opt).report;
  if (!result.report.ok()) {
    result.trouble = "ride-through trouble (" +
                     std::string(combo.stacked ? "V-S" : "Regular") +
                     ", latency " + TextTable::num(combo.latency * 1e9, 0) +
                     " ns): " + result.report.transient.summary();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const vstack::bench::BenchReport bench_report("ablation_fault_ride_through");
  using namespace vstack;

  const CliArgs args(argc, argv, {"jobs"});
  bench::print_header("Extension",
                      "Detection latency vs worst droop during fault "
                      "ride-through (8 layers, imbalance 0.8, fault at "
                      "200 ns)");
  const auto ctx = core::StudyContext::paper_defaults();
  const auto acts = power::interleaved_layer_activities(8, 0.8);

  std::vector<Combo> combos;
  for (const double latency : {10e-9, 20e-9, 50e-9, 100e-9, 200e-9}) {
    for (const bool stacked : {true, false}) {
      combos.push_back({latency, stacked});
    }
  }

  TextTable t({"Latency (ns)", "Topology", "Outcome", "Detected (ns)",
               "Worst droop", "Final droop", "Actions"});
  std::vector<ComboResult> results(combos.size());
  core::ExecutionPolicy policy;
  policy.jobs = args.get_size("jobs", 0);  // 0 = auto
  const core::TaskPool pool(policy);
  pool.run_ordered(
      combos.size(),
      [&](std::size_t i) { results[i] = run_combo(ctx, acts, combos[i]); },
      [&](std::size_t i) {
        const auto& rep = results[i].report;
        if (!results[i].trouble.empty()) {
          std::cerr << results[i].trouble << "\n";
        }
        t.add_row({TextTable::num(combos[i].latency * 1e9, 0),
                   combos[i].stacked ? "V-S" : "Regular",
                   pdn::to_string(rep.outcome),
                   rep.detected_at >= 0.0
                       ? TextTable::num(rep.detected_at * 1e9, 0)
                       : std::string("-"),
                   TextTable::percent(rep.worst_droop, 2),
                   TextTable::percent(rep.final_droop, 2),
                   std::to_string(rep.actions.size())});
      });
  t.print(std::cout);

  bench::print_note("stacked worst droop grows with detection latency: "
                    "every extra sensing tick is time the imbalance current "
                    "discharges the faulted rail before mitigation starts");
  bench::print_note("the regular PDN has no converters to rebalance -- a "
                    "TSV die-off either rides through on the redundant "
                    "groups or escalates straight to shutdown, largely "
                    "independent of latency");
  return 0;
}
