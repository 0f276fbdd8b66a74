#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/rng.h"
#include "expected.h"
#include "power/workload.h"

namespace vbench {

namespace {

using namespace vstack;

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

/// |got - want| within rel * |want| (plus a tiny absolute floor).
bool near_rel(double got, double want, double rel) {
  return std::abs(got - want) <= rel * std::abs(want) + 1e-15;
}

void expect_rel(Verdict& v, const std::string& what, double got, double want,
                double rel) {
  if (!near_rel(got, want, rel)) {
    v.fail(what + fmt(": got %.9g, committed %.9g", got, want));
  }
}

void expect_opt(Verdict& v, const std::string& what,
                const std::optional<double>& got, double want, double rel) {
  if (want < 0.0) {  // committed as infeasible
    if (got) v.fail(what + fmt(": got %.9g, committed infeasible", *got));
  } else if (!got) {
    v.fail(what + fmt(": infeasible, committed %.9g", want));
  } else {
    expect_rel(v, what, *got, want, rel);
  }
}

/// Seeded imbalance axis: `anchors` stay put, every other step of
/// [first, 1] moves by up to `kJitter` either way.
std::vector<double> jittered_axis(std::uint64_t seed, double first,
                                  const std::vector<double>& anchors) {
  constexpr double kJitter = 0.03;
  Rng rng(seed ^ 0xF16'6A11ull);
  std::vector<double> out;
  for (int step = static_cast<int>(std::lround(first * 10)); step <= 10; ++step) {
    const double x = step / 10.0;
    const bool anchor = std::any_of(anchors.begin(), anchors.end(),
                                    [&](double a) { return std::abs(a - x) < 1e-12; });
    out.push_back(anchor ? x : x + rng.uniform(-kJitter, kJitter));
  }
  return out;
}

/// The committed anchor row at imbalance `x`, or nullptr.
template <typename Row, std::size_t N>
const Row* anchor_at(const Row (&rows)[N], double x) {
  for (const Row& r : rows) {
    if (std::abs(r.imbalance - x) < 1e-12) return &r;
  }
  return nullptr;
}

constexpr double kFig6MonotoneFrom = 0.15;

}  // namespace

void Verdict::merge(const Verdict& other) {
  problems.insert(problems.end(), other.problems.begin(), other.problems.end());
}

bool Tally::record(bool ok) {
  ++attempted;
  if (!ok) ++failed;
  return ok;
}

// --- paper_sweeps ----------------------------------------------------------

Verdict check_fig5a(const std::vector<core::Fig5aRow>& rows) {
  Verdict v;
  if (rows.size() != std::size(expected::kFig5a)) {
    v.fail("fig5a: " + std::to_string(rows.size()) + " rows");
    return v;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& got = rows[i];
    const auto& want = expected::kFig5a[i];
    const std::string at = "fig5a layers=" + std::to_string(got.layers);
    if (got.layers != want.layers) v.fail(at + ": layer axis moved");
    expect_rel(v, at + " reg_dense", got.reg_dense, want.reg_dense, expected::kDcRel);
    expect_rel(v, at + " reg_sparse", got.reg_sparse, want.reg_sparse, expected::kDcRel);
    expect_rel(v, at + " reg_few", got.reg_few, want.reg_few, expected::kDcRel);
    expect_rel(v, at + " vs_few", got.vs_few, want.vs_few, expected::kDcRel);
  }
  return v;
}

Verdict check_fig5b(const std::vector<core::Fig5bRow>& rows) {
  Verdict v;
  if (rows.size() != std::size(expected::kFig5b)) {
    v.fail("fig5b: " + std::to_string(rows.size()) + " rows");
    return v;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& got = rows[i];
    const auto& want = expected::kFig5b[i];
    const std::string at = "fig5b layers=" + std::to_string(got.layers);
    if (got.layers != want.layers) v.fail(at + ": layer axis moved");
    expect_rel(v, at + " reg_25", got.reg_25, want.reg_25, expected::kDcRel);
    expect_rel(v, at + " reg_50", got.reg_50, want.reg_50, expected::kDcRel);
    expect_rel(v, at + " reg_75", got.reg_75, want.reg_75, expected::kDcRel);
    expect_rel(v, at + " reg_100", got.reg_100, want.reg_100, expected::kDcRel);
    expect_rel(v, at + " vs", got.vs, want.vs, expected::kDcRel);
  }
  return v;
}

std::vector<double> fig6_imbalances(std::uint64_t seed) {
  return jittered_axis(seed, 0.0, {0.0, 0.5, 1.0});
}

std::vector<double> fig8_imbalances(std::uint64_t seed) {
  return jittered_axis(seed ^ 8, 0.1, {0.1, 0.5, 1.0});
}

Verdict check_fig6(const core::Fig6Result& result) {
  Verdict v;
  expect_rel(v, "fig6 reg_dense", result.reg_dense, expected::kFig6RegDense, expected::kDcRel);
  expect_rel(v, "fig6 reg_sparse", result.reg_sparse, expected::kFig6RegSparse, expected::kDcRel);
  expect_rel(v, "fig6 reg_few", result.reg_few, expected::kFig6RegFew, expected::kDcRel);
  const std::size_t cols = result.converter_counts.size();
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const auto& row = result.rows[r];
    const std::string at = fmt("fig6 imbalance=%.4f", row.imbalance);
    if (row.vs_noise.size() != cols) {
      v.fail(at + ": wrong column count");
      continue;
    }
    if (const auto* want = anchor_at(expected::kFig6Anchors, row.imbalance)) {
      for (std::size_t c = 0; c < cols; ++c) {
        expect_opt(v, at + " col " + std::to_string(c), row.vs_noise[c],
                   want->vs_noise[c], expected::kDcRel);
      }
    }
    // Paper claims, from 15% imbalance up (below it every column sits at
    // the ~0.7% floor and differs only in the fifth digit): more converters
    // never raise noise, and noise grows with imbalance.
    for (std::size_t c = 0; c < cols; ++c) {
      const auto& here = row.vs_noise[c];
      if (here && (*here <= 0.0 || *here > 0.2)) {
        v.fail(at + fmt(": noise %.4g outside (0, 0.2]", *here));
      }
      if (row.imbalance < kFig6MonotoneFrom) continue;
      if (c + 1 < cols && here && row.vs_noise[c + 1] &&
          *row.vs_noise[c + 1] > *here) {
        v.fail(at + ": noise rises with more converters");
      }
      if (r + 1 < result.rows.size() && here &&
          result.rows[r + 1].vs_noise.size() == cols &&
          result.rows[r + 1].vs_noise[c] &&
          *result.rows[r + 1].vs_noise[c] < *here) {
        v.fail(at + ": noise falls as imbalance grows");
      }
    }
  }
  return v;
}

Verdict check_fig7(const std::vector<power::ApplicationPowerSummary>& apps) {
  Verdict v;
  if (apps.size() != expected::kFig7Apps) {
    v.fail("fig7: " + std::to_string(apps.size()) + " applications");
    return v;
  }
  for (const auto& a : apps) {
    if (!(a.power.median > 0.0) || a.max_imbalance < 0.0 || a.max_imbalance > 1.0) {
      v.fail("fig7 " + a.name + fmt(": median %.4g W, max imbalance %.4g",
                                    a.power.median, a.max_imbalance));
    }
  }
  const double mean = power::mean_max_imbalance(apps);
  if (mean < expected::kFig7MeanMin || mean > expected::kFig7MeanMax) {
    v.fail(fmt("fig7 mean max-imbalance %.4f outside [%.2f, %.2f]", mean,
               expected::kFig7MeanMin, expected::kFig7MeanMax));
  }
  return v;
}

Verdict check_fig8(const core::Fig8Result& result) {
  Verdict v;
  const std::size_t cols = result.converter_counts.size();
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const auto& row = result.rows[r];
    const std::string at = fmt("fig8 imbalance=%.4f", row.imbalance);
    if (row.vs_efficiency.size() != cols) {
      v.fail(at + ": wrong column count");
      continue;
    }
    if (const auto* want = anchor_at(expected::kFig8Anchors, row.imbalance)) {
      for (std::size_t c = 0; c < cols; ++c) {
        expect_opt(v, at + " col " + std::to_string(c), row.vs_efficiency[c],
                   want->vs_efficiency[c], expected::kDcRel);
      }
      expect_rel(v, at + " regular_sc", row.regular_sc, want->regular_sc,
                 expected::kDcRel);
    }
    // Paper claims: efficiency falls with imbalance and with converter
    // count, and V-S beats regular + SC everywhere it is feasible.
    for (std::size_t c = 0; c < cols; ++c) {
      const auto& here = row.vs_efficiency[c];
      if (!here) continue;
      if (*here <= row.regular_sc || *here >= 1.0) {
        v.fail(at + fmt(": efficiency %.4f vs regular %.4f", *here, row.regular_sc));
      }
      if (c + 1 < cols && row.vs_efficiency[c + 1] &&
          *row.vs_efficiency[c + 1] > *here) {
        v.fail(at + ": efficiency rises with more converters");
      }
      if (r + 1 < result.rows.size() &&
          result.rows[r + 1].vs_efficiency.size() == cols &&
          result.rows[r + 1].vs_efficiency[c] &&
          *result.rows[r + 1].vs_efficiency[c] > *here) {
        v.fail(at + ": efficiency rises with imbalance");
      }
    }
  }
  return v;
}

// --- ride_through_campaign -------------------------------------------------

Verdict check_campaign(const core::CampaignReport& report, std::uint64_t seed,
                       std::size_t trials) {
  Verdict v;
  if (report.cancelled || report.scenarios.size() != trials ||
      report.planned != trials) {
    v.fail("campaign: " + std::to_string(report.scenarios.size()) + " of " +
           std::to_string(trials) + " scenarios committed");
  }
  for (const auto& s : report.scenarios) {
    if (!s.completed || s.timed_out) {
      v.fail("campaign " + s.label + ": did not run to a verdict");
    }
  }
  if (report.recovered + report.degraded + report.lost != report.scenarios.size()) {
    v.fail("campaign: verdict counts do not add up");
  }
  if (!(report.worst_droop > 0.0 && report.worst_droop < 0.2)) {
    v.fail(fmt("campaign: worst droop %.6g outside (0, 0.2)", report.worst_droop));
  }
  for (const auto& e : expected::kCampaign) {
    if (e.seed != seed || e.trials != trials) continue;
    if (report.recovered != e.recovered || report.degraded != e.degraded ||
        report.lost != e.lost) {
      v.fail("campaign: verdicts " + std::to_string(report.recovered) + "/" +
             std::to_string(report.degraded) + "/" + std::to_string(report.lost) +
             " (recovered/degraded/lost), committed " +
             std::to_string(e.recovered) + "/" + std::to_string(e.degraded) +
             "/" + std::to_string(e.lost));
    }
    if (std::abs(report.worst_droop - e.worst_droop) > expected::kDroopAbs) {
      v.fail(fmt("campaign: worst droop %.9g, committed %.9g", report.worst_droop,
                 e.worst_droop));
    }
  }
  return v;
}

Verdict check_resume(const core::CampaignReport& original,
                     const core::CampaignReport& resumed) {
  Verdict v;
  if (resumed.resumed != original.scenarios.size() || resumed.evaluated != 0) {
    v.fail("resume: restored " + std::to_string(resumed.resumed) +
           ", re-ran " + std::to_string(resumed.evaluated));
  }
  if (resumed.recovered != original.recovered ||
      resumed.degraded != original.degraded || resumed.lost != original.lost ||
      resumed.worst_droop != original.worst_droop ||
      resumed.config_hash != original.config_hash) {
    v.fail("resume: aggregates differ from the run that wrote the manifest");
  }
  return v;
}

// --- imported_grid ---------------------------------------------------------

Verdict check_kcl(const pgio::ImportedGrid& grid,
                  const pgio::GridSolution& solution, double expected_load_a) {
  Verdict v;
  if (!near_rel(solution.load_current_a, expected_load_a, 1e-12)) {
    v.fail(fmt("KCL: grid load %.12g A, netlist load %.12g A",
               solution.load_current_a, expected_load_a));
  }
  // Loads whose supply terminal a via short merged into a pad draw straight
  // from it, outside any conductor: the pads' conductor current must make
  // up the rest.
  double via_conductors = 0.0;
  for (const auto& l : grid.loads()) {
    const bool at_pad = grid.is_fixed(l.vdd_node) && grid.fixed_potential(l.vdd_node) != 0.0;
    if (!at_pad) via_conductors += std::abs(l.current);
  }
  if (!near_rel(solution.supply_current_a, via_conductors, expected::kKclRel)) {
    v.fail(fmt("KCL: pads source %.12g A through conductors, loads off the "
               "pads draw %.12g A",
               solution.supply_current_a, via_conductors));
  }
  if (solution.floating_islands != 0) {
    v.fail("KCL: " + std::to_string(solution.floating_islands) +
           " floating islands in a fully padded grid");
  }
  return v;
}

Verdict check_agreement(const la::Vector& a, const la::Vector& b,
                        double tolerance_v, const std::string& what) {
  Verdict v;
  if (a.size() != b.size() || a.empty()) {
    v.fail(what + ": sizes " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()));
    return v;
  }
  double worst = 0.0;
  std::size_t at = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (std::isnan(d) || d > worst) {
      worst = d;
      at = i;
      if (std::isnan(d)) break;
    }
  }
  if (!(worst <= tolerance_v)) {
    v.fail(what + fmt(": max |dV| %.3g V at slot %.0f (tolerance %.1g V)", worst,
                      static_cast<double>(at), tolerance_v));
  }
  return v;
}

Verdict check_fixture(const pgio::ValidationReport& report,
                      const std::string& name) {
  Verdict v;
  if (report.backends.size() < 2) v.fail("fixture " + name + ": fewer than 2 backends");
  for (const auto& b : report.backends) {
    if (!b.pass()) {
      v.fail("fixture " + name + " [" + b.backend + "]: " +
             (b.solve_ok ? fmt("max error %.3g V", b.max_abs_error_v)
                         : "solve failed: " + b.diagnostic));
    }
  }
  return v;
}

// --- sc_converter_transient ------------------------------------------------

Verdict check_sc_point(const ScPoint& point,
                       const circuit::ScMeasurement& sim,
                       const sc::ScOperatingPoint& model) {
  Verdict v;
  const std::string at =
      std::string(point.policy == sc::ControlPolicy::OpenLoop ? "open" : "closed") +
      fmt("-loop %.1f mA", point.load_ma);
  if (std::abs(sim.efficiency - model.efficiency) > expected::kScModelEff) {
    v.fail(at + fmt(": efficiency sim %.4f vs model %.4f", sim.efficiency,
                    model.efficiency));
  }
  if (std::abs(sim.voltage_drop - model.voltage_drop) > expected::kScModelDropV) {
    v.fail(at + fmt(": Vdrop sim %.5f V vs model %.5f V", sim.voltage_drop,
                    model.voltage_drop));
  }
  for (const auto& e : expected::kFig3) {
    if (e.policy != point.policy || e.load_ma != point.load_ma) continue;
    if (std::abs(sim.efficiency - e.efficiency) > expected::kScCommittedEff) {
      v.fail(at + fmt(": efficiency %.5f, committed %.5f", sim.efficiency,
                      e.efficiency));
    }
    if (std::abs(sim.voltage_drop - e.voltage_drop) > expected::kScCommittedDropV) {
      v.fail(at + fmt(": Vdrop %.6f V, committed %.6f V", sim.voltage_drop,
                      e.voltage_drop));
    }
  }
  return v;
}

}  // namespace vbench
