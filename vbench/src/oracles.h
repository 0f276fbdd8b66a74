// Output checks for every workload.  Each check takes the program's output
// as a value and returns the problems it found, so the self-tests can feed
// it a deliberately perturbed copy and watch it object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/sc_testbench.h"
#include "core/campaign.h"
#include "core/sweeps.h"
#include "la/sparse.h"
#include "pgio/grid.h"
#include "pgio/validate.h"
#include "sc/compact_model.h"

namespace vbench {

/// Problems found by one or more checks; empty means the output passed.
struct Verdict {
  std::vector<std::string> problems;

  bool ok() const { return problems.empty(); }
  void fail(std::string problem) { problems.push_back(std::move(problem)); }
  void merge(const Verdict& other);
};

/// Operations attempted and failed.  An operation fails when its solve did
/// not converge, its scenario was truncated or timed out, or its output
/// missed an oracle.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Count one operation; returns `ok` so call sites can chain on it.
  bool record(bool ok);
};

// --- paper_sweeps ----------------------------------------------------------

/// Fig. 5a/5b rows against the committed seed-commit values.
Verdict check_fig5a(const std::vector<vstack::core::Fig5aRow>& rows);
Verdict check_fig5b(const std::vector<vstack::core::Fig5bRow>& rows);

/// Fig. 6 / Fig. 8: the anchor imbalances (which the seed never moves)
/// against committed values, every row against the paper's qualitative
/// claims (noise grows with imbalance and falls with converter count;
/// efficiency falls with both).
Verdict check_fig6(const vstack::core::Fig6Result& result);
Verdict check_fig8(const vstack::core::Fig8Result& result);

/// Fig. 7: the paper's ~65% mean max-imbalance, for any sampling seed.
Verdict check_fig7(
    const std::vector<vstack::power::ApplicationPowerSummary>& apps);

/// The fixed imbalance points of Fig. 6 and Fig. 8 plus seeded jitter on
/// every other point (at most 3 percentage points either way).
std::vector<double> fig6_imbalances(std::uint64_t seed);
std::vector<double> fig8_imbalances(std::uint64_t seed);

// --- ride_through_campaign -------------------------------------------------

/// Every scenario ran to a real verdict, the counts add up, the worst droop
/// is physical, and -- for the seeds with committed expectations -- the
/// verdict counts and worst droop match them.
Verdict check_campaign(const vstack::core::CampaignReport& report,
                       std::uint64_t seed, std::size_t trials);

/// A resumed run restored every scenario from the manifest with the same
/// aggregates as the run that wrote it.
Verdict check_resume(const vstack::core::CampaignReport& original,
                     const vstack::core::CampaignReport& resumed);

// --- imported_grid ---------------------------------------------------------

/// KCL: the grid carries the netlist's load current, and the current the
/// pads source through conductors equals the load current drawn off them.
Verdict check_kcl(const vstack::pgio::ImportedGrid& grid,
                  const vstack::pgio::GridSolution& solution,
                  double expected_load_a);

/// Two solutions of one system agree node by node within `tolerance_v`.
Verdict check_agreement(const vstack::la::Vector& a,
                        const vstack::la::Vector& b, double tolerance_v,
                        const std::string& what);

/// A fixture matched its golden solution under every backend.
Verdict check_fixture(const vstack::pgio::ValidationReport& report,
                      const std::string& name);

// --- sc_converter_transient ------------------------------------------------

/// One Fig. 3 operating point.
struct ScPoint {
  vstack::sc::ControlPolicy policy;
  double load_ma;
};

/// The simulator's efficiency and output drop track the compact model
/// (Fig. 3's claim, at the tolerances of the repository's own Fig. 3
/// regression) and the committed seed-commit values.
Verdict check_sc_point(const ScPoint& point,
                       const vstack::circuit::ScMeasurement& sim,
                       const vstack::sc::ScOperatingPoint& model);

}  // namespace vbench
