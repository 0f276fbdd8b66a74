// Fault injection into the PDN: FaultSet application semantics, topology-
// epoch cache invalidation, floating-island detection, and the acceptance
// property that a damaged network redistributes current instead of
// crashing the solver.
#include "pdn/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "pdn/solver.h"

namespace vstack::pdn {
namespace {

const floorplan::Floorplan& paper_fp() {
  static const floorplan::Floorplan fp = floorplan::paper_layer_floorplan();
  return fp;
}

const power::CorePowerModel& cpm() {
  static const power::CorePowerModel m =
      power::CorePowerModel::cortex_a9_like();
  return m;
}

StackupConfig small_regular(std::size_t layers) {
  StackupConfig cfg;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = 16;
  return cfg;
}

StackupConfig small_stacked(std::size_t layers) {
  StackupConfig cfg;
  cfg.topology = PdnTopology::VoltageStacked;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = 16;
  return cfg;
}

std::size_t first_group_of_kind(const PdnNetwork& net, ConductorKind kind) {
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    if (net.conductors()[i].kind == kind && net.conductors()[i].count > 0) {
      return i;
    }
  }
  ADD_FAILURE() << "no conductor group of requested kind";
  return 0;
}

bool all_finite(const la::Vector& x) {
  for (const double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

TEST(FaultSetTest, MutatorsBumpTopologyEpochAndKeepIndicesStable) {
  PdnModel model(small_stacked(2), paper_fp());
  PdnNetwork& net = model.network_mutable();
  const std::size_t groups_before = net.conductors().size();
  const std::size_t epoch0 = net.topology_epoch();

  const std::size_t tsv = first_group_of_kind(net, ConductorKind::RecyclingTsv);
  const std::size_t count_before = net.conductors()[tsv].count;
  const double r_before = net.conductors()[tsv].unit_resistance;

  FaultSet faults;
  faults.open_conductor(tsv, 1)
      .degrade_conductor(tsv, 4.0)
      .converter_stuck_off(0)
      .leakage_to_ground(net.vdd_node(0, 0), 25.0);
  EXPECT_EQ(faults.size(), 4u);
  faults.apply_to(net);

  EXPECT_EQ(net.topology_epoch(), epoch0 + 4);
  EXPECT_EQ(net.conductors()[tsv].count, count_before - 1);
  EXPECT_DOUBLE_EQ(net.conductors()[tsv].unit_resistance, 4.0 * r_before);
  EXPECT_FALSE(net.converters()[0].enabled);
  // Leakage appends; nothing is erased, so indices stay valid.
  ASSERT_EQ(net.conductors().size(), groups_before + 1);
  EXPECT_EQ(net.conductors().back().kind, ConductorKind::Leakage);
  EXPECT_EQ(net.conductors().back().node_b, kFixedGround);
  EXPECT_DOUBLE_EQ(net.conductors().back().unit_resistance, 25.0);
}

TEST(FaultSetTest, OpenWholeGroupLeavesInertPlaceholder) {
  PdnModel model(small_regular(2), paper_fp());
  PdnNetwork& net = model.network_mutable();
  const std::size_t groups = net.conductors().size();
  const std::size_t tsv = first_group_of_kind(net, ConductorKind::TsvVdd);

  FaultSet().open_conductor(tsv).apply_to(net);  // default: whole group
  EXPECT_EQ(net.conductors().size(), groups);
  EXPECT_EQ(net.conductors()[tsv].count, 0u);
}

TEST(FaultSetTest, DescribeNamesEveryFault) {
  PdnModel model(small_stacked(2), paper_fp());
  FaultSet faults;
  faults.open_conductor(3).converter_stuck_off(1);
  const std::string text = faults.describe(model.network());
  EXPECT_NE(text.find("open"), std::string::npos);
  EXPECT_NE(text.find("conv-off"), std::string::npos);
}

TEST(FaultSetTest, ConverterBankKeepsTheFirstPhasesAndRejectsEmptyLevels) {
  const PdnModel model(small_stacked(4), paper_fp());
  const PdnNetwork& net = model.network();
  std::vector<std::size_t> bank;  // level-2 converters, network order
  for (std::size_t i = 0; i < net.converters().size(); ++i) {
    if (net.converters()[i].level == 2) bank.push_back(i);
  }
  ASSERT_GT(bank.size(), 3u);

  FaultSet faults;
  EXPECT_EQ(stick_off_converter_bank(faults, net, 2, 3), bank.size());
  ASSERT_EQ(faults.size(), bank.size() - 3);
  for (std::size_t k = 0; k < faults.size(); ++k) {
    EXPECT_EQ(faults.faults()[k].kind, FaultKind::ConverterStuckOff);
    EXPECT_EQ(faults.faults()[k].index, bank[k + 3]);
  }

  // Keeping the whole bank sticks nothing off but still reports its size.
  FaultSet none;
  EXPECT_EQ(stick_off_converter_bank(none, net, 2, bank.size()), bank.size());
  EXPECT_TRUE(none.empty());

  // A regular stack has no converter banks; a stacked one has none outside
  // its intermediate rails.
  const PdnModel regular(small_regular(4), paper_fp());
  FaultSet rejected;
  EXPECT_THROW(stick_off_converter_bank(rejected, regular.network(), 2, 0),
               Error);
  EXPECT_THROW(stick_off_converter_bank(rejected, net, 9, 0), Error);
  EXPECT_TRUE(rejected.empty());
}

TEST(FaultSetTest, CacheInvalidatedAcrossFaultApplication) {
  // Same model, solve -> degrade every through-via -> solve: the second
  // solve must see the mutated topology (worse noise), not a stale cache.
  PdnModel model(small_stacked(2), paper_fp());
  const std::vector<double> acts(2, 1.0);
  const auto before = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(before.solve_ok);

  FaultSet faults;
  for (std::size_t i = 0; i < model.network().conductors().size(); ++i) {
    if (model.network().conductors()[i].kind == ConductorKind::ThroughVia) {
      faults.degrade_conductor(i, 10.0);
    }
  }
  ASSERT_FALSE(faults.empty());
  faults.apply_to(model.network_mutable());

  const auto after = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(after.solve_ok);
  EXPECT_GT(after.max_node_deviation_fraction,
            before.max_node_deviation_fraction);
}

TEST(FloatingIslandTest, HealthyNetworksHaveNoIslands) {
  PdnModel regular(small_regular(2), paper_fp());
  PdnModel stacked(small_stacked(4), paper_fp());
  EXPECT_EQ(find_floating_islands(regular.network()).islands.size(), 0u);
  EXPECT_EQ(find_floating_islands(stacked.network()).islands.size(), 0u);
}

TEST(FloatingIslandTest, SeveredVddLayerBecomesAnIsland) {
  // Regular 2-layer: layer 1's Vdd net reaches the package only through
  // Vdd TSVs.  Opening every one strands the whole net.
  PdnModel model(small_regular(2), paper_fp());
  PdnNetwork& net = model.network_mutable();
  FaultSet faults;
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    if (net.conductors()[i].kind == ConductorKind::TsvVdd) {
      faults.open_conductor(i);
    }
  }
  faults.apply_to(net);

  const auto report = find_floating_islands(net);
  ASSERT_EQ(report.islands.size(), 1u);
  const std::size_t cells = 16 * 16;
  EXPECT_EQ(report.floating_node_count(), cells);  // layer 1's Vdd grid
  for (const std::size_t node : report.islands[0]) {
    EXPECT_GE(node, net.vdd_node(1, 0));
    EXPECT_LE(node, net.vdd_node(1, cells - 1));
  }
}

TEST(FloatingIslandTest, SolveOnSeveredLayerIsCleanlyInfeasible) {
  // The island is grounded with a weak pin, so the matrix stays regular:
  // the solve must complete with finite voltages and flag the stranded
  // load current as structurally infeasible -- no throw, no NaN.
  PdnModel model(small_regular(2), paper_fp());
  PdnNetwork& net = model.network_mutable();
  FaultSet faults;
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    if (net.conductors()[i].kind == ConductorKind::TsvVdd) {
      faults.open_conductor(i);
    }
  }
  faults.apply_to(net);

  const auto sol = model.solve_activities(cpm(), {1.0, 1.0});
  EXPECT_TRUE(sol.solve_ok);  // linear solve itself succeeds
  EXPECT_EQ(sol.floating_island_count, 1u);
  EXPECT_GT(sol.floating_node_count, 0u);
  EXPECT_GT(sol.floating_load_current, 1.0);  // a full layer's current
  EXPECT_NE(sol.diagnostic.find("structurally infeasible"),
            std::string::npos);
  EXPECT_TRUE(all_finite(sol.node_voltages));
}

TEST(FaultInjectionTest, StuckOffConverterSourcesNoCurrent) {
  PdnModel model(small_stacked(4), paper_fp());
  // Imbalanced load so converters carry real current.
  const std::vector<double> acts{1.0, 0.2, 1.0, 0.2};
  const auto before = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(before.solve_ok);
  ASSERT_GT(std::abs(before.converter_currents[0]), 1e-6);

  FaultSet().converter_stuck_off(0).apply_to(model.network_mutable());
  const auto after = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(after.solve_ok);
  EXPECT_DOUBLE_EQ(after.converter_currents[0], 0.0);
  ASSERT_EQ(after.converter_currents.size(), before.converter_currents.size());
  // The dropped phase's share shifts onto its neighbours.
  EXPECT_GT(after.max_converter_current, before.max_converter_current - 1e-6);
}

TEST(FaultInjectionTest, OpenedTsvRedistributesCurrentConservatively) {
  // Acceptance property (ISSUE): open the highest-current recycling-TSV
  // group of a 4-layer stack; survivors must pick up the current (same
  // total vertical current per interface) and noise must not improve.
  PdnModel model(small_stacked(4), paper_fp());
  const std::vector<double> acts{1.0, 0.2, 1.0, 0.2};
  const auto before = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(before.solve_ok);

  // Highest-current recycling-TSV group, via per-group terminal voltages.
  const PdnNetwork& net = model.network();
  std::size_t worst = static_cast<std::size_t>(-1);
  double worst_current = -1.0;
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    const auto& g = net.conductors()[i];
    if (g.kind != ConductorKind::RecyclingTsv) continue;
    const double current =
        std::abs(before.node_voltages[g.node_a] -
                 before.node_voltages[g.node_b]) *
        static_cast<double>(g.count) / g.unit_resistance;
    if (current > worst_current) {
      worst_current = current;
      worst = i;
    }
  }
  ASSERT_NE(worst, static_cast<std::size_t>(-1));
  ASSERT_GT(worst_current, 0.0);

  FaultSet().open_conductor(worst).apply_to(model.network_mutable());
  const auto after = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(after.solve_ok);
  EXPECT_TRUE(all_finite(after.node_voltages));

  // Conservation: the same load current still flows, so the off-chip draw
  // is unchanged to solver tolerance and noise is monotone non-improving.
  EXPECT_NEAR(after.supply_current, before.supply_current,
              0.01 * before.supply_current);
  EXPECT_GE(after.max_node_deviation_fraction,
            before.max_node_deviation_fraction - 1e-6);
  EXPECT_GE(after.max_ir_drop_fraction, before.max_ir_drop_fraction - 1e-6);
}

TEST(FaultInjectionTest, LeakageShortDrawsExtraSupplyCurrent) {
  PdnModel model(small_stacked(2), paper_fp());
  const std::vector<double> acts(2, 1.0);
  const auto before = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(before.solve_ok);

  // Short the top rail's corner to board ground through 10 ohms.
  FaultSet()
      .leakage_to_ground(model.network().vdd_node(1, 0), 10.0)
      .apply_to(model.network_mutable());
  const auto after = model.solve_activities(cpm(), acts);
  ASSERT_TRUE(after.solve_ok);
  // ~2 V across ~10 ohm: a fifth of an amp of waste, straight off the top.
  EXPECT_GT(after.supply_current, before.supply_current + 0.1);
  EXPECT_GT(after.max_node_deviation_fraction,
            before.max_node_deviation_fraction);
}

}  // namespace
}  // namespace vstack::pdn
