#include "circuit/mna.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "circuit/sc_testbench.h"
#include "common/error.h"
#include "common/rng.h"

namespace vstack::circuit {
namespace {

TEST(MnaTest, VoltageDivider) {
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId mid = net.create_node("mid");
  net.add_voltage_source(vin, kGround, 10.0);
  net.add_resistor(vin, mid, 1000.0);
  net.add_resistor(mid, kGround, 3000.0);

  const DcSolution sol = dc_solve(net, {});
  EXPECT_NEAR(sol.node_voltages[vin], 10.0, 1e-12);
  EXPECT_NEAR(sol.node_voltages[mid], 7.5, 1e-12);
  // Source delivers 10V / 4k = 2.5 mA.
  EXPECT_NEAR(sol.vsource_currents[0], 2.5e-3, 1e-12);
}

TEST(MnaTest, CurrentSourceIntoResistor) {
  Netlist net;
  const NodeId n = net.create_node("n");
  net.add_current_source(kGround, n, 1e-3);  // 1 mA into n
  net.add_resistor(n, kGround, 2000.0);
  const DcSolution sol = dc_solve(net, {});
  EXPECT_NEAR(sol.node_voltages[n], 2.0, 1e-12);
}

TEST(MnaTest, LoadSinkConvention) {
  // A load drawing current FROM a supplied node pulls its voltage down
  // through the source resistance.
  Netlist net;
  const NodeId vdd = net.create_node("vdd");
  const NodeId load = net.create_node("load");
  net.add_voltage_source(vdd, kGround, 1.0);
  net.add_resistor(vdd, load, 10.0);
  net.add_current_source(load, kGround, 10e-3);  // 10 mA load sink
  const DcSolution sol = dc_solve(net, {});
  EXPECT_NEAR(sol.node_voltages[load], 0.9, 1e-12);
}

TEST(MnaTest, SwitchStatesChangeTopology) {
  Netlist net;
  const NodeId a = net.create_node("a");
  net.add_voltage_source(a, kGround, 5.0);
  const NodeId b = net.create_node("b");
  net.add_switch(a, b, 1.0, 1e12, ClockPhase{0.0, 0.5});
  net.add_resistor(b, kGround, 1.0);

  const DcSolution on = dc_solve(net, {true});
  EXPECT_NEAR(on.node_voltages[b], 2.5, 1e-9);
  const DcSolution off = dc_solve(net, {false});
  EXPECT_NEAR(off.node_voltages[b], 0.0, 1e-6);
}

TEST(MnaTest, CapacitorsOpenInDc) {
  Netlist net;
  const NodeId a = net.create_node("a");
  const NodeId b = net.create_node("b");
  net.add_voltage_source(a, kGround, 3.0);
  net.add_resistor(a, b, 100.0);
  net.add_capacitor(b, kGround, 1e-6);
  net.add_resistor(b, kGround, 100.0);
  const DcSolution sol = dc_solve(net, {});
  // Capacitor draws no DC current: plain divider.
  EXPECT_NEAR(sol.node_voltages[b], 1.5, 1e-12);
}

TEST(MnaTest, TwoVoltageSources) {
  Netlist net;
  const NodeId a = net.create_node("a");
  const NodeId b = net.create_node("b");
  net.add_voltage_source(a, kGround, 2.0);
  net.add_voltage_source(b, kGround, 1.0);
  net.add_resistor(a, b, 100.0);
  const DcSolution sol = dc_solve(net, {});
  // 10 mA flows a -> b.
  EXPECT_NEAR(sol.vsource_currents[0], 0.01, 1e-12);
  EXPECT_NEAR(sol.vsource_currents[1], -0.01, 1e-12);
}

TEST(MnaTest, VoltageIndexRejectsGround) {
  Netlist net;
  net.create_node("a");
  MnaSystem mna(net);
  EXPECT_THROW(mna.voltage_index(kGround), Error);
}

TEST(MnaTest, UnknownCountIncludesSources) {
  Netlist net;
  const NodeId a = net.create_node("a");
  const NodeId b = net.create_node("b");
  net.add_voltage_source(a, kGround, 1.0);
  net.add_resistor(a, b, 1.0);
  net.add_resistor(b, kGround, 1.0);
  MnaSystem mna(net);
  EXPECT_EQ(mna.unknown_count(), 3u);  // 2 node voltages + 1 branch current
}

/// The one-pass full assembly the transient engine used before the
/// per-pattern base existed: resistors, switches, capacitors, then source
/// branches, all into one zeroed matrix.  Kept here as the reference the
/// split assembly must reproduce bit for bit.
la::DenseMatrix reference_assembly(const MnaSystem& mna,
                                   const std::vector<bool>& switch_on,
                                   const std::vector<double>& geq) {
  const Netlist& net = mna.netlist();
  la::DenseMatrix m(mna.unknown_count(), mna.unknown_count(), 0.0);
  const auto stamp = [&](NodeId a, NodeId b, double g) {
    if (a != kGround) m(mna.voltage_index(a), mna.voltage_index(a)) += g;
    if (b != kGround) m(mna.voltage_index(b), mna.voltage_index(b)) += g;
    if (a != kGround && b != kGround) {
      m(mna.voltage_index(a), mna.voltage_index(b)) -= g;
      m(mna.voltage_index(b), mna.voltage_index(a)) -= g;
    }
  };
  for (const auto& r : net.resistors()) stamp(r.a, r.b, 1.0 / r.resistance);
  for (std::size_t s = 0; s < net.switches().size(); ++s) {
    const auto& sw = net.switches()[s];
    stamp(sw.a, sw.b,
          1.0 / (switch_on[s] ? sw.on_resistance : sw.off_resistance));
  }
  for (std::size_t c = 0; c < net.capacitors().size(); ++c) {
    if (geq[c] > 0.0) {
      stamp(net.capacitors()[c].a, net.capacitors()[c].b, geq[c]);
    }
  }
  for (std::size_t v = 0; v < net.voltage_sources().size(); ++v) {
    const auto& src = net.voltage_sources()[v];
    const std::size_t branch = mna.source_current_index(v);
    if (src.positive != kGround) {
      m(mna.voltage_index(src.positive), branch) += 1.0;
      m(branch, mna.voltage_index(src.positive)) += 1.0;
    }
    if (src.negative != kGround) {
      m(mna.voltage_index(src.negative), branch) -= 1.0;
      m(branch, mna.voltage_index(src.negative)) -= 1.0;
    }
  }
  return m;
}

bool bitwise_equal(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

TEST(MnaTest, PatternBasePlusCapacitorsMatchesFullAssemblyBitwise) {
  // Every switch pattern the push-pull testbench's clock produces, plus
  // each of those with one switch flipped (a stuck switch), under seeded
  // random companion conductances -- including skipped (<= 0) entries.
  const ScTestbenchConfig cfg;
  const ScTestbenchCircuit tb = build_push_pull_sc(cfg);
  const MnaSystem mna(tb.netlist);
  const TransientSimulator sim(tb.netlist, 1.0 / cfg.switching_frequency);

  std::set<std::vector<bool>> clocked;
  const double period = 1.0 / cfg.switching_frequency;
  for (int i = 0; i < 4096; ++i) {
    clocked.insert(sim.switch_states((i + 0.5) * period / 4096));
  }
  ASSERT_GE(clocked.size(), 4u);
  std::set<std::vector<bool>> patterns = clocked;
  for (const auto& p : clocked) {
    for (std::size_t s = 0; s < p.size(); ++s) {
      std::vector<bool> flipped = p;
      flipped[s] = !flipped[s];
      patterns.insert(flipped);
    }
  }

  Rng rng(16);
  std::vector<double> geq(tb.netlist.capacitors().size());
  for (const auto& pattern : patterns) {
    const la::DenseMatrix base = mna.assemble_base(pattern);
    for (int draw = 0; draw < 3; ++draw) {
      for (double& g : geq) {
        g = rng.uniform() < 0.1 ? 0.0 : std::exp(rng.uniform(-5.0, 12.0));
      }
      la::DenseMatrix split = base;
      mna.stamp_capacitors(split, geq);
      const la::DenseMatrix reference = reference_assembly(mna, pattern, geq);
      ASSERT_TRUE(bitwise_equal(split, reference));
      ASSERT_TRUE(bitwise_equal(mna.assemble_matrix(pattern, geq), reference));
    }
  }
}

TEST(MnaTest, StampCapacitorsRejectsSizeMismatch) {
  Netlist net;
  const NodeId a = net.create_node("a");
  net.add_resistor(a, kGround, 1.0);
  net.add_capacitor(a, kGround, 1e-9, 0.0);
  const MnaSystem mna(net);
  la::DenseMatrix m = mna.assemble_base({});
  EXPECT_THROW(mna.stamp_capacitors(m, {}), Error);
  EXPECT_THROW(mna.stamp_capacitors(m, {1.0, 2.0}), Error);
}

TEST(MnaTest, RhsIntoReusesAndMatchesReturnedRhs) {
  Netlist net;
  const NodeId a = net.create_node("a");
  const NodeId b = net.create_node("b");
  net.add_voltage_source(a, kGround, 1.5);
  net.add_current_source(a, b, 2e-3);
  net.add_capacitor(a, b, 1e-9, 0.0);
  const MnaSystem mna(net);
  la::Vector rhs(7, 42.0);  // stale contents and size must not leak through
  mna.assemble_rhs({0.25}, rhs);
  EXPECT_EQ(rhs, mna.assemble_rhs({0.25}));
}

}  // namespace
}  // namespace vstack::circuit
