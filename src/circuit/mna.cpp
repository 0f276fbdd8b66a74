#include "circuit/mna.h"

#include <cmath>
#include <sstream>

namespace vstack::circuit {

MnaSystem::MnaSystem(const Netlist& netlist) : netlist_(netlist) {}

std::size_t MnaSystem::unknown_count() const {
  return (netlist_.node_count() - 1) + netlist_.voltage_sources().size();
}

std::size_t MnaSystem::voltage_index(NodeId node) const {
  VS_REQUIRE(node != kGround, "ground has no voltage unknown");
  VS_REQUIRE(node < netlist_.node_count(), "node out of range");
  return node - 1;
}

std::size_t MnaSystem::source_current_index(std::size_t vsource_index) const {
  VS_REQUIRE(vsource_index < netlist_.voltage_sources().size(),
             "voltage source index out of range");
  return (netlist_.node_count() - 1) + vsource_index;
}

void MnaSystem::stamp_conductance(la::DenseMatrix& m, NodeId a, NodeId b,
                                  double conductance) const {
  if (a != kGround) {
    m(voltage_index(a), voltage_index(a)) += conductance;
  }
  if (b != kGround) {
    m(voltage_index(b), voltage_index(b)) += conductance;
  }
  if (a != kGround && b != kGround) {
    m(voltage_index(a), voltage_index(b)) -= conductance;
    m(voltage_index(b), voltage_index(a)) -= conductance;
  }
}

la::DenseMatrix MnaSystem::assemble_matrix(
    const std::vector<bool>& switch_on,
    const std::vector<double>& cap_conductance) const {
  la::DenseMatrix m = assemble_base(switch_on);
  if (!cap_conductance.empty()) stamp_capacitors(m, cap_conductance);
  return m;
}

la::DenseMatrix MnaSystem::assemble_base(
    const std::vector<bool>& switch_on) const {
  VS_REQUIRE(switch_on.size() == netlist_.switches().size(),
             "switch state vector size mismatch");

  la::DenseMatrix m(unknown_count(), unknown_count(), 0.0);

  for (const auto& r : netlist_.resistors()) {
    stamp_conductance(m, r.a, r.b, 1.0 / r.resistance);
  }
  for (std::size_t s = 0; s < netlist_.switches().size(); ++s) {
    const auto& sw = netlist_.switches()[s];
    const double res = switch_on[s] ? sw.on_resistance : sw.off_resistance;
    stamp_conductance(m, sw.a, sw.b, 1.0 / res);
  }
  for (std::size_t v = 0; v < netlist_.voltage_sources().size(); ++v) {
    const auto& src = netlist_.voltage_sources()[v];
    const std::size_t branch = source_current_index(v);
    // Branch current unknown is defined as flowing INTO the + terminal.
    if (src.positive != kGround) {
      m(voltage_index(src.positive), branch) += 1.0;
      m(branch, voltage_index(src.positive)) += 1.0;
    }
    if (src.negative != kGround) {
      m(voltage_index(src.negative), branch) -= 1.0;
      m(branch, voltage_index(src.negative)) -= 1.0;
    }
  }
  return m;
}

void MnaSystem::stamp_capacitors(
    la::DenseMatrix& m, const std::vector<double>& cap_conductance) const {
  VS_REQUIRE(cap_conductance.size() == netlist_.capacitors().size(),
             "capacitor conductance vector size mismatch");
  for (std::size_t c = 0; c < netlist_.capacitors().size(); ++c) {
    if (cap_conductance[c] > 0.0) {
      stamp_conductance(m, netlist_.capacitors()[c].a,
                        netlist_.capacitors()[c].b, cap_conductance[c]);
    }
  }
}

la::Vector MnaSystem::assemble_rhs(
    const std::vector<double>& cap_history_current) const {
  la::Vector rhs;
  assemble_rhs(cap_history_current, rhs);
  return rhs;
}

void MnaSystem::assemble_rhs(const std::vector<double>& cap_history_current,
                             la::Vector& rhs) const {
  VS_REQUIRE(cap_history_current.empty() ||
                 cap_history_current.size() == netlist_.capacitors().size(),
             "capacitor history vector size mismatch");

  rhs.assign(unknown_count(), 0.0);

  for (const auto& src : netlist_.current_sources()) {
    // `current` flows from_node -> to_node through the source: it leaves
    // from_node (negative injection) and enters to_node.
    if (src.from_node != kGround) {
      rhs[voltage_index(src.from_node)] -= src.current;
    }
    if (src.to_node != kGround) {
      rhs[voltage_index(src.to_node)] += src.current;
    }
  }
  if (!cap_history_current.empty()) {
    for (std::size_t c = 0; c < netlist_.capacitors().size(); ++c) {
      const auto& cap = netlist_.capacitors()[c];
      const double ieq = cap_history_current[c];  // enters terminal a
      if (cap.a != kGround) rhs[voltage_index(cap.a)] += ieq;
      if (cap.b != kGround) rhs[voltage_index(cap.b)] -= ieq;
    }
  }
  for (std::size_t v = 0; v < netlist_.voltage_sources().size(); ++v) {
    rhs[source_current_index(v)] = netlist_.voltage_sources()[v].voltage;
  }
}

double MnaSystem::node_voltage(const la::Vector& solution, NodeId node) const {
  if (node == kGround) return 0.0;
  return solution[voltage_index(node)];
}

DcSolution dc_solve(const Netlist& netlist,
                    const std::vector<bool>& switch_on) {
  MnaSystem mna(netlist);
  const la::DenseMatrix m = mna.assemble_matrix(switch_on, {});
  const la::Vector rhs = mna.assemble_rhs({});
  const la::Vector x = la::DenseLu(m).solve(rhs);

  DcSolution sol;
  sol.node_voltages.assign(netlist.node_count(), 0.0);
  for (NodeId n = 1; n < netlist.node_count(); ++n) {
    sol.node_voltages[n] = mna.node_voltage(x, n);
  }
  sol.vsource_currents.assign(netlist.voltage_sources().size(), 0.0);
  for (std::size_t v = 0; v < netlist.voltage_sources().size(); ++v) {
    // Report current DELIVERED by the source (out of the + terminal): the
    // negative of the MNA branch unknown.
    sol.vsource_currents[v] = -x[mna.source_current_index(v)];
  }
  return sol;
}

namespace {

bool all_finite(const la::Vector& x) {
  for (const double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Solve the MNA system with an extra `gmin` conductance on every node
/// diagonal and independent sources scaled by `source_scale`.  Returns an
/// empty vector on factorization failure or a non-finite solution.
la::Vector regularized_solve(const MnaSystem& mna, const Netlist& netlist,
                             const std::vector<bool>& switch_on, double gmin,
                             double source_scale) {
  la::DenseMatrix m = mna.assemble_matrix(switch_on, {});
  if (gmin > 0.0) {
    for (NodeId node = 1; node < netlist.node_count(); ++node) {
      const std::size_t i = mna.voltage_index(node);
      m(i, i) += gmin;
    }
  }
  la::Vector rhs = mna.assemble_rhs({});
  if (source_scale != 1.0) {
    for (double& v : rhs) v *= source_scale;
  }
  try {
    la::Vector x = la::DenseLu(std::move(m)).solve(rhs);
    if (!all_finite(x)) return {};
    return x;
  } catch (const Error&) {
    return {};
  }
}

DcSolution solution_from(const MnaSystem& mna, const Netlist& netlist,
                         const la::Vector& x) {
  DcSolution sol;
  sol.node_voltages.assign(netlist.node_count(), 0.0);
  for (NodeId n = 1; n < netlist.node_count(); ++n) {
    sol.node_voltages[n] = mna.node_voltage(x, n);
  }
  sol.vsource_currents.assign(netlist.voltage_sources().size(), 0.0);
  for (std::size_t v = 0; v < netlist.voltage_sources().size(); ++v) {
    sol.vsource_currents[v] = -x[mna.source_current_index(v)];
  }
  return sol;
}

}  // namespace

DcSolution dc_solve_robust(const Netlist& netlist,
                           const std::vector<bool>& switch_on,
                           DcSolveReport* report) {
  const MnaSystem mna(netlist);
  DcSolveReport local;
  DcSolveReport& rep = report ? *report : local;

  // Rung 1: direct solve of the untouched system.
  la::Vector x = regularized_solve(mna, netlist, switch_on, 0.0, 1.0);
  if (!x.empty()) {
    rep.ok = true;
    rep.method = "direct";
    return solution_from(mna, netlist, x);
  }

  // Rung 2: gmin regularization -- a weak conductance from every node to
  // ground makes floating subcircuits (nodes isolated behind open switches
  // or DC-open capacitors) well-posed while perturbing driven nodes by
  // O(gmin * R).  Try the weakest shunt first.
  for (const double gmin : {1e-12, 1e-9, 1e-6}) {
    x = regularized_solve(mna, netlist, switch_on, gmin, 1.0);
    if (!x.empty()) {
      rep.ok = true;
      std::ostringstream oss;
      oss << "gmin(" << gmin << ")";
      rep.method = oss.str();
      return solution_from(mna, netlist, x);
    }
  }

  // Rung 3: source stepping under the strongest gmin shunt -- ramp every
  // independent source from 10% to 100% and keep the last finite solution.
  // (For a linear network each rung solve is independent; the ramp guards
  // against overflow in extremely ill-conditioned systems.)
  la::Vector best;
  for (const double scale : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    x = regularized_solve(mna, netlist, switch_on, 1e-6, scale);
    if (!x.empty()) best = x;
  }
  if (!best.empty()) {
    rep.ok = true;
    rep.method = "source-stepping";
    return solution_from(mna, netlist, best);
  }

  rep.ok = false;
  rep.method = "none";
  rep.diagnostic =
      "DC operating point unsolvable: direct LU, gmin regularization "
      "(1e-12..1e-6) and source stepping all failed";
  DcSolution sol;
  sol.node_voltages.assign(netlist.node_count(), 0.0);
  sol.vsource_currents.assign(netlist.voltage_sources().size(), 0.0);
  return sol;
}

}  // namespace vstack::circuit
