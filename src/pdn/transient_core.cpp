#include "pdn/transient_core.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "la/solver.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn::detail {

namespace {

const telemetry::Counter t_cache_hits("pdn.step_solver.cache.hits");
const telemetry::Counter t_cache_misses("pdn.step_solver.cache.misses");
const telemetry::Counter t_cache_epoch_invalidations(
    "pdn.step_solver.cache.epoch_invalidations");
const telemetry::Counter t_rebuilds("pdn.topology.rebuilds");

bool is_fixed(std::size_t node) {
  return node == kFixedSupply || node == kFixedGround;
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(x));
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

la::SolveOptions ladder_options(const PdnTransientOptions& options) {
  la::SolveOptions ladder;
  ladder.iterative = options.iterative;
  return ladder;
}

}  // namespace

void SplitSystem::values_at(double h, bool backward_euler,
                            std::vector<double>& values) const {
  const double s = backward_euler ? 1.0 : 2.0;
  values.clear();
  values.reserve(static_part.size() + cap_part.size() + ind_part.size());
  for (const auto& t : static_part) values.push_back(t.v);
  for (const auto& t : cap_part) values.push_back(t.v * s / h);
  for (const auto& t : ind_part) values.push_back(t.v * h / s);
}

bool StepSolver::solve(double h, bool backward_euler, const la::Vector& rhs,
                       la::Vector& x, double t, sim::TransientReport& report,
                       std::string& diagnostic) {
  Slot& c = cached(h, backward_euler, t, report);
  if (c.direct) {
    la::Vector sol = c.direct->solve(rhs);
    if (sim::finite_and_bounded(sol)) {
      x = std::move(sol);
      return true;
    }
    report.record_event(t, "direct back-substitution produced non-finite "
                           "values; escalating to the iterative ladder");
  }
  if (c.solver) {
    la::Vector iterate = x;
    const auto r = c.solver->iterate_once(rhs, iterate, options_.iterative);
    if (r.converged && sim::finite_and_bounded(iterate)) {
      x = std::move(iterate);
      return true;
    }
    report.record_event(t, "warm-started CG stalled (residual " +
                               sim::format_g(r.residual_norm) +
                               "); escalating through the solver ladder");
  }
  // Final rung: the full non-throwing escalation ladder from PR 1.  Slots
  // that went direct-only build their iterative handle on first need.
  if (!c.solver) {
    c.solver = std::make_unique<la::Solver>(c.matrix, ladder_options(options_));
  }
  la::Vector iterate = x;
  const auto r = c.solver->solve(rhs, iterate, options_.iterative);
  if (r.converged && sim::finite_and_bounded(iterate)) {
    x = std::move(iterate);
    return true;
  }
  diagnostic = r.diagnostic.empty() ? "transient solve failed" : r.diagnostic;
  return false;
}

StepSolver::Slot& StepSolver::cached(double h, bool backward_euler, double t,
                                     sim::TransientReport& report) {
  // The epoch is what makes mid-run faults safe: applying a FaultSet bumps
  // the network's topology epoch, rebuild_topology() stamps it into the split
  // system (with a new pattern), and every pre-fault slot is dropped.
  if (sys_.epoch != last_seen_epoch_) {
    if (last_seen_epoch_ != static_cast<std::size_t>(-1)) {
      t_cache_epoch_invalidations.add();
    }
    slots_.clear();
    last_seen_epoch_ = sys_.epoch;
  }
  ++use_clock_;
  const std::uint64_t dt_bits = bits_of(h);
  for (const auto& slot : slots_) {
    if (slot->dt_bits == dt_bits && slot->backward_euler == backward_euler) {
      t_cache_hits.add();
      slot->last_use = use_clock_;
      return *slot;
    }
  }
  t_cache_misses.add();

  // Miss: fill a new slot while there is room, else recycle the least
  // recently used one in place (same epoch, so same pattern).
  Slot* slot = nullptr;
  {
    VS_SPAN("pdn.step.assemble");
    sys_.values_at(h, backward_euler, values_);
    if (slots_.size() < kSlots) {
      slots_.push_back(std::make_unique<Slot>());
      slot = slots_.back().get();
      slot->matrix = sys_.pattern.scatter(values_);
    } else {
      slot = std::min_element(slots_.begin(), slots_.end(),
                              [](const auto& a, const auto& b) {
                                return a->last_use < b->last_use;
                              })
                 ->get();
      sys_.pattern.scatter(values_, slot->matrix);
    }
  }
  slot->dt_bits = dt_bits;
  slot->backward_euler = backward_euler;
  slot->last_use = use_clock_;
  factor(*slot, h, t, report);
  return *slot;
}

void StepSolver::factor(Slot& slot, double h, double t,
                        sim::TransientReport& report) {
  slot.direct.reset();
  if (sys_.n <= options_.direct_solver_node_limit) {
    try {
      slot.direct = std::make_unique<la::ReorderedCholesky>(slot.matrix);
    } catch (const Error&) {
      report.record_event(t, "skyline Cholesky factorization failed for "
                             "dt = " + sim::format_g(h) +
                             " s; using the iterative ladder");
    }
  }
  if (slot.direct) {
    // Like a fresh slot, a direct slot binds its iterative handle only on
    // first need; one bound to the previous values is stale.
    slot.solver.reset();
  } else if (slot.solver) {
    slot.solver->refresh();
  } else {
    slot.solver =
        std::make_unique<la::Solver>(slot.matrix, ladder_options(options_));
  }
}

TransientWorkspace::TransientWorkspace(const PdnNetwork& net,
                                       const PdnTransientOptions& options)
    : net_(net), options_(options) {
  const StackupConfig& cfg = net_.config();
  layer_count_ = cfg.layer_count;
  cells_ = cfg.grid_nx * cfg.grid_ny;
  lvdd_mid_ = net_.node_count();
  lgnd_mid_ = net_.node_count() + 1;

  VS_REQUIRE(options.layer_decap_density.empty() ||
                 options.layer_decap_density.size() == cfg.layer_count,
             "per-layer decap vector must match layer count");
  const double cell_area = net_.floorplan().width * net_.floorplan().height /
                           static_cast<double>(cells_);
  layer_cap_.resize(layer_count_);
  for (std::size_t l = 0; l < layer_count_; ++l) {
    const double density = options.layer_decap_density.empty()
                               ? options.decap_density
                               : options.layer_decap_density[l];
    VS_REQUIRE(density > 0.0, "decap density must be positive");
    layer_cap_[l] = density * cell_area;
  }

  rebuild_topology();
}

void TransientWorkspace::rebuild_topology() {
  t_rebuilds.add();
  const StackupConfig& cfg = net_.config();

  // Two extra unknowns split the package resistors so the loop inductance
  // can sit between the ideal source and the package node.
  sys_.n = net_.node_count() + 2;
  sys_.epoch = net_.topology_epoch();
  sys_.static_part.clear();
  sys_.cap_part.clear();
  sys_.ind_part.clear();

  for (const auto& group : net_.conductors()) {
    if (group.count == 0) continue;  // fully opened by a fault
    const double g = static_cast<double>(group.count) / group.unit_resistance;
    std::size_t a = group.node_a;
    std::size_t b = group.node_b;
    // Reroute package resistors through the inductor mid nodes.
    if (group.kind == ConductorKind::PackageVdd) a = lvdd_mid_;
    if (group.kind == ConductorKind::PackageGnd) b = lgnd_mid_;

    const bool a_fixed = is_fixed(a);
    const bool b_fixed = is_fixed(b);
    VS_REQUIRE(!(a_fixed && b_fixed), "conductor between two fixed rails");
    if (!a_fixed && !b_fixed) {
      sys_.static_part.push_back({a, a, g});
      sys_.static_part.push_back({b, b, g});
      sys_.static_part.push_back({a, b, -g});
      sys_.static_part.push_back({b, a, -g});
    } else {
      const std::size_t free_node = a_fixed ? b : a;
      sys_.static_part.push_back({free_node, free_node, g});
      // No static fixed-rail injections remain: both package paths go
      // through the inductor companions below.
    }
  }

  // Converters (quasi-static: regulation bandwidth assumed above the step).
  const bool ideal_reference =
      cfg.converter_reference == ConverterReference::IdealRails;
  for (const auto& conv : net_.converters()) {
    if (!conv.enabled) continue;  // stuck-off fault
    const double g = 1.0 / conv.r_series;
    if (ideal_reference) {
      sys_.static_part.push_back({conv.out, conv.out, g});
    } else {
      const std::size_t idx[3] = {conv.top, conv.bottom, conv.out};
      const double v[3] = {0.5, 0.5, -1.0};
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          sys_.static_part.push_back({idx[i], idx[j], g * v[i] * v[j]});
        }
      }
    }
  }

  // Decap companions: one per (layer, cell); density may vary per layer.
  for (std::size_t l = 0; l < layer_count_; ++l) {
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      const std::size_t a = net_.vdd_node(l, cell);
      const std::size_t b = net_.gnd_node(l, cell);
      sys_.cap_part.push_back({a, a, layer_cap_[l]});
      sys_.cap_part.push_back({b, b, layer_cap_[l]});
      sys_.cap_part.push_back({a, b, -layer_cap_[l]});
      sys_.cap_part.push_back({b, a, -layer_cap_[l]});
    }
  }

  // Inductor companions: supply -> lvdd_mid, lgnd_mid -> ground.
  const double inv_l = 1.0 / options_.package_inductance;
  sys_.ind_part.push_back({lvdd_mid_, lvdd_mid_, inv_l});
  sys_.ind_part.push_back({lgnd_mid_, lgnd_mid_, inv_l});

  la::CooBuilder keys(sys_.n);
  for (const auto* part :
       {&sys_.static_part, &sys_.cap_part, &sys_.ind_part}) {
    for (const auto& t : *part) keys.add(t.i, t.j, 0.0);
  }
  sys_.pattern = keys.pattern();
}

void TransientWorkspace::init_states(const PdnSolution& dc, la::Vector& x) {
  VS_REQUIRE(x.size() == sys_.n, "state vector size mismatch");
  for (std::size_t i = 0; i < net_.node_count(); ++i) {
    x[i] = dc.node_voltages[i];
  }
  x[lvdd_mid_] = net_.config().supply_voltage();  // inductors short at DC
  x[lgnd_mid_] = 0.0;

  cap_v_.assign(layer_count_ * cells_, 0.0);
  cap_i_.assign(layer_count_ * cells_, 0.0);
  for (std::size_t l = 0; l < layer_count_; ++l) {
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      cap_v_[l * cells_ + cell] =
          x[net_.vdd_node(l, cell)] - x[net_.gnd_node(l, cell)];
    }
  }
  // Inductor states (current flowing from the fixed rail into the chip on
  // the Vdd side, and from the chip into ground on the return side).
  lvdd_i_ = dc.supply_current;
  lgnd_i_ = dc.supply_current;
  lvdd_v_ = 0.0;  // DC inductor voltage is zero
  lgnd_v_ = 0.0;
}

void TransientWorkspace::build_rhs(const std::vector<LoadInjection>& loads,
                                   double h, bool be, la::Vector& rhs) const {
  const StackupConfig& cfg = net_.config();
  const bool ideal_reference =
      cfg.converter_reference == ConverterReference::IdealRails;
  const double s = be ? 1.0 : 2.0;
  const double g_l = h / (s * options_.package_inductance);
  std::fill(rhs.begin(), rhs.end(), 0.0);
  for (const auto& load : loads) {
    rhs[load.vdd_node] -= load.current;
    rhs[load.gnd_node] += load.current;
  }
  if (ideal_reference) {
    for (const auto& conv : net_.converters()) {
      if (!conv.enabled) continue;
      rhs[conv.out] += (1.0 / conv.r_series) *
                       static_cast<double>(conv.level) * cfg.vdd;
    }
  }
  // Capacitor histories.
  for (std::size_t l = 0; l < layer_count_; ++l) {
    const double g_c = s * layer_cap_[l] / h;
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      const std::size_t k = l * cells_ + cell;
      const double j_c = g_c * cap_v_[k] + (be ? 0.0 : cap_i_[k]);
      rhs[net_.vdd_node(l, cell)] += j_c;
      rhs[net_.gnd_node(l, cell)] -= j_c;
    }
  }
  // Inductor histories (fixed-rail side folded into the RHS).
  const double j_lvdd = lvdd_i_ + (be ? 0.0 : g_l * lvdd_v_);
  rhs[lvdd_mid_] += g_l * cfg.supply_voltage() + j_lvdd;
  const double j_lgnd = lgnd_i_ + (be ? 0.0 : g_l * lgnd_v_);
  rhs[lgnd_mid_] += -j_lgnd;  // current leaves the mid node into ground
}

void TransientWorkspace::commit_states(const la::Vector& sol, double h,
                                       bool be) {
  const double s = be ? 1.0 : 2.0;
  const double g_l = h / (s * options_.package_inductance);
  for (std::size_t l = 0; l < layer_count_; ++l) {
    const double g_c = s * layer_cap_[l] / h;
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      const std::size_t k = l * cells_ + cell;
      const double v_new =
          sol[net_.vdd_node(l, cell)] - sol[net_.gnd_node(l, cell)];
      const double j_c = g_c * cap_v_[k] + (be ? 0.0 : cap_i_[k]);
      cap_i_[k] = g_c * v_new - j_c;
      cap_v_[k] = v_new;
    }
  }
  const double v_supply = net_.config().supply_voltage();
  const double j_lvdd = lvdd_i_ + (be ? 0.0 : g_l * lvdd_v_);
  lvdd_v_ = v_supply - sol[lvdd_mid_];
  lvdd_i_ = j_lvdd + g_l * lvdd_v_;
  const double j_lgnd = lgnd_i_ + (be ? 0.0 : g_l * lgnd_v_);
  lgnd_v_ = sol[lgnd_mid_];  // mid node minus ground
  lgnd_i_ = j_lgnd + g_l * lgnd_v_;
}

bool TransientWorkspace::adaptive_step(sim::AdaptiveStepper& stepper,
                                       StepSolver& solver,
                                       const std::vector<LoadInjection>& loads,
                                       double next_event, la::Vector& x) {
  const double t = stepper.time();
  const double dt = stepper.begin(next_event);
  if (!stepper.running()) return false;
  const bool be = stepper.backward_euler();
  rhs_.resize(sys_.n);
  build_rhs(loads, dt, be, rhs_);
  candidate_ = x;  // warm start; x stays the last accepted solution
  std::string diagnostic;
  if (!solver.solve(dt, be, rhs_, candidate_, t, stepper.report(),
                    diagnostic)) {
    stepper.reject("linear solve failure");
    return false;
  }
  cap_new_.resize(cap_v_.size());
  for (std::size_t l = 0; l < layer_count_; ++l) {
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      cap_new_[l * cells_ + cell] = candidate_[net_.vdd_node(l, cell)] -
                                    candidate_[net_.gnd_node(l, cell)];
    }
  }
  if (!stepper.try_accept(candidate_, cap_new_)) return false;
  commit_states(candidate_, dt, be);
  x.swap(candidate_);
  return true;
}

double TransientWorkspace::nominal(std::size_t layer, bool vdd_net) const {
  const StackupConfig& cfg = net_.config();
  const double gnd = cfg.is_voltage_stacked()
                         ? static_cast<double>(layer) * cfg.vdd
                         : 0.0;
  return vdd_net ? gnd + cfg.vdd : gnd;
}

double TransientWorkspace::worst_noise_of(const la::Vector& sol,
                                          std::vector<double>* per_layer)
    const {
  const double vdd = net_.config().vdd;
  if (per_layer != nullptr) per_layer->assign(layer_count_, 0.0);
  double worst = 0.0;
  for (std::size_t l = 0; l < layer_count_; ++l) {
    double layer_worst = 0.0;
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      layer_worst = std::max(layer_worst,
                             std::abs(sol[net_.vdd_node(l, cell)] -
                                      nominal(l, true)));
      layer_worst = std::max(layer_worst,
                             std::abs(sol[net_.gnd_node(l, cell)] -
                                      nominal(l, false)));
    }
    if (per_layer != nullptr) (*per_layer)[l] = layer_worst / vdd;
    worst = std::max(worst, layer_worst);
  }
  return worst / vdd;
}

}  // namespace vstack::pdn::detail
