#include "circuit/transient.h"

#include <cmath>
#include <cstddef>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace vstack::circuit {

namespace {

using telemetry::monotonic_seconds;

/// Fractional part in [0, 1).
double frac(double x) { return x - std::floor(x); }

/// Windowed trapezoidal integral of samples[k] over time[k] >= from_time,
/// divided by the window span (exact time-average for non-uniform steps).
template <typename Sample>
double windowed_average(const std::vector<double>& time, double from_time,
                        const Sample& sample) {
  VS_REQUIRE(!time.empty(), "no samples recorded");
  std::size_t k0 = 0;
  while (k0 < time.size() && time[k0] < from_time) ++k0;
  VS_REQUIRE(k0 < time.size(), "averaging window contains no samples");
  if (k0 + 1 == time.size()) return sample(k0);
  double integral = 0.0;
  for (std::size_t k = k0; k + 1 < time.size(); ++k) {
    integral += 0.5 * (sample(k) + sample(k + 1)) * (time[k + 1] - time[k]);
  }
  return integral / (time.back() - time[k0]);
}

/// Clocked states in `state` with every switch fault active at `t_eval`
/// overriding its switch.  The first time a fault takes effect it is
/// recorded into the report's event trail (at `t_report`, the step's
/// reporting time).
void apply_switch_faults(std::vector<bool>& state,
                         const TransientOptions& options, double t_eval,
                         double t_report, std::vector<bool>& applied,
                         sim::TransientReport& report) {
  for (std::size_t i = 0; i < options.switch_faults.size(); ++i) {
    const auto& f = options.switch_faults[i];
    if (t_eval < f.time) continue;
    state[f.switch_index] = f.stuck_on;
    if (!applied[i]) {
      applied[i] = true;
      const std::string label =
          f.label.empty() ? "switch " + std::to_string(f.switch_index)
                          : f.label;
      report.record_event(t_report, "switch fault '" + label + "': drive " +
                                        std::string(f.stuck_on
                                                        ? "stuck on"
                                                        : "stuck off"));
    }
  }
}

}  // namespace

namespace detail {

/// Shared per-run integrator state, step-matrix workspace and sample
/// recording.
struct TransientEngine {
  /// A factored step matrix; ok == false when it stayed singular through
  /// the whole gmin ladder.
  struct StepFactor {
    la::DenseLu lu;
    bool ok = false;
  };

  /// One switch pattern seen in the run: its base stamp (resistors,
  /// switches, sources), when factors are reused the step factorization
  /// per scheme ([0] trapezoidal, [1] backward Euler), and otherwise the
  /// gmin shift that last factored it (0 while it needed none).
  struct Pattern {
    std::vector<bool> state;
    la::DenseMatrix base;
    std::optional<StepFactor> factor[2];
    double gmin = 0.0;
  };

  const Netlist& netlist;
  const MnaSystem mna;
  /// Fixed mode: dt never changes, so a (pattern, scheme) factorization is
  /// valid for the whole run.  Adaptive mode factors every step.
  const bool reuse_factors;
  std::vector<double> cap_voltage;
  std::vector<double> cap_current;
  std::vector<Pattern> patterns;
  std::size_t last_pattern = 0;
  la::DenseMatrix step_matrix;  // base + capacitor companions
  la::DenseLu step_lu;          // adaptive mode's per-step factorization
  la::Vector rhs;
  // Per-run tallies, published once by publish_counters().
  std::size_t factorizations = 0;
  std::size_t factor_hits = 0;
  std::size_t factor_misses = 0;
  TransientResult result;
  /// Where recovery events go: the report of the run this engine serves
  /// (the result's own in fixed mode, the stepper's in adaptive mode).
  sim::TransientReport* report = &result.report;

  TransientEngine(const Netlist& net, bool reuse)
      : netlist(net), mna(net), reuse_factors(reuse) {
    const auto& caps = net.capacitors();
    cap_voltage.resize(caps.size());
    cap_current.assign(caps.size(), 0.0);
    for (std::size_t c = 0; c < caps.size(); ++c) {
      cap_voltage[c] = caps[c].initial_voltage;
    }
    result.node_count_ = net.node_count();
    result.source_count_ = net.voltage_sources().size();
  }

  void init_from_dc(const std::vector<bool>& state0) {
    DcSolveReport dc_report;
    const DcSolution dc = dc_solve_robust(netlist, state0, &dc_report);
    if (dc_report.ok) {
      for (std::size_t c = 0; c < netlist.capacitors().size(); ++c) {
        const auto& cap = netlist.capacitors()[c];
        cap_voltage[c] = dc.node_voltages[cap.a] - dc.node_voltages[cap.b];
      }
      if (dc_report.method != "direct") {
        report->record_event(
            0.0, "DC initialization recovered via " + dc_report.method);
      }
    } else {
      report->record_event(
          0.0, dc_report.diagnostic + "; using netlist initial conditions");
    }
  }

  void companions(bool backward_euler, double h, std::vector<double>& geq,
                  std::vector<double>& ieq) const {
    const auto& caps = netlist.capacitors();
    for (std::size_t c = 0; c < caps.size(); ++c) {
      if (backward_euler) {
        geq[c] = caps[c].capacitance / h;
        ieq[c] = geq[c] * cap_voltage[c];
      } else {
        geq[c] = 2.0 * caps[c].capacitance / h;
        ieq[c] = geq[c] * cap_voltage[c] + cap_current[c];
      }
    }
  }

  /// The pattern entry for `state`, stamping its base on first sight.
  Pattern& pattern_for(const std::vector<bool>& state) {
    if (last_pattern < patterns.size() &&
        patterns[last_pattern].state == state) {
      return patterns[last_pattern];
    }
    for (last_pattern = 0; last_pattern < patterns.size(); ++last_pattern) {
      if (patterns[last_pattern].state == state) {
        return patterns[last_pattern];
      }
    }
    patterns.push_back(Pattern{state, mna.assemble_base(state), {}});
    return patterns.back();
  }

  /// Add `gmin` to every node-voltage diagonal entry of `m`.
  void shift_diagonal(la::DenseMatrix& m, double gmin) const {
    for (NodeId node = 1; node < netlist.node_count(); ++node) {
      const std::size_t i = mna.voltage_index(node);
      m(i, i) += gmin;
    }
  }

  /// Factor the pattern's base + capacitor companions into `lu`,
  /// escalating through a gmin diagonal shift when the direct
  /// factorization reports a singular matrix (a floating subcircuit behind
  /// open switches, for example).  A pattern that needed a shift is
  /// factored at that shift directly, in place, on later (adaptive) steps;
  /// the ladder, and its trail event, run again only if that shift no
  /// longer suffices.  Returns false on total failure.
  bool factor_step(Pattern& pattern, const std::vector<double>& geq,
                   double t, la::DenseLu& lu) {
    ++factorizations;
    step_matrix = pattern.base;
    mna.stamp_capacitors(step_matrix, geq);
    if (pattern.gmin > 0.0) {
      shift_diagonal(step_matrix, pattern.gmin);
      try {
        lu.refactor(step_matrix);
        return true;
      } catch (const Error&) {
      }
      step_matrix = pattern.base;
      mna.stamp_capacitors(step_matrix, geq);
    }
    try {
      lu.refactor(step_matrix);
      pattern.gmin = 0.0;
      return true;
    } catch (const Error&) {
    }
    for (const double gmin : {1e-12, 1e-9, 1e-6}) {
      la::DenseMatrix shifted = step_matrix;
      shift_diagonal(shifted, gmin);
      try {
        lu.refactor(shifted);
      } catch (const Error&) {
        continue;
      }
      // Fixed mode factors each (pattern, scheme) once and records each.
      if (!reuse_factors) pattern.gmin = gmin;
      std::ostringstream oss;
      oss << "singular step matrix; factored with gmin shift " << gmin;
      report->record_event(t, oss.str());
      return true;
    }
    return false;
  }

  /// Factor (or, with reuse_factors, look up) and solve one step into `x`.
  /// Returns false when the matrix is unfactorizable even with the ladder.
  bool solve_step(const std::vector<bool>& state, bool backward_euler,
                  const std::vector<double>& geq,
                  const std::vector<double>& ieq, double t, la::Vector& x) {
    Pattern& pattern = pattern_for(state);
    const la::DenseLu* lu = &step_lu;
    if (reuse_factors) {
      std::optional<StepFactor>& slot = pattern.factor[backward_euler];
      if (slot) {
        ++factor_hits;
      } else {
        ++factor_misses;
        slot.emplace();
        slot->ok = factor_step(pattern, geq, t, slot->lu);
      }
      if (!slot->ok) return false;
      lu = &slot->lu;
    } else if (!factor_step(pattern, geq, t, step_lu)) {
      return false;
    }
    mna.assemble_rhs(ieq, rhs);
    lu->solve_into(rhs, x);
    return true;
  }

  void record_sample(double t, const la::Vector& x) {
    result.time.push_back(t);
    // Node-voltage unknowns lead the MNA vector (nodes 1..n-1 in order).
    const std::size_t voltages = netlist.node_count() - 1;
    result.node_voltages_.insert(result.node_voltages_.end(), x.begin(),
                                 x.begin() + static_cast<std::ptrdiff_t>(
                                                 voltages));
    for (std::size_t v = 0; v < result.source_count_; ++v) {
      result.vsource_currents_.push_back(-x[mna.source_current_index(v)]);
    }
  }

  void reserve_samples(std::size_t n) {
    result.time.reserve(n);
    result.node_voltages_.reserve(n * (netlist.node_count() - 1));
    result.vsource_currents_.reserve(n * result.source_count_);
  }

  void commit_caps(const la::Vector& x, const std::vector<double>& geq,
                   const std::vector<double>& ieq) {
    const auto& caps = netlist.capacitors();
    for (std::size_t c = 0; c < caps.size(); ++c) {
      const double v_new =
          mna.node_voltage(x, caps[c].a) - mna.node_voltage(x, caps[c].b);
      cap_current[c] = geq[c] * v_new - ieq[c];
      cap_voltage[c] = v_new;
    }
  }

  /// Add this run's factorization tallies to the process counters (the
  /// cache counters only exist once a fixed-mode run has used the cache).
  void publish_counters() const {
    static const telemetry::Counter c_factorizations(
        "circuit.transient.factorizations");
    c_factorizations.add(static_cast<double>(factorizations));
    if (reuse_factors) {
      static const telemetry::Counter c_hits(
          "circuit.transient.factor_cache.hits");
      static const telemetry::Counter c_misses(
          "circuit.transient.factor_cache.misses");
      c_hits.add(static_cast<double>(factor_hits));
      c_misses.add(static_cast<double>(factor_misses));
    }
  }
};

}  // namespace detail

double TransientResult::node_voltage(std::size_t k, NodeId node) const {
  VS_REQUIRE(k < sample_count(), "sample index out of range");
  VS_REQUIRE(node < node_count_, "node out of range");
  if (node == kGround) return 0.0;
  return node_voltages_[k * (node_count_ - 1) + (node - 1)];
}

double TransientResult::vsource_current(std::size_t k,
                                        std::size_t source) const {
  VS_REQUIRE(k < sample_count(), "sample index out of range");
  VS_REQUIRE(source < source_count_, "voltage source index out of range");
  return vsource_currents_[k * source_count_ + source];
}

double TransientResult::average_node_voltage(NodeId node,
                                             double from_time) const {
  return windowed_average(time, from_time, [&](std::size_t k) {
    return node_voltage(k, node);
  });
}

double TransientResult::average_vsource_current(std::size_t source,
                                                double from_time) const {
  return windowed_average(time, from_time, [&](std::size_t k) {
    return vsource_current(k, source);
  });
}

double TransientResult::min_node_voltage(NodeId node, double from_time) const {
  VS_REQUIRE(!time.empty(), "no samples recorded");
  double m = 1e300;
  for (std::size_t k = 0; k < time.size(); ++k) {
    if (time[k] < from_time) continue;
    m = std::min(m, node_voltage(k, node));
  }
  return m;
}

double TransientResult::max_node_voltage(NodeId node, double from_time) const {
  VS_REQUIRE(!time.empty(), "no samples recorded");
  double m = -1e300;
  for (std::size_t k = 0; k < time.size(); ++k) {
    if (time[k] < from_time) continue;
    m = std::max(m, node_voltage(k, node));
  }
  return m;
}

TransientSimulator::TransientSimulator(const Netlist& netlist,
                                       double clock_period)
    : netlist_(netlist), clock_period_(clock_period) {
  VS_REQUIRE(clock_period > 0.0, "clock period must be positive");
}

std::vector<bool> TransientSimulator::switch_states(double t) const {
  std::vector<bool> on;
  fill_switch_states(t, on);
  return on;
}

void TransientSimulator::fill_switch_states(double t,
                                            std::vector<bool>& on) const {
  on.resize(netlist_.switches().size());
  for (std::size_t s = 0; s < on.size(); ++s) {
    const auto& phase = netlist_.switches()[s].phase;
    on[s] = frac(t / clock_period_ + phase.phase_offset) < phase.duty;
  }
}

sim::PeriodicEvents TransientSimulator::switch_edges() const {
  if (netlist_.switches().empty()) return {};
  std::vector<double> fractions;
  fractions.reserve(2 * netlist_.switches().size());
  for (const auto& sw : netlist_.switches()) {
    // ON while frac(t/T + offset) < duty: edges where the shifted phase
    // crosses 0 (turn-on) and duty (turn-off).
    fractions.push_back(frac(1.0 - sw.phase.phase_offset));
    fractions.push_back(frac(sw.phase.duty - sw.phase.phase_offset + 1.0));
  }
  return sim::PeriodicEvents(clock_period_, std::move(fractions));
}

TransientResult TransientSimulator::run(const TransientOptions& options) {
  VS_REQUIRE(options.stop_time > 0.0, "stop_time must be positive");
  for (const auto& f : options.switch_faults) {
    VS_REQUIRE(f.switch_index < netlist_.switches().size(),
               "switch-fault index out of range");
    VS_REQUIRE(std::isfinite(f.time), "switch-fault time must be finite");
  }
  options.control.validate();
  if (options.mode == SteppingMode::Fixed) {
    return run_fixed(options);
  }
  return run_adaptive(options);
}

TransientResult TransientSimulator::run_fixed(const TransientOptions& options) {
  VS_REQUIRE(options.time_step > 0.0, "time_step must be positive");
  VS_REQUIRE(options.time_step < options.stop_time,
             "time_step must be smaller than stop_time");
  const double h = options.time_step;

  // The historical footgun, now diagnosed: with a fixed grid, switch events
  // only land on step boundaries when the step divides the clock period.
  if (!netlist_.switches().empty()) {
    const double ratio = clock_period_ / h;
    const double remainder = std::abs(ratio - std::llround(ratio));
    if (remainder > 1e-6 * std::max(1.0, ratio)) {
      std::ostringstream oss;
      oss << "fixed time_step " << h
          << " s does not divide the clock period " << clock_period_
          << " s evenly (period/step = " << ratio
          << "); switch edges would skew -- use period/N, or "
             "SteppingMode::Adaptive which snaps onto edges";
      VS_FAIL(oss.str());
    }
  }

  detail::TransientEngine eng(netlist_, /*reuse_factors=*/true);
  if (options.start_from_dc) eng.init_from_dc(switch_states(0.0));

  const auto n_steps = static_cast<std::size_t>(
      std::llround(options.stop_time / h));
  eng.reserve_samples(n_steps);

  sim::TransientReport& report = eng.result.report;
  const double wall_start = monotonic_seconds();
  std::vector<bool> prev_state = switch_states(0.5 * h);
  std::vector<bool> state;
  std::vector<bool> faults_applied(options.switch_faults.size(), false);
  int backward_euler_steps = 2;  // start conservatively

  std::vector<double> geq(netlist_.capacitors().size());
  std::vector<double> ieq(netlist_.capacitors().size());
  la::Vector x;

  for (std::size_t step = 0; step < n_steps; ++step) {
    if (sim::budget_exhausted(options.control, step, wall_start,
                              static_cast<double>(step) * h, report)) {
      break;
    }
    const double t_new = static_cast<double>(step + 1) * h;
    // Evaluate switch state at the midpoint of the step so events that land
    // exactly on a boundary take effect in the step that follows them.
    fill_switch_states(t_new - 0.5 * h, state);
    apply_switch_faults(state, options, t_new - 0.5 * h, t_new,
                        faults_applied, report);
    if (state != prev_state) {
      backward_euler_steps = 2;
      prev_state = state;
    }
    const bool be = backward_euler_steps > 0;
    if (backward_euler_steps > 0) --backward_euler_steps;

    eng.companions(be, h, geq, ieq);
    if (!eng.solve_step(state, be, geq, ieq, t_new, x)) {
      report.status = sim::TransientStatus::SolverFailure;
      report.diagnostic = "step matrix singular beyond the gmin ladder at "
                          "t = " + sim::format_g(t_new) + " s";
      break;
    }
    if (!sim::finite_and_bounded(x)) {
      report.status = sim::TransientStatus::SolverFailure;
      report.diagnostic =
          "NaN/overflow guard fired at t = " + sim::format_g(t_new) +
          " s (fixed step cannot be refined; rerun with a smaller step or "
          "SteppingMode::Adaptive)";
      ++report.rejected_steps;
      ++report.guard_rejections;
      break;
    }

    eng.commit_caps(x, geq, ieq);
    eng.record_sample(t_new, x);
    ++report.accepted_steps;
    report.end_time = t_new;
  }

  sim::finalize_fixed_run(report, h, wall_start);
  eng.publish_counters();
  return eng.result;
}

TransientResult TransientSimulator::run_adaptive(
    const TransientOptions& options) {
  VS_REQUIRE(options.time_step >= 0.0, "time_step must be non-negative");

  double dt_max = options.time_step;
  if (dt_max <= 0.0) {
    dt_max = netlist_.switches().empty() ? options.stop_time / 1000.0
                                         : clock_period_ / 64.0;
  }
  dt_max = std::min(dt_max, options.stop_time);

  // Restart far below the fastest time constant, or the BE steps after an
  // edge mis-integrate its current spike and bias the input power.
  sim::AdaptiveStepper stepper(options.control, options.stop_time, dt_max,
                               dt_max / 256.0);
  detail::TransientEngine eng(netlist_, /*reuse_factors=*/false);
  eng.report = &stepper.report();
  if (options.start_from_dc) eng.init_from_dc(switch_states(0.0));

  // Unified timeline: clocked switch edges plus every switch-fault instant,
  // so the controller lands a step boundary exactly on each.
  sim::EventSchedule schedule(options.stop_time);
  schedule.add_periodic(switch_edges());
  for (const auto& f : options.switch_faults) schedule.add_time(f.time);
  std::vector<bool> faults_applied(options.switch_faults.size(), false);
  std::vector<bool> state;

  std::vector<double> geq(netlist_.capacitors().size());
  std::vector<double> ieq(netlist_.capacitors().size());
  la::Vector x;

  while (stepper.running()) {
    const double t = stepper.time();
    const double dt = stepper.begin(schedule.next_after(t));
    if (!stepper.running()) break;
    const bool be = stepper.backward_euler();

    fill_switch_states(t + 0.5 * dt, state);
    apply_switch_faults(state, options, t + 0.5 * dt, t, faults_applied,
                        stepper.report());
    eng.companions(be, dt, geq, ieq);
    if (!eng.solve_step(state, be, geq, ieq, t, x)) {
      stepper.reject("unfactorizable step matrix");
      continue;
    }
    // LTE over the FULL MNA vector, source branch currents included: the
    // post-edge current spikes set the average input power (efficiency).
    if (!stepper.try_accept(x, x)) continue;
    eng.commit_caps(x, geq, ieq);
    eng.record_sample(stepper.time(), x);
    // Trapezoidal history is invalid across a switch edge.
    if (stepper.ended_on_event()) stepper.restart();
  }

  eng.result.report = stepper.finalize();
  eng.publish_counters();
  return eng.result;
}

}  // namespace vstack::circuit
