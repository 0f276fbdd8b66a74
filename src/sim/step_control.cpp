#include "sim/step_control.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace vstack::sim {

using telemetry::monotonic_seconds;

namespace {

/// Step-size controller safety factor on the error-optimal dt.
constexpr double kSafety = 0.8;

/// Step guard threshold: any |entry| beyond this rejects a candidate.
constexpr double kOverflowLimit = 1e12;

void record_transient_telemetry(const TransientReport& report,
                                double wall_start_seconds) {
  static const telemetry::Counter t_runs("sim.transient.runs");
  static const telemetry::Counter t_truncated("sim.transient.runs_truncated");
  static const telemetry::Counter t_accepted("sim.transient.accepted_steps");
  static const telemetry::Counter t_rejected("sim.transient.rejected_steps");
  static const telemetry::Counter t_lte("sim.transient.lte_rejections");
  static const telemetry::Counter t_guard("sim.transient.guard_rejections");
  static const telemetry::Counter t_solver("sim.transient.solver_rejections");
  static const telemetry::Counter t_recovery("sim.transient.recovery_events");
  static const telemetry::Histogram t_wall(
      "sim.transient.run_seconds",
      {1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0});

  t_runs.add();
  if (!report.ok()) t_truncated.add();
  t_accepted.add(static_cast<double>(report.accepted_steps));
  t_rejected.add(static_cast<double>(report.rejected_steps));
  t_lte.add(static_cast<double>(report.lte_rejections));
  t_guard.add(static_cast<double>(report.guard_rejections));
  t_solver.add(static_cast<double>(report.solver_rejections));
  t_recovery.add(static_cast<double>(report.events.size() +
                                     report.events_dropped));
  t_wall.record(report.wall_seconds);
  telemetry::record_span("sim.transient.run", wall_start_seconds,
                         wall_start_seconds + report.wall_seconds);
}

}  // namespace

const char* to_string(TransientStatus status) {
  switch (status) {
    case TransientStatus::Completed: return "completed";
    case TransientStatus::BudgetExhausted: return "budget-exhausted";
    case TransientStatus::StepCollapse: return "step-collapse";
    case TransientStatus::SolverFailure: return "solver-failure";
  }
  return "unknown";
}

void TransientReport::record_event(double time, std::string what) {
  if (events.size() >= kMaxEvents) {
    ++events_dropped;
    return;
  }
  events.push_back(RecoveryEvent{time, std::move(what)});
}

std::string TransientReport::summary() const {
  std::ostringstream oss;
  oss << to_string(status) << ": " << accepted_steps << " steps";
  if (rejected_steps > 0) {
    oss << " (+" << rejected_steps << " rejected: " << lte_rejections
        << " lte, " << guard_rejections << " guard, " << solver_rejections
        << " solver)";
  }
  if (accepted_steps > 0) {
    oss << ", dt " << min_dt << ".." << max_dt << " s";
  }
  oss << ", t_end " << end_time << " s";
  if (!events.empty()) {
    oss << ", " << events.size() + events_dropped << " recovery events";
  }
  if (!diagnostic.empty()) oss << " -- " << diagnostic;
  return oss.str();
}

void StepControlOptions::validate() const {
  VS_REQUIRE(rel_tol > 0.0 && abs_tol > 0.0, "LTE tolerances must be positive");
  VS_REQUIRE(dt_min >= 0.0, "dt_min must be non-negative");
  VS_REQUIRE(dt_grow > 1.0, "dt_grow must exceed 1");
  VS_REQUIRE(dt_shrink > 0.0 && dt_shrink < 1.0, "dt_shrink must be in (0,1)");
  VS_REQUIRE(max_rejections_per_step >= 1,
             "need at least one rejection before collapse");
}

StepController::StepController(const StepControlOptions& options,
                               double t_start, double t_end, double dt_init,
                               double dt_max)
    : opts_(options), t_(t_start), t_end_(t_end), dt_max_(dt_max) {
  opts_.validate();
  VS_REQUIRE(t_end > t_start, "t_end must exceed t_start");
  VS_REQUIRE(dt_init > 0.0 && dt_max > 0.0, "timesteps must be positive");
  VS_REQUIRE(dt_init <= dt_max, "dt_init must not exceed dt_max");
  if (opts_.dt_min <= 0.0) opts_.dt_min = dt_max * 1e-7;
  dt_ = std::max(dt_init, opts_.dt_min);
  wall_start_s_ = monotonic_seconds();
}

void StepController::fail(TransientStatus status,
                          const std::string& diagnostic) {
  failed_ = true;
  report_.status = status;
  report_.diagnostic = diagnostic;
}

double StepController::begin_step(double next_event) {
  if (done_ || failed_) return 0.0;
  if (budget_exhausted(opts_, attempted_steps_, wall_start_s_, t_, report_)) {
    failed_ = true;
    return 0.0;
  }
  ++attempted_steps_;

  double dt = std::min(dt_, dt_max_);
  ends_on_event_ = false;
  // Clamp onto the stop time and any pending event: land exactly when the
  // step would cross it, and stretch/truncate when the step would end within
  // 10% of dt before it (avoids a follow-up sliver step).
  double target = t_end_;
  bool target_is_event = false;
  if (next_event < target) {
    target = next_event;
    target_is_event = true;
  }
  if (t_ + dt * 1.1 >= target) {
    dt = target - t_;
    ends_on_event_ = target_is_event;
  }
  dt_ = std::max(dt, 0.0);
  return dt_;
}

bool StepController::finish_step(double err_norm, int order) {
  VS_REQUIRE(order >= 1, "integration order must be >= 1");
  const double exponent = 1.0 / (order + 1);
  if (std::isfinite(err_norm) && err_norm <= 1.0) {
    t_ += dt_;
    ++report_.accepted_steps;
    report_.min_dt = std::min(report_.min_dt, dt_);
    report_.max_dt = std::max(report_.max_dt, dt_);
    report_.last_dt = dt_;
    report_.max_accepted_error = std::max(report_.max_accepted_error,
                                          err_norm);
    report_.end_time = t_;
    consecutive_rejections_ = 0;
    if (t_ >= t_end_ - 1e-12 * t_end_) done_ = true;
    // Exponential grow-back; a borderline accept (err near 1) shrinks the
    // next step slightly instead of oscillating between accept and reject.
    double grow = opts_.dt_grow;
    if (err_norm > 0.0) {
      grow = std::min(grow, kSafety * std::pow(err_norm, -exponent));
      grow = std::max(grow, opts_.dt_shrink);
    }
    dt_ = std::min(dt_ * grow, dt_max_);
    return true;
  }

  ++report_.rejected_steps;
  ++report_.lte_rejections;
  ++consecutive_rejections_;
  double shrink = opts_.dt_shrink;
  if (std::isfinite(err_norm) && err_norm > 1.0) {
    shrink = std::max(shrink,
                      std::min(0.5, kSafety * std::pow(err_norm, -exponent)));
  }
  dt_ *= shrink;
  if (dt_ < opts_.dt_min ||
      consecutive_rejections_ > opts_.max_rejections_per_step) {
    fail(TransientStatus::StepCollapse,
         "timestep collapsed below " + format_g(opts_.dt_min) +
             " s at t = " + format_g(t_) + " s after " +
             std::to_string(consecutive_rejections_) +
             " consecutive rejections");
  }
  return false;
}

void StepController::reject_step(const char* kind) {
  ++report_.rejected_steps;
  if (std::string(kind).find("guard") != std::string::npos) {
    ++report_.guard_rejections;
  } else {
    ++report_.solver_rejections;
  }
  ++consecutive_rejections_;
  report_.record_event(t_, std::string(kind) + " at dt = " + format_g(dt_) +
                               " s; step rejected");
  dt_ *= 0.5;
  if (dt_ < opts_.dt_min ||
      consecutive_rejections_ > opts_.max_rejections_per_step) {
    fail(TransientStatus::SolverFailure,
         std::string(kind) + " persisted down to dt = " + format_g(dt_) +
             " s at t = " + format_g(t_) + " s; giving up");
  }
}

void StepController::reset_dt(double dt) {
  dt_ = std::min(dt_, std::max(dt, opts_.dt_min));
}

void StepController::finalize() {
  report_.wall_seconds = monotonic_seconds() - wall_start_s_;
  if (report_.accepted_steps == 0) {
    report_.min_dt = 0.0;
  }
  if (!done_ && !failed_ && report_.status == TransientStatus::Completed) {
    // Loop exited early without recording why (defensive; engines normally
    // run until done() or failed()).
    report_.status = TransientStatus::SolverFailure;
    report_.diagnostic = "run ended before the stop time";
  }
  record_transient_telemetry(report_, wall_start_s_);
}

AdaptiveStepper::AdaptiveStepper(const StepControlOptions& options,
                                 double t_end, double dt_max,
                                 double restart_dt)
    : ctl_(options, 0.0, t_end, dt_max / 8.0, dt_max),
      rel_tol_(options.rel_tol),
      abs_tol_(options.abs_tol),
      restart_dt_(restart_dt) {}

bool AdaptiveStepper::try_accept(const std::vector<double>& candidate,
                                 const std::vector<double>& lte_state) {
  if (!finite_and_bounded(candidate)) {
    ctl_.reject_step("NaN/overflow guard");
    return false;
  }
  const double dt = ctl_.dt();
  const bool be = backward_euler();
  // No LTE check on BE steps: the slope across a discontinuity is
  // meaningless, and the small restart step covers accuracy.
  double err = 0.0;
  if (!be) {
    pred_.resize(lte_state.size());
    for (std::size_t i = 0; i < lte_state.size(); ++i) {
      pred_[i] = prev_[i] + slope_[i] * dt;
    }
    err = error_norm(lte_state, pred_, rel_tol_, abs_tol_);
  }
  if (!ctl_.finish_step(err, be ? 1 : 2)) return false;

  if (!prev_.empty()) {
    slope_.resize(lte_state.size());
    for (std::size_t i = 0; i < lte_state.size(); ++i) {
      slope_[i] = (lte_state[i] - prev_[i]) / dt;
    }
  }
  prev_ = lte_state;
  if (be_left_ > 0) --be_left_;
  return true;
}

std::string format_g(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

bool budget_exhausted(const StepControlOptions& options, std::size_t steps,
                      double wall_start_s, double t, TransientReport& report) {
  std::string why;
  if (options.max_steps > 0 && steps >= options.max_steps) {
    why = "step budget of " + std::to_string(options.max_steps) +
          " attempted steps exhausted";
  } else if (options.wall_clock_budget_s > 0.0 &&
             monotonic_seconds() - wall_start_s >
                 options.wall_clock_budget_s) {
    why = "wall-clock budget of " + format_g(options.wall_clock_budget_s) +
          " s exhausted";
  } else if (options.deadline.expired()) {
    why = "deadline expired (cancelled)";
  } else {
    return false;
  }
  report.status = TransientStatus::BudgetExhausted;
  report.diagnostic = why + " at t = " + format_g(t) + " s; result truncated";
  return true;
}

void finalize_fixed_run(TransientReport& report, double h,
                        double wall_start_s) {
  report.min_dt = report.accepted_steps == 0 ? 0.0 : h;
  report.max_dt = report.min_dt;
  report.last_dt = report.min_dt;
  report.wall_seconds = monotonic_seconds() - wall_start_s;
  record_transient_telemetry(report, wall_start_s);
}

double error_norm(const std::vector<double>& value,
                  const std::vector<double>& predicted, double rel_tol,
                  double abs_tol) {
  VS_REQUIRE(value.size() == predicted.size(),
             "error_norm size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const double scale = abs_tol + rel_tol * std::abs(value[i]);
    const double err = std::abs(value[i] - predicted[i]) / scale;
    if (!std::isfinite(err)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, err);
  }
  return worst;
}

bool finite_and_bounded(const std::vector<double>& x) {
  for (const double v : x) {
    if (!std::isfinite(v) || std::abs(v) > kOverflowLimit) return false;
  }
  return true;
}

PeriodicEvents::PeriodicEvents(double period, std::vector<double> fractions)
    : period_(period) {
  VS_REQUIRE(period > 0.0, "event period must be positive");
  for (double& f : fractions) {
    f = f - std::floor(f);  // wrap into [0, 1)
  }
  std::sort(fractions.begin(), fractions.end());
  // Dedupe edges closer than 1e-12 of a period (coincident switch edges).
  for (const double f : fractions) {
    if (fractions_.empty() || f - fractions_.back() > 1e-12) {
      fractions_.push_back(f);
    }
  }
  period_ = period;
}

double PeriodicEvents::next_after(double t) const {
  if (fractions_.empty()) return std::numeric_limits<double>::infinity();
  const double tol = 1e-9 * period_;
  const double base = std::floor(t / period_) * period_;
  for (int cycle = 0; cycle < 3; ++cycle) {
    const double offset = base + static_cast<double>(cycle) * period_;
    for (const double f : fractions_) {
      const double candidate = offset + f * period_;
      if (candidate > t + tol) return candidate;
    }
  }
  VS_FAIL("periodic event search failed to advance");
}

EventSchedule::EventSchedule(double horizon) : horizon_(horizon) {
  VS_REQUIRE(horizon > 0.0, "event-schedule horizon must be positive");
}

void EventSchedule::add_periodic(PeriodicEvents events) {
  if (!events.empty()) periodic_.push_back(std::move(events));
}

void EventSchedule::add_time(double t) {
  VS_REQUIRE(std::isfinite(t), "event time must be finite");
  const auto it = std::lower_bound(times_.begin(), times_.end(), t);
  times_.insert(it, t);
}

double EventSchedule::next_after(double t) const {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& p : periodic_) {
    next = std::min(next, p.next_after(t));
  }
  const double tol = 1e-12 * horizon_;
  const auto it = std::upper_bound(times_.begin(), times_.end(), t + tol);
  if (it != times_.end()) next = std::min(next, *it);
  return next;
}

}  // namespace vstack::sim
