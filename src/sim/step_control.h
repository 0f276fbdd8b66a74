// Shared adaptive-transient core used by the switch-level circuit engine
// (circuit/transient.h) and the PDN transient solvers (pdn/transient.h,
// pdn/ride_through.h).
//
// Four pieces live here:
//
//  * StepController -- local-truncation-error driven timestep selection with
//    step rejection, halving, exponential grow-back, exact clamping onto
//    event times (clocked-switch edges, load steps, the stop time), and hard
//    step / wall-clock budgets.  Fixed-grid loops keep their own uniform
//    clock but share its budget check (budget_exhausted) and close with
//    finalize_fixed_run, so budgets and reporting are identical in both
//    modes.
//
//  * AdaptiveStepper -- the one adaptive step loop every engine runs on the
//    controller (BE startup, guard, LTE predictor, restarts).
//
//  * TransientReport -- the structured outcome callers check INSTEAD of
//    catching exceptions: accepted/rejected step counts, dt range, LTE
//    statistics, every recovery/fallback event, and a status that labels
//    truncated results (budget exhaustion, step collapse, solver failure)
//    rather than hanging or propagating NaN.
//
//  * PeriodicEvents + guard helpers -- switch-edge schedules and the
//    NaN/overflow checks every engine runs before committing a step.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/deadline.h"

namespace vstack::sim {

enum class TransientStatus {
  Completed,        // integrated to the requested stop time
  BudgetExhausted,  // step or wall-clock budget hit; result truncated
  StepCollapse,     // dt driven below dt_min without an acceptable step
  SolverFailure,    // linear solve unrecoverable after every fallback
};

const char* to_string(TransientStatus status);

/// One recovery-ladder action (gmin fallback, solver escalation, guard
/// rejection...) recorded so a degraded run is visible after the fact.
struct RecoveryEvent {
  double time = 0.0;  // simulation time when it happened [s]
  std::string what;
};

/// Structured outcome of a transient run.  `ok()` is the one-stop check;
/// everything else explains HOW the run went (or how degraded it was).
struct TransientReport {
  TransientStatus status = TransientStatus::Completed;

  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;   // lte + guard + solver rejections
  std::size_t lte_rejections = 0;   // error estimate above tolerance
  std::size_t guard_rejections = 0;  // NaN / overflow guards fired
  std::size_t solver_rejections = 0;  // linear-solve failures retried

  double min_dt = std::numeric_limits<double>::infinity();  // accepted only
  double max_dt = 0.0;
  double last_dt = 0.0;
  double max_accepted_error = 0.0;  // worst normalized LTE that passed
  double end_time = 0.0;            // last accepted time point [s]
  double wall_seconds = 0.0;

  /// Recovery-ladder trail, capped at kMaxEvents (events_dropped counts the
  /// overflow) so a pathological run cannot balloon the report.
  static constexpr std::size_t kMaxEvents = 32;
  std::vector<RecoveryEvent> events;
  std::size_t events_dropped = 0;

  std::string diagnostic;  // nonempty when !ok()

  bool ok() const { return status == TransientStatus::Completed; }
  void record_event(double time, std::string what);

  /// One-line human-readable digest for logs and bench footers.
  std::string summary() const;
};

struct StepControlOptions {
  /// LTE acceptance: a step passes when the predictor-corrector error,
  /// normalized per state entry by (abs_tol + rel_tol * |value|), is <= 1.
  double rel_tol = 1e-4;
  double abs_tol = 1e-6;

  double dt_min = 0.0;      // 0 = derived as dt_max * 1e-7
  double dt_grow = 2.0;     // max growth factor per accepted step
  double dt_shrink = 0.1;   // max shrink factor per rejected step

  int max_rejections_per_step = 16;  // consecutive, then StepCollapse

  /// Hard budgets: 0 disables.  `max_steps` counts attempted (accepted +
  /// rejected) steps; on exhaustion the run returns a truncated result with
  /// status BudgetExhausted instead of running away.
  std::size_t max_steps = 2'000'000;
  double wall_clock_budget_s = 0.0;

  /// External cancellation / wall-clock deadline (service requests, Ctrl-C).
  /// Checked before every step alongside the budgets, adaptive or fixed;
  /// when it fires the run truncates with BudgetExhausted exactly like a
  /// wall-clock budget, so existing callers need no new status handling.
  /// Default: unlimited.
  Deadline deadline{};

  void validate() const;
};

/// The hard-budget check every transient loop runs before a step, adaptive
/// (StepController::begin_step) or fixed-grid: the step budget against
/// `steps` already attempted, the wall-clock budget since `wall_start_s` (a
/// telemetry::monotonic_seconds() stamp), and the deadline.  On exhaustion
/// marks `report` BudgetExhausted with a diagnostic naming time `t` and
/// returns true.
bool budget_exhausted(const StepControlOptions& options, std::size_t steps,
                      double wall_start_s, double t, TransientReport& report);

/// Close a fixed-grid run of step `h`, the counterpart of
/// StepController::finalize(): dt range (h, or 0 when no step was
/// accepted), wall time since `wall_start_s`, and the run's telemetry.
void finalize_fixed_run(TransientReport& report, double h,
                        double wall_start_s);

/// Timestep state machine driven by AdaptiveStepper: begin_step, then
/// reject_step or finish_step.  Rejected steps leave time unchanged.
class StepController {
 public:
  /// `dt_init`/`dt_max` bound the adaptive step; passing dt_init == dt_max
  /// with rel_tol control disabled (finish_step(0.0, ...)) reproduces a
  /// fixed-step run under the same guards and budgets.
  StepController(const StepControlOptions& options, double t_start,
                 double t_end, double dt_init, double dt_max);

  double time() const { return t_; }
  double dt() const { return dt_; }
  bool done() const { return done_; }
  bool failed() const { return failed_; }

  /// Propose the next step, clamped so `next_event` (if inside the step or
  /// within 10% of dt past its end) and t_end are hit exactly.  Pass
  /// infinity when no event is pending.  Checks budgets; on exhaustion sets
  /// failed() and returns 0.
  double begin_step(double next_event);

  /// True when the step proposed by the last begin_step ends on next_event.
  bool ends_on_event() const { return ends_on_event_; }

  /// Accept (err_norm <= 1) or reject the step; `order` is the local order
  /// of the integration method (1 = BE, 2 = trapezoidal) used to scale the
  /// dt update.  Returns whether the step was accepted (time advanced).
  bool finish_step(double err_norm, int order);

  /// Reject for a non-LTE reason (NaN guard, solver failure): halves dt and
  /// counts toward the consecutive-rejection collapse limit.  `kind` is
  /// recorded in the report's event trail.
  void reject_step(const char* kind);

  /// Force the next proposal down to at most `dt` (used after switching
  /// edges where history-based prediction is invalid).
  void reset_dt(double dt);

  TransientReport& report() { return report_; }

  /// Stamp wall_seconds and, if the run ended early without a recorded
  /// failure, finalize the status/diagnostic fields.
  void finalize();

 private:
  void fail(TransientStatus status, const std::string& diagnostic);

  StepControlOptions opts_;
  double t_ = 0.0;
  double t_end_ = 0.0;
  double dt_ = 0.0;
  double dt_max_ = 0.0;
  bool done_ = false;
  bool failed_ = false;
  bool ends_on_event_ = false;
  int consecutive_rejections_ = 0;
  std::size_t attempted_steps_ = 0;
  double wall_start_s_ = 0.0;  // monotonic clock at construction
  TransientReport report_;
};

/// The adaptive step loop of every transient engine.  Owns the controller,
/// the backward-Euler startup counter, the restart step and the LTE
/// predictor history (last accepted state and its slope); the engine solves
/// each step and commits what was accepted:
///
///   AdaptiveStepper stepper(options, t_end, dt_max, restart_dt);
///   while (stepper.running()) {
///     // apply what is due at stepper.time(); restart() on a discontinuity
///     const double dt = stepper.begin(next_event);
///     if (!stepper.running()) break;             // budget exhausted
///     solve a step of dt, backward Euler if stepper.backward_euler()
///     if (solve failed) { stepper.reject("why"); continue; }
///     if (!stepper.try_accept(x, lte_state)) continue;
///     commit states, record a sample
///   }
///   report = stepper.finalize();
///
/// `lte_state` is what the error is measured on (the circuit passes its MNA
/// vector twice, the PDN its capacitor voltages).  Steps do not allocate.
class AdaptiveStepper {
 public:
  /// BE steps after the start and every restart(): each trapezoidal step
  /// follows two accepted steps, so its predictor slope is always set.
  static constexpr int kBeStartupSteps = 2;

  /// Integrates [0, t_end] in steps of at most `dt_max`, the first
  /// dt_max / 8; restart() caps the next step at `restart_dt`.
  AdaptiveStepper(const StepControlOptions& options, double t_end,
                  double dt_max, double restart_dt);

  bool running() const { return !ctl_.done() && !ctl_.failed(); }
  double time() const { return ctl_.time(); }
  bool backward_euler() const { return be_left_ > 0; }

  /// Propose the next step toward `next_event` (infinity: none) and return
  /// its size; on budget exhaustion running() turns false.
  double begin(double next_event) { return ctl_.begin_step(next_event); }

  /// Reject the step for a solve failure named `kind` in the event trail.
  void reject(const char* kind) { ctl_.reject_step(kind); }

  /// Reject the step when `candidate` fails the NaN/overflow guard or the
  /// LTE of `lte_state` exceeds the tolerance; else advance time and the
  /// predictor history.  Returns whether the step was accepted.
  bool try_accept(const std::vector<double>& candidate,
                  const std::vector<double>& lte_state);

  /// True when the last begun step ends on the event passed to begin().
  bool ended_on_event() const { return ctl_.ends_on_event(); }

  /// Integration history is invalid across a discontinuity: take BE
  /// startup steps again, from at most the restart step.
  void restart() {
    be_left_ = kBeStartupSteps;
    ctl_.reset_dt(restart_dt_);
  }

  TransientReport& report() { return ctl_.report(); }
  /// Stamp wall time and telemetry; returns the run's report.
  const TransientReport& finalize() {
    ctl_.finalize();
    return ctl_.report();
  }

 private:
  StepController ctl_;
  double rel_tol_ = 0.0;
  double abs_tol_ = 0.0;
  double restart_dt_ = 0.0;
  int be_left_ = kBeStartupSteps;
  std::vector<double> prev_;   // LTE state of the last accepted step
  std::vector<double> slope_;  // its slope over that step
  std::vector<double> pred_;   // scratch: the predicted LTE state
};

/// `value` printed %g-style, for times in trails and diagnostics
/// (std::to_string prints 1e-16 as 0.000000).
std::string format_g(double value);

/// Max-norm LTE estimate: |value - predicted| normalized per entry by
/// (abs_tol + rel_tol * |value|).  Sizes must match.
double error_norm(const std::vector<double>& value,
                  const std::vector<double>& predicted, double rel_tol,
                  double abs_tol);

/// The step guard: true when every entry of a candidate solution is finite
/// and |entry| <= 1e12.  Any other candidate rejects the step.
bool finite_and_bounded(const std::vector<double>& x);

/// Event schedule of clocked-switch edges: `fractions` are edge positions
/// within one period (in [0, 1)); next_after(t) returns the first edge
/// strictly after t (with a relative snap tolerance so a step that just
/// landed on an edge is not matched again).
class PeriodicEvents {
 public:
  PeriodicEvents() = default;
  PeriodicEvents(double period, std::vector<double> fractions);

  bool empty() const { return fractions_.empty(); }
  double next_after(double t) const;

 private:
  double period_ = 0.0;
  std::vector<double> fractions_;  // sorted, deduped, in [0, 1)
};

/// Unified event timeline for a transient run: any number of periodic edge
/// schedules (clocked switches, supervisor sensing ticks) merged with sorted
/// one-shot instants (load steps, injected fault events).  next_after(t)
/// returns the earliest pending event strictly after t so the step
/// controller can clamp a step boundary exactly onto it; one-shot times use
/// the same relative snap tolerance as PeriodicEvents, scaled by
/// `horizon` (the stop time passed at construction).
class EventSchedule {
 public:
  EventSchedule() = default;
  /// `horizon` scales the snap tolerance for one-shot times (pass the run's
  /// stop time); must be positive.
  explicit EventSchedule(double horizon);

  void add_periodic(PeriodicEvents events);
  /// One-shot event.  Times at or before 0 are accepted but never returned
  /// (they are "already in the past" at the start of the run).
  void add_time(double t);

  bool empty() const { return periodic_.empty() && times_.empty(); }
  double next_after(double t) const;

 private:
  double horizon_ = 1.0;
  std::vector<PeriodicEvents> periodic_;
  std::vector<double> times_;  // sorted
};

}  // namespace vstack::sim
