// Shared internals of the PDN transient engines (pdn/transient.cpp, the
// fixed-grid load step, and pdn/ride_through.cpp, the adaptive fault
// ride-through): the timestep-independent split system, the epoch-keyed
// per-(dt, scheme) step solver, and the companion-state workspace, whose
// adaptive_step() is the ride-through engine's step under
// sim::AdaptiveStepper.
//
// Everything here reads a PdnNetwork the caller owns: the load step binds
// the model's network (nothing mutates it), the ride-through engine a
// private copy that its mid-run faults and supervisor actions mutate.
// After any topology mutation the caller invokes
// TransientWorkspace::rebuild_topology(), which reassembles the split
// system and its sparsity pattern and advances its epoch stamp; StepSolver
// keys its factorization/preconditioner cache on that epoch, so a stale
// factorization of the pre-fault topology can never be reused (see
// docs/fault_model.md section on dynamic faults).  Within one epoch the
// pattern is fixed, so a step at a new dt only refills values and
// refactors (docs/transient_engine.md, "Step-matrix cache").
//
// This header is an implementation detail of vstack_pdn; it is not part of
// the public modeling API.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "la/skyline_cholesky.h"
#include "la/solver.h"
#include "pdn/transient.h"
#include "sim/step_control.h"

namespace vstack::pdn::detail {

struct Trip {
  std::size_t i = 0;
  std::size_t j = 0;
  double v = 0.0;
};

/// The transient matrix split into timestep-independent parts so adaptive
/// stepping can reassemble it for any (dt, scheme) in O(nnz):
///
///   A(h) = static + cap_coeff * s/h + ind_coeff * h/s,   s = 1 (BE), 2 (trap)
///
/// where cap_coeff holds raw capacitances [F] and ind_coeff raw reciprocal
/// inductances [1/H] with the companion stamp signs baked in.
struct SplitSystem {
  std::size_t n = 0;
  /// Topology epoch of the network this split was assembled from; bumped by
  /// every rebuild so downstream caches can detect staleness.
  std::size_t epoch = 0;
  std::vector<Trip> static_part;
  std::vector<Trip> cap_part;
  std::vector<Trip> ind_part;
  /// Sparsity pattern of static_part, cap_part, ind_part (in that order);
  /// fixed for the epoch, whatever (dt, scheme) is assembled.
  la::CooPattern pattern;

  /// Triplet values of A(h), in pattern order.
  void values_at(double h, bool backward_euler,
                 std::vector<double>& values) const;
};

/// Per-(dt, scheme, topology epoch) cached factorization / solver handle
/// with a solve that escalates instead of throwing: skyline Cholesky (small
/// systems) -> warm-started CG -> la::Solver's full degradation ladder.
///
/// The cache is a few slots, least recently used first out.  A miss within
/// the current epoch recycles a slot: its matrix values are refilled in
/// place through the epoch's pattern and its solver handle is refreshed
/// (la::Solver::refresh), never rebuilt, so the cost of a miss is a scatter
/// and a numeric refactorization.  Results are bit-identical to a fresh
/// StepSolver per step.  An epoch change drops every slot.
class StepSolver {
 public:
  StepSolver(const SplitSystem& sys, const PdnTransientOptions& options)
      : sys_(sys), options_(options) {}

  /// Solve A(h) x = rhs.  `x` carries the warm start and receives the
  /// solution only on success; returns false (with a diagnostic) when every
  /// rung failed.  Fallback activity is recorded into `report`.
  bool solve(double h, bool backward_euler, const la::Vector& rhs,
             la::Vector& x, double t, sim::TransientReport& report,
             std::string& diagnostic);

 private:
  /// Slots held per epoch: one per scheme covers fixed-step runs (a BE
  /// start, then trapezoidal); adaptive runs rarely repeat a dt exactly.
  static constexpr std::size_t kSlots = 2;

  /// One cached step matrix.  Heap-allocated so `solver`'s pointer to
  /// `matrix` stays valid while the slot list changes.
  struct Slot {
    std::uint64_t dt_bits = 0;
    bool backward_euler = false;
    std::uint64_t last_use = 0;
    la::CsrMatrix matrix;
    std::unique_ptr<la::ReorderedCholesky> direct;
    /// Iterative-rung handle bound to `matrix` (owns the preconditioner,
    /// backend preparation, and Krylov workspace).  Kept when the direct
    /// factorization is skipped or fails; otherwise created lazily the
    /// first time a direct solve goes non-finite.
    std::unique_ptr<la::Solver> solver;
  };

  Slot& cached(double h, bool backward_euler, double t,
               sim::TransientReport& report);

  /// Factor `slot.matrix` (just filled for step size h): skyline Cholesky
  /// when the system is small enough, else bind or refresh the iterative
  /// handle.
  void factor(Slot& slot, double h, double t, sim::TransientReport& report);

  const SplitSystem& sys_;
  const PdnTransientOptions& options_;
  /// Slots of epoch `last_seen_epoch_`, the last epoch a lookup saw; a
  /// change means a topology mutation invalidated every cached
  /// factorization (telemetry: pdn.step_solver.cache.*).
  std::vector<std::unique_ptr<Slot>> slots_;
  std::size_t last_seen_epoch_ = static_cast<std::size_t>(-1);
  std::uint64_t use_clock_ = 0;
  std::vector<double> values_;  // triplet-value scratch for refills
};

/// Companion-state workspace shared by the load-step and ride-through
/// engines: owns the split system, the capacitor/inductor states, and the
/// RHS/commit/noise machinery.  The network reference must outlive the
/// workspace; rebuild_topology() must be called after every mutation.
class TransientWorkspace {
 public:
  TransientWorkspace(const PdnNetwork& net,
                     const PdnTransientOptions& options);

  const SplitSystem& system() const { return sys_; }
  std::size_t n() const { return sys_.n; }

  /// Reassemble the split system and its sparsity pattern from the
  /// network's CURRENT conductor and converter lists and stamp it with the
  /// network's topology epoch.  One triplet rebuild and one sort; called
  /// once at construction and after every mid-run fault event or
  /// supervisor action.
  void rebuild_topology();

  /// Initialize companion states and the unknown vector from the pre-event
  /// DC operating point (inductors are shorts, capacitors hold the local
  /// rail span).
  void init_states(const PdnSolution& dc, la::Vector& x);

  /// Companion right-hand side for one step of size h at scheme `be`.
  void build_rhs(const std::vector<LoadInjection>& loads, double h, bool be,
                 la::Vector& rhs) const;

  /// Advance companion states to the accepted solution `sol`.
  void commit_states(const la::Vector& sol, double h, bool be);

  /// Max node deviation from nominal as a fraction of vdd; when `per_layer`
  /// is non-null it receives each layer's own maximum (size layer_count).
  double worst_noise_of(const la::Vector& sol,
                        std::vector<double>* per_layer = nullptr) const;

  /// Current through the supply-side package inductor [A].
  double supply_inductor_current() const { return lvdd_i_; }

  /// Attempt one step of `stepper` from the last accepted solution `x`
  /// with `loads` (the loads in force at the step's start) toward
  /// `next_event`: build the companion RHS, warm-start the solve from `x`,
  /// and let the stepper judge the candidate, with the LTE on the capacitor
  /// voltages.  On acceptance commits the companion states and moves the
  /// candidate into `x`.  Returns whether the step was accepted.
  bool adaptive_step(sim::AdaptiveStepper& stepper, StepSolver& solver,
                     const std::vector<LoadInjection>& loads,
                     double next_event, la::Vector& x);

 private:
  double nominal(std::size_t layer, bool vdd_net) const;

  const PdnNetwork& net_;
  const PdnTransientOptions& options_;
  SplitSystem sys_;
  std::size_t lvdd_mid_ = 0;
  std::size_t lgnd_mid_ = 0;
  std::size_t layer_count_ = 0;
  std::size_t cells_ = 0;
  std::vector<double> layer_cap_;  // per-cell capacitance per layer [F]
  std::vector<double> cap_v_;
  std::vector<double> cap_i_;
  double lvdd_i_ = 0.0;
  double lgnd_i_ = 0.0;
  double lvdd_v_ = 0.0;
  double lgnd_v_ = 0.0;
  // adaptive_step scratch: RHS, candidate solution, its capacitor voltages.
  la::Vector rhs_;
  la::Vector candidate_;
  std::vector<double> cap_new_;
};

}  // namespace vstack::pdn::detail
