// The four benchmark workloads.  Each one drives vstack only through its
// public API, from one process, with at most four worker threads.
//
// Life cycle, as main.cpp drives it:
//
//   setup()     one-off construction (StudyContext, runners); the time from
//               process start to the end of setup() is the setup_s sample
//   generate()  the benchmark's own synthetic inputs; excluded from every
//               metric
//   rep()       one timed repetition, run as often as --seconds allows
//   layers()    traced run only: per-layer figures of the rep just done,
//               from its trace; the driver reports their medians
//   check()     oracles on the repetition's outputs (untimed), which it
//               then drops, so every rep starts from the same resident state
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "oracles.h"
#include "probe.h"

namespace vbench {

/// Worker threads for every pooled stage.
inline constexpr std::size_t kJobs = 4;

struct WorkloadEnv {
  std::uint64_t seed = 1;
  std::string scratch_dir;   // per-run directory the workload may write
  std::string fixture_dir;   // tests/data/pgio of the checkout
  /// When nonzero, caps the Krylov iterations of imported_grid's solves so
  /// the self-tests can force a non-converged solve.
  std::size_t iteration_cap = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  virtual void generate() {}
  virtual void rep() = 0;
  /// Check the last rep's outputs: record each of its operations in
  /// `tally` (failed when its solve failed or its output missed an oracle)
  /// and every problem found in `verdict`.  Then release the outputs.
  virtual void check(Tally& tally, Verdict& verdict) = 0;
  /// Work done only in the traced run, after each traced rep, to expose
  /// per-layer figures the timed rep cannot (e.g. a PdnModel build/solve
  /// probe).  Its spans land in the rep's trace.
  virtual void traced_probe() {}
  /// Per-layer metrics of the traced rep just done (and its probe).
  virtual std::map<std::string, double> layers(
      const std::vector<vstack::telemetry::TraceEvent>& trace,
      const TraceAnalysis& analysis) const = 0;
};

/// The workload called `name`, or nullptr when there is none.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadEnv& env);

}  // namespace vbench
