// Measurement plumbing for the benchmark driver: clocks, the span that
// wraps each call into a vstack layer, and the trace analysis (per-span
// totals, self time per layer, unattributed share, counter liveness) behind
// the traced run.
//
// The benchmark only times public calls from outside.  It does so with a
// telemetry span per call, so in a traced run its spans land in the same
// trace as the program's own and nest with them; every per-layer time is
// read back from that trace.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.h"

namespace vbench {

double wall_now();      // steady clock [s]
double cpu_now();       // process user + system CPU time [s]
/// Hand freed heap memory back to the system and restart the kernel's
/// peak-RSS count, so the next peak_rss_mib() reads the peak of what runs
/// in between.  Where /proc/self/clear_refs is not writable the count is
/// not restarted and peak_rss_mib() reads the process peak.
void reset_peak_rss();
double peak_rss_mib();  // VmHWM: peak resident set since the reset [MiB]

double median(std::vector<double> v);
/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Prefix of the benchmark's own span names.  The rest of the name reads
/// like a program span ("vbench.pgio.read_netlist_text" belongs to pgio).
inline constexpr std::string_view kSpanPrefix = "vbench.";

/// Run `fn` under a telemetry span called `name` (a string literal that
/// starts with kSpanPrefix: the span keeps the pointer).  The span is only
/// recorded while tracing is on, so untraced repetitions pay nothing.
template <typename F>
decltype(auto) timed(const char* name, F&& fn) {
  const vstack::telemetry::Span span(name);
  return fn();
}

/// What one traced repetition's spans say.
struct TraceAnalysis {
  /// Sum of span self time (duration minus the part covered by direct
  /// children on the same thread) per layer [s].
  std::map<std::string, double> self_s;
  /// Summed duration of every span, by span name [s].
  std::map<std::string, double> total_s;
  /// total_s of `name`, 0 when no such span ran.
  double seconds(const std::string& name) const;
  /// Time inside sim.transient.run / core.task_pool.chunk spans under no
  /// deeper program span, and the outermost such time [s].
  double unattributed_s = 0.0;
  double container_s = 0.0;
};

/// Durations of every span called `name` [s], in trace order.
std::vector<double> span_seconds(
    const std::vector<vstack::telemetry::TraceEvent>& events,
    std::string_view name);

/// Nest `events` per thread by interval containment and compute self times.
/// The benchmark's own spans (kSpanPrefix) count toward their layer's self
/// time but are transparent for the unattributed share, which judges the
/// program's own instrumentation.
TraceAnalysis analyze_trace(
    const std::vector<vstack::telemetry::TraceEvent>& events);

/// Counters that read zero although their layer did work in this run (the
/// layer has another nonzero counter or nonzero self time).  Counters of
/// failures, rejections and retries are left out: zero is their healthy
/// reading.
std::vector<std::string> dead_counters(
    const vstack::telemetry::MetricsSnapshot& snapshot,
    const std::map<std::string, double>& self_s);

}  // namespace vbench
