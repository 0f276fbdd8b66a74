#include "probe.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

namespace vbench {

namespace telemetry = vstack::telemetry;

double wall_now() { return telemetry::monotonic_seconds(); }

double cpu_now() {
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0.0;
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<double> span_seconds(const std::vector<telemetry::TraceEvent>& events,
                                 std::string_view name) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.name == name) out.push_back(1e-6 * e.dur_us);
  }
  return out;
}

namespace {

bool is_benchmark_span(const std::string& name) {
  return name.rfind(kSpanPrefix, 0) == 0;
}

/// Layer of a span or metric name: the text before the first '.', after
/// the benchmark's span prefix.
std::string layer_of(const std::string& name) {
  const std::size_t from = is_benchmark_span(name) ? kSpanPrefix.size() : 0;
  return name.substr(from, name.find('.', from) - from);
}

bool is_container(const std::string& name) {
  return name == "sim.transient.run" || name == "core.task_pool.chunk";
}

}  // namespace

double TraceAnalysis::seconds(const std::string& name) const {
  const auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}

TraceAnalysis analyze_trace(const std::vector<telemetry::TraceEvent>& events) {
  TraceAnalysis out;
  std::map<std::uint32_t, std::vector<const telemetry::TraceEvent*>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(&e);

  for (auto& [tid, list] : by_tid) {
    // Parents sort before the children they contain: earlier start first,
    // longer first on a tie.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    struct Open {
      const telemetry::TraceEvent* event;
      double child_us;          // covered by direct children
      double program_child_us;  // covered by the nearest program spans
      bool inside_container;    // an enclosing container span exists
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& o) {
      const std::string& name = o.event->name;
      const double self_us = std::max(0.0, o.event->dur_us - o.child_us);
      out.self_s[layer_of(name)] += 1e-6 * self_us;
      out.total_s[name] += 1e-6 * o.event->dur_us;
      if (is_container(name)) {
        out.unattributed_s +=
            1e-6 * std::max(0.0, o.event->dur_us - o.program_child_us);
        if (!o.inside_container) out.container_s += 1e-6 * o.event->dur_us;
      }
    };
    for (const auto* e : list) {
      const double end = e->ts_us + e->dur_us;
      while (!stack.empty() &&
             stack.back().event->ts_us + stack.back().event->dur_us <
                 end - 1e-3) {
        close(stack.back());
        stack.pop_back();
      }
      bool inside_container = false;
      for (const auto& o : stack) inside_container |= is_container(o.event->name);
      if (!stack.empty()) {
        stack.back().child_us += e->dur_us;
        if (!is_benchmark_span(e->name)) {
          // A program span covers time for its nearest enclosing program
          // span; benchmark spans in between are transparent.
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (!is_benchmark_span(it->event->name)) {
              it->program_child_us += e->dur_us;
              break;
            }
          }
        }
      }
      stack.push_back({e, 0.0, 0.0, inside_container});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

std::vector<std::string> dead_counters(
    const telemetry::MetricsSnapshot& snapshot,
    const std::map<std::string, double>& self_s) {
  std::set<std::string> busy;
  for (const auto& [layer, seconds] : self_s) {
    if (seconds > 0.0) busy.insert(layer);
  }
  for (const auto& c : snapshot.counters) {
    if (c.value != 0.0) busy.insert(layer_of(c.name));
  }
  // Counters of trouble (failures, rejections, retries...) are expected
  // to read zero on a healthy run.
  const auto is_trouble = [](const std::string& name) {
    for (const char* word : {"fail", "truncat", "reject", "evict", "retr",
                             "invalid", "timeout", "degraded", "overload",
                             "quarantin", "reclaim", "restart", "recovery"}) {
      if (name.find(word) != std::string::npos) return true;
    }
    return false;
  };
  std::vector<std::string> out;
  for (const auto& c : snapshot.counters) {
    if (c.value == 0.0 && busy.count(layer_of(c.name)) != 0 &&
        !is_trouble(c.name)) {
      out.push_back(c.name);
    }
  }
  return out;
}

}  // namespace vbench
