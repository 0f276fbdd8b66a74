#include "core/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "telemetry/telemetry.h"

namespace vstack::core {

std::size_t ExecutionPolicy::default_jobs() {
  // VSTACK_JOBS handling is explicit about every malformed shape instead of
  // silently falling through strtoul's wrap-around behavior:
  //   zero / negative  -> warn, ignore (hardware concurrency)
  //   non-numeric junk -> warn, ignore
  //   huge / overflow  -> warn, clamp to the 4096 policy bound
  if (const char* env = std::getenv("VSTACK_JOBS")) {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(env, &end, 10);
    const bool parsed = end != env && end != nullptr && *end == '\0';
    if (!parsed) {
      VS_LOG_WARN("ignoring non-numeric VSTACK_JOBS='" << env
                                                       << "' (want 1..4096)");
    } else if (v <= 0) {
      VS_LOG_WARN("ignoring VSTACK_JOBS=" << env
                                          << " (must be positive, 1..4096)");
    } else if (errno == ERANGE || v > 4096) {
      VS_LOG_WARN("clamping VSTACK_JOBS=" << env << " to the 4096 bound");
      return 4096;
    } else {
      return static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t ExecutionPolicy::resolved_jobs() const {
  return jobs == 0 ? default_jobs() : jobs;
}

void ExecutionPolicy::validate() const {
  VS_REQUIRE(chunk >= 1, "ExecutionPolicy.chunk must be >= 1");
  VS_REQUIRE(jobs <= 4096, "ExecutionPolicy.jobs is bounded (<= 4096)");
}

TaskPool::TaskPool(ExecutionPolicy policy) : policy_(policy) {
  policy_.validate();
}

namespace {

/// Per-index lifecycle, guarded by the pool mutex.  Skipped marks indices a
/// worker claimed but abandoned after cancellation; indices never claimed
/// stay Pending and are recognized once every worker has exited.
enum class Slot : unsigned char { Pending, Done, Failed, Skipped };

// Pool telemetry (observation only; the scheduling and the ordered
// reduction are untouched, so parallel/serial bit-identity holds).
const telemetry::Counter t_tasks("core.task_pool.tasks");
const telemetry::Counter t_runs("core.task_pool.runs");
const telemetry::Gauge t_jobs("core.task_pool.jobs");
const telemetry::Histogram t_chunk_seconds(
    "core.task_pool.chunk_seconds",
    {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 2.0, 10.0});
const telemetry::Histogram t_commit_wait_seconds(
    "core.task_pool.commit_wait_seconds",
    {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});

}  // namespace

std::size_t TaskPool::run_ordered(std::size_t count, const Work& work,
                                  const Commit& commit) const {
  if (count == 0) return 0;
  VS_SPAN("core.task_pool.run");
  t_runs.add();
  t_tasks.add(static_cast<double>(count));
  const Deadline& deadline = policy_.deadline;
  const std::size_t jobs = std::min(policy_.resolved_jobs(), count);
  t_jobs.set(static_cast<double>(jobs));
  if (jobs <= 1) {
    // Serial fast path: caller's thread, no synchronization -- the exact
    // historical behavior of every scenario loop.
    for (std::size_t i = 0; i < count; ++i) {
      if (deadline.expired()) return i;
      work(i);
      commit(i);
    }
    return count;
  }

  const std::size_t chunk = policy_.chunk;
  std::mutex mu;
  std::condition_variable ready_cv;
  std::vector<Slot> slots(count, Slot::Pending);
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> cancelled{false};
  std::size_t live_workers = jobs;  // guarded by mu

  auto worker_main = [&](std::size_t wid) {
    set_log_worker_id(static_cast<int>(wid));
    for (;;) {
      // Deadline check only at chunk boundaries: in-flight scenarios drain
      // (their inner loops poll the same token), new ones never start.
      if (cancelled.load(std::memory_order_acquire) || deadline.expired()) {
        break;
      }
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) break;
      const std::size_t end = std::min(count, begin + chunk);
      VS_SPAN("core.task_pool.chunk");
      const double chunk_start = telemetry::monotonic_seconds();
      for (std::size_t i = begin; i < end; ++i) {
        Slot outcome = Slot::Skipped;
        std::exception_ptr error;
        if (!cancelled.load(std::memory_order_acquire) &&
            !deadline.expired()) {
          try {
            work(i);
            outcome = Slot::Done;
          } catch (...) {
            outcome = Slot::Failed;
            error = std::current_exception();
            cancelled.store(true, std::memory_order_release);
          }
        }
        {
          const std::lock_guard<std::mutex> lock(mu);
          slots[i] = outcome;
          errors[i] = std::move(error);
        }
        ready_cv.notify_all();
      }
      t_chunk_seconds.record(telemetry::monotonic_seconds() - chunk_start);
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      --live_workers;
    }
    ready_cv.notify_all();
  };

  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) workers.emplace_back(worker_main, w);

  // Ordered reduction on the calling thread: commit strictly by index, so
  // aggregates and checkpoint manifests are bit-identical to a serial run
  // no matter in what order the workers finish.  `committed` stays a
  // contiguous prefix: the scan halts at the first slot that is not Done.
  std::exception_ptr first_error;
  std::size_t committed = 0;
  {
    std::unique_lock<std::mutex> lock(mu);
    for (std::size_t i = 0; i < count; ++i) {
      const double wait_start = telemetry::monotonic_seconds();
      ready_cv.wait(lock, [&] {
        return slots[i] != Slot::Pending || live_workers == 0;
      });
      t_commit_wait_seconds.record(telemetry::monotonic_seconds() -
                                   wait_start);
      if (slots[i] == Slot::Pending || slots[i] == Slot::Skipped) break;
      if (slots[i] == Slot::Failed) {
        first_error = errors[i];
        break;
      }
      lock.unlock();
      try {
        commit(i);
        ++committed;
      } catch (...) {
        first_error = std::current_exception();
        cancelled.store(true, std::memory_order_release);
        lock.lock();
        break;
      }
      lock.lock();
    }
  }
  if (first_error) cancelled.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  if (!first_error) {
    // Cancellation can skip an index BELOW the failing one (claimed but not
    // yet started when the flag went up), stopping the commit scan before
    // it reaches the failure.  Recover the lowest-index error here; the
    // workers are joined, so the error array is stable.
    for (std::size_t i = 0; i < count && !first_error; ++i) {
      if (errors[i]) first_error = errors[i];
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return committed;
}

}  // namespace vstack::core
