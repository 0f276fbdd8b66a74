#include "service/retry.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/campaign_manifest.h"

namespace vstack::service {

void RetryPolicy::validate() const {
  VS_REQUIRE(max_attempts >= 1 && max_attempts <= 16,
             "RetryPolicy.max_attempts must lie in [1, 16]");
  VS_REQUIRE(std::isfinite(initial_backoff_s) && initial_backoff_s >= 0.0,
             "RetryPolicy.initial_backoff_s must be >= 0");
  VS_REQUIRE(backoff_multiplier >= 1.0,
             "RetryPolicy.backoff_multiplier must be >= 1");
  VS_REQUIRE(max_backoff_s >= initial_backoff_s,
             "RetryPolicy.max_backoff_s must be >= initial_backoff_s");
  VS_REQUIRE(jitter_fraction >= 0.0 && jitter_fraction < 1.0,
             "RetryPolicy.jitter_fraction must lie in [0, 1)");
}

double RetryPolicy::backoff_before(std::size_t next_attempt,
                                   std::uint64_t salt) const {
  if (next_attempt <= 1) return 0.0;
  const auto exponent = static_cast<double>(next_attempt - 2);
  double backoff = initial_backoff_s * std::pow(backoff_multiplier, exponent);
  backoff = std::min(backoff, max_backoff_s);
  if (jitter_fraction > 0.0) {
    // Uniform in [1 - j, 1 + j] from the top 53 bits of one splitmix64
    // round over (salt, attempt).
    std::uint64_t state = salt ^ (0x517cc1b7ull * next_attempt);
    const std::uint64_t bits = splitmix64(state);
    const double unit =
        static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
    backoff *= 1.0 - jitter_fraction + 2.0 * jitter_fraction * unit;
  }
  return backoff;
}

RetryRun run_with_retry(const RetryPolicy& policy, const Deadline& stop,
                        std::uint64_t salt,
                        const std::function<void(std::size_t)>& attempt,
                        const SleepFn& sleep) {
  policy.validate();
  RetryRun run;
  for (std::size_t k = 1; k <= policy.max_attempts; ++k) {
    if (stop.expired()) break;  // shutting down: report what happened so far
    if (k > 1) {
      const double backoff = policy.backoff_before(k, salt);
      run.backoff_total_s += backoff;
      sleep(backoff);
      if (stop.expired()) break;  // the sleep was interrupted
    }
    ++run.attempts;
    try {
      attempt(k);
      run.ok = true;
      return run;
    } catch (const std::exception& e) {
      run.last_error = e.what();
      VS_LOG_WARN("retry: attempt " << k << "/" << policy.max_attempts
                                    << " failed: " << e.what());
    }
  }
  return run;
}

std::uint64_t retry_salt(const std::string& s) {
  core::Fnv1a f;
  f.bytes(s.data(), s.size());
  return f.h;
}

}  // namespace vstack::service
