// Retry with capped exponential backoff + deterministic jitter
// (service/retry.h), driven entirely through the injected sleep hook --
// no real clock, no real sleeping.
#include "service/retry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/error.h"

namespace vstack::service {
namespace {

RetryPolicy no_jitter() {
  RetryPolicy p;
  p.max_attempts = 4;
  p.initial_backoff_s = 0.5;
  p.backoff_multiplier = 2.0;
  p.max_backoff_s = 10.0;
  p.jitter_fraction = 0.0;
  return p;
}

TEST(RetryPolicy, BackoffScheduleIsExponentialAndCapped) {
  RetryPolicy p = no_jitter();
  p.max_attempts = 16;
  EXPECT_DOUBLE_EQ(p.backoff_before(1, 7), 0.0);  // first try never waits
  EXPECT_DOUBLE_EQ(p.backoff_before(2, 7), 0.5);
  EXPECT_DOUBLE_EQ(p.backoff_before(3, 7), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(4, 7), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(5, 7), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(6, 7), 8.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(7, 7), 10.0);  // cap
  EXPECT_DOUBLE_EQ(p.backoff_before(12, 7), 10.0);
}

TEST(RetryPolicy, JitterIsBoundedAndDeterministic) {
  RetryPolicy p = no_jitter();
  p.jitter_fraction = 0.2;
  for (std::uint64_t salt = 0; salt < 50; ++salt) {
    const double b = p.backoff_before(3, salt);
    EXPECT_GE(b, 1.0 * (1.0 - 0.2)) << "salt " << salt;
    EXPECT_LE(b, 1.0 * (1.0 + 0.2)) << "salt " << salt;
    EXPECT_DOUBLE_EQ(b, p.backoff_before(3, salt)) << "same inputs";
  }
  // Different salts decorrelate: the schedule is not constant.
  EXPECT_NE(p.backoff_before(3, 1), p.backoff_before(3, 2));
}

TEST(RetryPolicy, ValidateRejectsBadShapes) {
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), Error);
  p = RetryPolicy{};
  p.max_attempts = 17;
  EXPECT_THROW(p.validate(), Error);
  p = RetryPolicy{};
  p.jitter_fraction = 1.0;
  EXPECT_THROW(p.validate(), Error);
  p = RetryPolicy{};
  p.max_backoff_s = p.initial_backoff_s / 2.0;
  EXPECT_THROW(p.validate(), Error);
}

TEST(RunWithRetry, FirstSuccessSleepsNever) {
  std::vector<double> sleeps;
  const RetryRun run = run_with_retry(
      no_jitter(), Deadline(), 1, [](std::size_t) {},
      [&](double s) { sleeps.push_back(s); });
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.attempts, 1u);
  EXPECT_TRUE(sleeps.empty());
  EXPECT_DOUBLE_EQ(run.backoff_total_s, 0.0);
}

TEST(RunWithRetry, RecoversAfterTransientFailures) {
  std::vector<double> sleeps;
  std::size_t calls = 0;
  const RetryRun run = run_with_retry(
      no_jitter(), Deadline(), 1,
      [&](std::size_t attempt) {
        EXPECT_EQ(attempt, calls + 1);
        if (++calls < 3) throw std::runtime_error("transient");
      },
      [&](double s) { sleeps.push_back(s); });
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.attempts, 3u);
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(sleeps[0], 0.5);
  EXPECT_DOUBLE_EQ(sleeps[1], 1.0);
  EXPECT_DOUBLE_EQ(run.backoff_total_s, 1.5);
}

TEST(RunWithRetry, GivesUpAfterMaxAttempts) {
  std::size_t calls = 0;
  const RetryRun run = run_with_retry(
      no_jitter(), Deadline(), 1,
      [&](std::size_t) {
        ++calls;
        throw std::runtime_error("persistent failure");
      },
      [](double) {});
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.attempts, 4u);
  EXPECT_EQ(calls, 4u);
  EXPECT_NE(run.last_error.find("persistent failure"), std::string::npos);
}

TEST(RunWithRetry, ExpiredStopTokenPreventsAnyAttempt) {
  const Deadline stop = Deadline::cancellable();
  stop.cancel();
  std::size_t calls = 0;
  const RetryRun run = run_with_retry(
      no_jitter(), stop, 1, [&](std::size_t) { ++calls; }, [](double) {});
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.attempts, 0u);
  EXPECT_EQ(calls, 0u);
}

TEST(RunWithRetry, StopDuringBackoffCancelsTheRetry) {
  const Deadline stop = Deadline::cancellable();
  std::size_t calls = 0;
  const RetryRun run = run_with_retry(
      no_jitter(), stop, 1,
      [&](std::size_t) {
        ++calls;
        throw std::runtime_error("fails once");
      },
      [&](double) { stop.cancel(); });  // signal arrives mid-sleep
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(calls, 1u) << "no second attempt after the interrupted sleep";
}

TEST(RetrySalt, StableAndDistinct) {
  EXPECT_EQ(retry_salt("job1"), retry_salt("job1"));
  EXPECT_NE(retry_salt("job1"), retry_salt("job2"));
}

TEST(RetrySalt, SaltAndJitterValuesArePinned) {
  // Recorded outputs: the salt hash (FNV-1a) and the jitter mixer
  // (splitmix64) must not drift, or every request's retry schedule would.
  EXPECT_EQ(retry_salt(""), 0x14650fb0739d0383ull);  // FNV offset basis
  EXPECT_EQ(retry_salt("job1"), 0x729e51f0e65d23e1ull);
  EXPECT_EQ(retry_salt("req-42"), 0x719feb23ed9df7deull);
  EXPECT_EQ(retry_salt("sweep:5a"), 0xa8f555138ca903a3ull);

  const RetryPolicy p;  // defaults: 0.25 s, x2, 20% jitter
  const std::uint64_t salt = retry_salt("job1");
  EXPECT_EQ(p.backoff_before(2, salt), 0x1.2ea86d571c42ap-2);
  EXPECT_EQ(p.backoff_before(3, salt), 0x1.9a99bb7f88b2dp-2);
  EXPECT_EQ(p.backoff_before(4, salt), 0x1.2add7af3bbbf6p+0);
  EXPECT_EQ(p.backoff_before(5, salt), 0x1.dae59624bcff8p+0);
  EXPECT_EQ(p.backoff_before(3, 0), 0x1.2e46d53fb411p-1);
  EXPECT_EQ(p.backoff_before(3, 7), 0x1.a39f9b66af0cp-2);
  EXPECT_EQ(p.backoff_before(3, 0xdeadbeefull), 0x1.12387fb1a7e5ep-1);
}

}  // namespace
}  // namespace vstack::service
