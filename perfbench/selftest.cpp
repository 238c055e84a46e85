// Self-test of the benchmark's own arithmetic (perfbench --self-test).
// The gate's negative case, a slowed mutate wrapper, needs the metric
// bounds from BENCHMARK.json and lives in run.py --self-test.
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  expect(percentile(iota(100), 50) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(iota(100), 90) == 90.0,
         "p90 of 100 samples is the 90th (ten beyond it)");
  expect(!percentile(iota(99), 90), "p90 of 99 samples is refused");
  expect(percentile(iota(1000), 99) == 990.0, "p99 of 1000 samples");
  expect(!percentile(iota(999), 99), "p99 of 999 samples is refused");
  expect(!percentile({}, 50), "no percentile of nothing");
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  for (int i = 0; i < 4; ++i) shuffled.insert(shuffled.end(), {5, 1, 4, 2, 3});
  expect(percentile(shuffled, 50) == 3.0, "unsorted input");
  expect(median({4, 1, 3, 2}) == 2.0, "median is the nearest-rank p50");
  expect(median({3, 1, 2}) == 2.0, "median of an odd count");
}

// A generator that falls 4 ms behind at tick 5: the next ticks' ops are
// timed from when they were due, so the stall shows in their latency
// although each op itself is instant.
void latency_from_due() {
  const auto period = std::chrono::milliseconds(1);
  std::vector<double> from_due(20, 0), from_start(20, 0);
  const Clock::time_point t0 = Clock::now() + period;
  const double lag_ms = run_open_loop(
      t0, period, 20, [&](std::uint32_t t, Clock::time_point due) {
        const Clock::time_point start = Clock::now();
        if (t == 5) std::this_thread::sleep_for(std::chrono::milliseconds(4));
        const Clock::time_point done = Clock::now();
        from_due[t] = static_cast<double>(ns_since(due, done)) / 1e3;
        from_start[t] = static_cast<double>(ns_since(start, done)) / 1e3;
      });
  expect(from_due[5] >= 4000, "the slow op itself is >= 4 ms late");
  expect(from_due[6] >= 3000, "the op due 1 ms later waits >= 3 ms");
  expect(from_due[7] >= 2000, "the op due 2 ms later waits >= 2 ms");
  expect(from_start[6] < 1000, "timing from the start would omit the wait");
  expect(lag_ms >= 3.0, "generator lag reports the stall");
  expect(ns_since(due_time(t0, period, 7), t0 + 7 * period) == 0,
         "tick 7 is due at t0 + 7 periods");
}

void decile_split() {
  std::vector<TickSample> ops;
  for (std::uint32_t t = 0; t < 110; ++t)  // ticks past the 100 horizon too
    for (int k = 0; k < 3; ++k)
      ops.push_back({t, static_cast<double>(t * 10 + k)});
  const std::vector<std::vector<double>> parts = tenths(ops, 100);
  expect(parts.size() == 10, "ten slices");
  expect(parts.front().size() == 30, "first decile holds ticks 0..9");
  expect(parts.back().size() == 30, "last decile holds ticks 90..99 only");
  expect(percentile(parts.front(), 50) == 42.0, "first-decile p50");
  expect(percentile(parts.back(), 50) == 942.0, "last-decile p50");
  expect(median_by_tenth(ops, 100) == "42,142,242,342,442,542,642,742,842,942",
         "per-tenth medians");
  std::vector<TickSample> odd;
  for (std::uint32_t t = 0; t < 15; ++t) odd.push_back({t, 0});
  std::size_t covered = 0;
  for (const std::vector<double>& part : tenths(odd, 15))
    covered += part.size();
  expect(covered == 15, "an uneven horizon splits without loss");
  expect(std::fabs(mean({1, 2, 3, 6}) - 3.0) < 1e-12, "mean");
}

}  // namespace

int self_test() {
  percentile_rule();
  latency_from_due();
  decile_split();
  std::printf("self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
