// Shared declarations of the end-to-end benchmark (perfbench/README.md).
//
// The benchmark times calls into the system's public functions from the
// outside. It never enables the program's own trace and never reads the
// program's mutator-stall histogram: every time it reports is taken here,
// with std::chrono::steady_clock at nanosecond resolution.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

// ---- Arithmetic (stats.cpp) ----

// Nearest-rank percentile of `v` (sorted or not). A percentile is reported
// only when at least ten samples lie beyond it; otherwise nullopt.
std::optional<double> percentile(std::vector<double> v, double p);
// The same, but a missing percentile is a benchmark error (throws).
double must_percentile(const std::vector<double>& v, double p,
                       const std::string& what);
// Nearest-rank p50 without the ten-beyond rule, 0 for no samples: for
// set-up times and the small slices of a drift report.
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// Open-loop timing: tick t is due at t0 + t * period.
inline Clock::time_point due_time(Clock::time_point t0,
                                  std::chrono::nanoseconds period,
                                  std::uint32_t tick) {
  return t0 + period * static_cast<std::int64_t>(tick);
}

// A sample tagged with the tick it belongs to: an operation's latency (µs,
// due time -> completion) by its tick, or a cycle's time by its number.
struct TickSample {
  std::uint32_t tick = 0;
  double value = 0;
};

// The values of `s` in ten slices by tick: slice d holds the samples whose
// tick lies in [d * horizon / 10, (d + 1) * horizon / 10). Samples at or
// past the horizon are in none.
std::vector<std::vector<double>> tenths(const std::vector<TickSample>& s,
                                        std::uint32_t horizon);
// The medians of the ten slices, comma-separated: how a run drifted.
std::string median_by_tenth(const std::vector<TickSample>& s,
                            std::uint32_t horizon);

// Paced replay: for each tick in [0, ticks), wait until its due time, then
// call apply(tick, due). Returns the largest lateness of a tick start (ms).
// Ops time themselves from `due`, so a late generator shows in their
// latency instead of being omitted.
template <class Apply>
double run_open_loop(Clock::time_point t0, std::chrono::nanoseconds period,
                     std::uint32_t ticks, Apply&& apply);

// ---- Spans (spans.cpp) ----

// In-memory spans around the benchmark's calls into each layer. Disabled
// (every call a no-op) unless constructed with on = true.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  struct Span {
    std::string name;  // "<layer>.<call>"
    std::int64_t start_ns = 0, end_ns = 0;  // since the recorder's t0
    std::int32_t parent = -1;               // index, -1 for a root span
    std::uint64_t cycle = 0;                // marking cycle in flight
  };

  // Open a span (returns its index, -1 when off) and close it.
  std::int32_t open(const char* name);
  void close(std::int32_t id);
  // Record a finished child of the currently open span.
  void add(const char* name, Clock::time_point a, Clock::time_point b);
  void set_cycle(std::uint64_t c) { cycle_ = c; }

  // Self time per layer (ms): a span's duration minus its children's.
  std::map<std::string, double> self_ms_by_layer() const;
  // One JSON object per line; returns false when the file cannot be written.
  bool write_jsonl(const std::string& path, const std::string& run_id) const;

 private:
  bool on_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t cycle_ = 0;
};

// RAII span scope.
class SpanScope {
 public:
  SpanScope(Spans& s, const char* name) : s_(s), id_(s.open(name)) {}
  ~SpanScope() { s_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& s_;
  std::int32_t id_;
};

// ---- Workloads (workloads.cpp) ----

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string worker_bin;       // dgr_worker, for mark_proc
  std::string out_dir;          // where the traced run writes its spans
  std::uint32_t mutate_delay_us = 0;  // self-test: slow the mutate wrapper
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  // Further end-to-end figures the report prints but the gate does not
  // take (each is already gated under another name, or cannot be nonzero).
  std::map<std::string, Metric> shown;
  std::map<std::string, std::string> context;  // PEs, workers, sizes
  std::vector<std::string> notes;              // correctness check lines
};

// Runs one workload (throws std::runtime_error on unknown names or a
// percentile without enough samples).
RunResult run_workload(const RunConfig& cfg);

// The benchmark's own arithmetic (selftest.cpp). Returns the failures.
int self_test();

// ---- Template definitions ----

template <class Apply>
double run_open_loop(Clock::time_point t0, std::chrono::nanoseconds period,
                     std::uint32_t ticks, Apply&& apply) {
  double max_lag_ms = 0;
  for (std::uint32_t t = 0; t < ticks; ++t) {
    const Clock::time_point due = due_time(t0, period, t);
    // Sleep to within 200 µs of the due time, then spin: sleep alone
    // overshoots by a scheduler quantum, which would blur the latencies.
    if (Clock::now() < due - std::chrono::microseconds(200))
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    const double lag_ms =
        static_cast<double>(ns_since(due, Clock::now())) / 1e6;
    if (lag_ms > max_lag_ms) max_lag_ms = lag_ms;
    apply(t, due);
  }
  return max_lag_ms;
}

}  // namespace perfbench
