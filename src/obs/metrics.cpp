#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

namespace dgr::obs {

namespace {

// Spin briefly with pause, then fall back to yield: a bare test_and_set
// loop on a host with fewer cores than threads can burn a whole scheduler
// quantum while the lock holder is descheduled.
template <typename Slot>
void hist_lock_acquire(Slot& s) {
  std::uint32_t spins = 0;
  while (s.hist_lock.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
    if (++spins < 64) {
      __builtin_ia32_pause();
      continue;
    }
#endif
    std::this_thread::yield();
  }
}

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kMarkTasks: return "mark_tasks";
    case Counter::kReturnTasks: return "return_tasks";
    case Counter::kReductionTasks: return "reduction_tasks";
    case Counter::kRemoteMessages: return "remote_messages";
    case Counter::kLocalMessages: return "local_messages";
    case Counter::kBytesSent: return "bytes_sent";
    case Counter::kMsgDroppedInjected: return "msg_dropped_injected";
    case Counter::kMsgDupInjected: return "msg_dup_injected";
    case Counter::kMsgReorderedInjected: return "msg_reordered_injected";
    case Counter::kMsgTruncatedInjected: return "msg_truncated_injected";
    case Counter::kMsgRetransmit: return "msg_retransmit";
    case Counter::kMsgDupSuppressed: return "msg_dup_suppressed";
    case Counter::kMsgDecodeError: return "msg_decode_error";
    case Counter::kMsgBatched: return "msg_batched";
    case Counter::kBatchFlush: return "batch_flush";
    case Counter::kBackpressureStall: return "backpressure_stall";
    case Counter::kBoundaryDedup: return "boundary_dedup";
    case Counter::kStealBatches: return "steal_batches";
    case Counter::kStealTasks: return "steal_tasks";
    case Counter::kEdgeCut: return "edge_cut";
    case Counter::kEdgesTotal: return "edges_total";
    case Counter::kHandoffBytes: return "handoff_bytes";
    case Counter::kTelemetryMsgs: return "telemetry_msgs";
    case Counter::kTelemetryDropped: return "telemetry_dropped";
    case Counter::kWorkerLost: return "worker_lost";
    case Counter::kPartitionReassigned: return "partition_reassigned";
    case Counter::kHandoffFullBytes: return "handoff_full_bytes";
    case Counter::kHandoffDeltaBytes: return "handoff_delta_bytes";
    case Counter::kHandoffResyncs: return "handoff_resyncs";
    case Counter::kSessionsOpened: return "sessions_opened";
    case Counter::kSessionsClosed: return "sessions_closed";
    case Counter::kSessionChurnOps: return "session_churn_ops";
    case Counter::kSessionsRejected: return "sessions_rejected";
    case Counter::kMutatorOps: return "mutator_ops";
    case Counter::kMutatorStallIdleNs: return "mutator_stall_idle_ns";
    case Counter::kMutatorStallMarkNs: return "mutator_stall_mark_ns";
    case Counter::kMutatorStallQuiesceNs: return "mutator_stall_quiesce_ns";
    case Counter::kCount_: break;
  }
  return "?";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kMarkQueueDepth: return "mark_queue_depth";
    case Hist::kPoolDepth: return "pool_depth";
    case Hist::kMsgLatency: return "msg_latency";
    case Hist::kChannelRtt: return "channel_rtt_us";
    case Hist::kBatchFillPct: return "batch_fill_pct";
    case Hist::kMutatorStallUs: return "mutator_stall_us";
    case Hist::kCount_: break;
  }
  return "?";
}

MetricsRegistry::MetricsRegistry(std::uint32_t num_pes)
    : slots_(num_pes ? num_pes : 1) {}

std::uint64_t MetricsRegistry::total(Counter c) const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_)
    n += s.c[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  return n;
}

void MetricsRegistry::observe(std::uint32_t pe, Hist h, double v) noexcept {
  Slot& s = slots_[pe];
  hist_lock_acquire(s);
  s.h[static_cast<std::size_t>(h)].add(v);
  s.hist_lock.clear(std::memory_order_release);
}

void MetricsRegistry::merge_hist_bucket(std::uint32_t pe, Hist h,
                                        std::uint32_t bucket, std::uint64_t n,
                                        double max_hint) noexcept {
  Slot& s = slots_[pe];
  hist_lock_acquire(s);
  s.h[static_cast<std::size_t>(h)].add_bucket(bucket, n, max_hint);
  s.hist_lock.clear(std::memory_order_release);
}

Histogram MetricsRegistry::hist(std::uint32_t pe, Hist h) const {
  const Slot& s = slots_[pe];
  hist_lock_acquire(s);
  Histogram copy = s.h[static_cast<std::size_t>(h)];
  s.hist_lock.clear(std::memory_order_release);
  return copy;
}

Histogram MetricsRegistry::merged_hist(Hist h) const {
  Histogram out;
  for (std::uint32_t pe = 0; pe < num_pes(); ++pe) out.merge(hist(pe, h));
  return out;
}

void MetricsRegistry::reset() {
  for (Slot& s : slots_) {
    for (auto& a : s.c) a.store(0, std::memory_order_relaxed);
    hist_lock_acquire(s);
    for (Histogram& hg : s.h) hg.reset();
    s.hist_lock.clear(std::memory_order_release);
  }
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_counters(std::string& out,
                     const std::function<std::uint64_t(Counter)>& get) {
  out += '{';
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (i) out += ',';
    out += '"';
    out += counter_name(static_cast<Counter>(i));
    out += "\":";
    append_u64(out, get(static_cast<Counter>(i)));
  }
  out += '}';
}

void append_hist(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  append_u64(out, h.count());
  out += ",\"p50\":";
  append_double(out, h.p50());
  out += ",\"p99\":";
  append_double(out, h.p99());
  out += ",\"p999\":";
  append_double(out, h.percentile(99.9));
  out += ",\"max\":";
  append_double(out, h.max_value());
  out += '}';
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"num_pes\":";
  append_u64(out, num_pes());
  out += ",\"totals\":";
  append_counters(out, [&](Counter c) { return total(c); });
  out += ",\"pes\":[";
  for (std::uint32_t pe = 0; pe < num_pes(); ++pe) {
    if (pe) out += ',';
    out += "{\"pe\":";
    append_u64(out, pe);
    out += ",\"counters\":";
    append_counters(out, [&](Counter c) { return get(pe, c); });
    out += ",\"hists\":{";
    for (std::size_t i = 0; i < kNumHists; ++i) {
      if (i) out += ',';
      out += '"';
      out += hist_name(static_cast<Hist>(i));
      out += "\":";
      append_hist(out, hist(pe, static_cast<Hist>(i)));
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string health_line(const HealthSnapshot& s) {
  const double ms_per_cycle =
      s.cycles_window ? s.window_ms / static_cast<double>(s.cycles_window)
                      : s.window_ms;
  const double marks_per_s =
      s.window_ms > 0.0
          ? static_cast<double>(s.marks) * 1000.0 / s.window_ms
          : 0.0;
  const std::uint64_t msgs = s.remote_msgs + s.local_msgs;
  const double remote_pct =
      msgs ? 100.0 * static_cast<double>(s.remote_msgs) /
                 static_cast<double>(msgs)
           : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cycle %llu | %.2f ms/cycle | %.3g marks/s | remote %.1f%% | "
                "retx %llu",
                (unsigned long long)s.cycle, ms_per_cycle, marks_per_s,
                remote_pct, (unsigned long long)s.retransmits);
  std::string out = buf;
  if (s.workers_total) {
    std::snprintf(buf, sizeof(buf), " | workers %u/%u", s.workers_live,
                  s.workers_total);
    out += buf;
  }
  if (s.stall_ops) {
    std::snprintf(buf, sizeof(buf), " | stall-p99 %.4gus", s.stall_p99_us);
    out += buf;
  }
  if (s.telemetry_dropped) {
    std::snprintf(buf, sizeof(buf), " | tele-drop %llu",
                  (unsigned long long)s.telemetry_dropped);
    out += buf;
  }
  return out;
}

std::string health_jsonl(const HealthSnapshot& s) {
  std::string out = "{\"cycle\":";
  append_u64(out, s.cycle);
  out += ",\"cycles_window\":";
  append_u64(out, s.cycles_window);
  out += ",\"window_ms\":";
  append_double(out, s.window_ms);
  out += ",\"marks\":";
  append_u64(out, s.marks);
  out += ",\"remote_msgs\":";
  append_u64(out, s.remote_msgs);
  out += ",\"local_msgs\":";
  append_u64(out, s.local_msgs);
  out += ",\"retransmits\":";
  append_u64(out, s.retransmits);
  out += ",\"stall_ops\":";
  append_u64(out, s.stall_ops);
  out += ",\"mutator_stall_p99_us\":";
  append_double(out, s.stall_p99_us);
  out += ",\"telemetry_dropped\":";
  append_u64(out, s.telemetry_dropped);
  out += ",\"workers_live\":";
  append_u64(out, s.workers_live);
  out += ",\"workers_total\":";
  append_u64(out, s.workers_total);
  out += '}';
  return out;
}

HealthEmitter::HealthEmitter(const char* tool, std::uint32_t period,
                             const char* jsonl_path)
    : period_(period), last_(std::chrono::steady_clock::now()) {
  if (!jsonl_path) return;
  jsonl_.open(jsonl_path, std::ios::binary);
  if (!jsonl_) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", tool, jsonl_path);
    std::exit(2);
  }
}

void HealthEmitter::on_cycle(const MetricsRegistry& reg, std::uint64_t cycle,
                             std::uint32_t workers_live,
                             std::uint32_t workers_total) {
  if (period_ == 0 || cycle % period_ != 0) return;
  const auto now = std::chrono::steady_clock::now();
  HealthSnapshot s;
  s.cycle = cycle;
  s.cycles_window = period_;
  s.window_ms = std::chrono::duration<double, std::milli>(now - last_).count();
  const std::uint64_t marks =
      reg.total(Counter::kMarkTasks) + reg.total(Counter::kReturnTasks);
  const std::uint64_t remote = reg.total(Counter::kRemoteMessages);
  const std::uint64_t local = reg.total(Counter::kLocalMessages);
  const std::uint64_t retx = reg.total(Counter::kMsgRetransmit);
  s.marks = marks - prev_marks_;
  s.remote_msgs = remote - prev_remote_;
  s.local_msgs = local - prev_local_;
  s.retransmits = retx - prev_retx_;
  s.telemetry_dropped = reg.total(Counter::kTelemetryDropped);
  // Mutator-stall rollup (cumulative): the reduction's own cooperative
  // mutations sample Hist::kMutatorStallUs just like the workload driver.
  const Histogram stall = reg.merged_hist(Hist::kMutatorStallUs);
  s.stall_ops = stall.count();
  s.stall_p99_us = stall.p99();
  s.workers_live = workers_live;
  s.workers_total = workers_total;
  prev_marks_ = marks;
  prev_remote_ = remote;
  prev_local_ = local;
  prev_retx_ = retx;
  last_ = now;
  std::printf("# %s\n", health_line(s).c_str());
  if (jsonl_.is_open()) jsonl_ << health_jsonl(s) << "\n";
}

}  // namespace dgr::obs
