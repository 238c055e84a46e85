#include "runtime/thread_engine.h"

#include <algorithm>
#include <shared_mutex>

#include "core/invariants.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "util/log.h"

namespace dgr {

namespace {
thread_local int tl_pe = -1;  // PE id of the current thread, -1 = external

// Mutation gate shared between external mutators and the quiescing
// restructurer. Static keeps the header light; engines are few.
std::shared_mutex& mutation_gate() {
  static std::shared_mutex gate;
  return gate;
}
}  // namespace

ThreadEngine::ThreadEngine(Graph& g, NetOptions net)
    : g_(g),
      net_(net),
      locks_(4096),
      reg_(g.num_pes()),
      t0_(std::chrono::steady_clock::now()) {
  marker_ = std::make_unique<Marker>(g_, *this);
  mutator_ = std::make_unique<Mutator>(g_, *marker_);
  controller_ =
      std::make_unique<Controller>(g_, *marker_, *this, VertexId::invalid());
  // Restructuring must not run from inside a task execution (the completing
  // task holds its vertex lock); the PE loops pick it up lock-free.
  controller_->set_deferred_restructure(true);
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    mail_.push_back(std::make_unique<Mailbox>());
    pools_.push_back(std::make_unique<TaskPool>());
    pool_mu_.push_back(std::make_unique<std::mutex>());
  }
  out_.resize(g_.num_pes());
  for (auto& row : out_) row.resize(g_.num_pes());
  bp_armed_.resize(g_.num_pes());
  for (auto& row : bp_armed_) row.assign(g_.num_pes(), 1);  // armed
  summary_.reserve(g_.num_pes() * 2u);
  for (std::size_t i = 0; i < g_.num_pes() * 2u; ++i)
    summary_.push_back(std::make_unique<BoundaryShard>());
  // One set of batching knobs end to end: the channel coalesces with the
  // same size/age caps as the fast path.
  net_.reliable.batch_bytes = net_.batch_bytes;
  net_.reliable.batch_flush_us = net_.batch_flush_us;
  if (net_.enabled()) {
    fault_ = std::make_unique<FaultPlane>(
        g_.num_pes(), net_.faults,
        [this](PeId, PeId dst, FaultPlane::Bytes msg) {
          mail_[dst]->deliver(std::move(msg));
        });
    fault_->set_inject_hook(
        [this](FaultKind k, PeId src, PeId, std::size_t bytes) {
          static constexpr obs::Counter kFaultCounter[kNumFaultKinds] = {
              obs::Counter::kMsgDroppedInjected,
              obs::Counter::kMsgDupInjected,
              obs::Counter::kMsgReorderedInjected,
              obs::Counter::kMsgTruncatedInjected,
          };
          reg_.add(src, kFaultCounter[static_cast<std::size_t>(k)]);
          DGR_TRACE_EVENT(trace_.get(), obs::EventType::kFaultInjected,
                          Plane::kR, static_cast<std::uint16_t>(src), 0,
                          static_cast<std::uint64_t>(k), bytes);
        });
    chan_ = std::make_unique<ChannelManager>(
        g_.num_pes(), net_.reliable,
        [this](PeId src, PeId dst, ChannelManager::Bytes frame) {
          fault_->send(src, dst, std::move(frame));
        });
    ChannelManager::Hooks hooks;
    hooks.on_retransmit = [this](PeId src, PeId, std::uint64_t seq,
                                 std::uint32_t attempt) {
      reg_.add(src, obs::Counter::kMsgRetransmit);
      DGR_TRACE_EVENT(trace_.get(), obs::EventType::kMsgRetransmit, Plane::kR,
                      static_cast<std::uint16_t>(src), 0, seq, attempt);
    };
    hooks.on_dup_suppressed = [this](PeId dst, PeId, std::uint64_t seq) {
      reg_.add(dst, obs::Counter::kMsgDupSuppressed);
      DGR_TRACE_EVENT(trace_.get(), obs::EventType::kMsgDupSuppressed,
                      Plane::kR, static_cast<std::uint16_t>(dst), 0, seq);
    };
    hooks.on_decode_error = [this](PeId pe) {
      reg_.add(pe, obs::Counter::kMsgDecodeError);
    };
    hooks.on_rtt = [this](PeId src, double rtt_us) {
      reg_.observe(src, obs::Hist::kChannelRtt, rtt_us);
    };
    hooks.on_batch_flush = [this](PeId src, PeId, std::size_t payloads,
                                  std::size_t frame_bytes) {
      reg_.add(src, obs::Counter::kBatchFlush);
      reg_.add(src, obs::Counter::kMsgBatched, payloads);
      if (net_.batch_bytes > 0)
        reg_.observe(src, obs::Hist::kBatchFillPct,
                     100.0 * static_cast<double>(frame_bytes) /
                         static_cast<double>(net_.batch_bytes));
      DGR_TRACE_EVENT(trace_.get(), obs::EventType::kBatchFlush, Plane::kR,
                      static_cast<std::uint16_t>(src), 0,
                      static_cast<std::uint64_t>(payloads),
                      static_cast<std::uint64_t>(frame_bytes));
    };
    chan_->set_hooks(std::move(hooks));
  }
}

ThreadEngine::~ThreadEngine() { stop(); }

void ThreadEngine::start() {
  if (running_.exchange(true)) return;
  count_edge_cut();
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    threads_.emplace_back([this, pe] { pe_loop(pe); });
  if (wd_enabled_.load(std::memory_order_acquire))
    wd_thread_ = std::thread([this] { watchdog_loop(); });
}

void ThreadEngine::stop() {
  if (!running_.exchange(false)) return;
  for (auto& m : mail_) m->close();
  for (auto& t : threads_) t.join();
  threads_.clear();
  if (wd_thread_.joinable()) wd_thread_.join();
}

void ThreadEngine::lock_vertex(VertexId v) {
  auto& f = locks_[lock_index(v)];
  std::uint32_t spins = 0;
  while (f.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
    // Bounded pause, then yield. An unbounded pause loop is correct on a
    // dedicated core but pathological when PE threads share cores: if the
    // holder is descheduled mid-critical-section, a pause-only spinner
    // burns its whole scheduler quantum before the holder can run again.
    if (++spins < 64) {
      __builtin_ia32_pause();
      continue;
    }
#endif
    std::this_thread::yield();
  }
}

void ThreadEngine::unlock_vertex(VertexId v) {
  locks_[lock_index(v)].clear(std::memory_order_release);
}

void ThreadEngine::spawn(Task t) {
  DGR_CHECK(t.d.valid() && !t.d.is_rootpar());
  const PeId src = tl_pe >= 0 ? static_cast<PeId>(tl_pe) : t.d.pe;
  const PeId dst = t.d.pe;
  reg_.add(src, src == dst ? obs::Counter::kLocalMessages
                           : obs::Counter::kRemoteMessages);
  if (!task_is_marking(t.kind)) {
    // Reduction tasks are inert pool workload in this engine (the full
    // reduction machine runs on the deterministic SimEngine).
    inject(std::move(t));
    return;
  }
  std::vector<std::uint8_t> bytes = encode_task(t);
  reg_.add(src, obs::Counter::kBytesSent, bytes.size());
  if (src != dst) maybe_backpressure(src, dst);
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (chan_) {
    chan_->send(src, dst, std::move(bytes), now_us());
    return;
  }
  // Fast path. Cross-PE spawns from a PE thread stage into the per-pair
  // batch; everything else (local spawns, external threads) delivers
  // directly — staging rows are single-writer by construction.
  if (net_.batch_bytes > 0 && tl_pe >= 0 && dst != static_cast<PeId>(tl_pe)) {
    OutBatch& b = out_[src][dst];
    if (b.msgs.empty()) b.deadline_us = now_us() + net_.batch_flush_us;
    b.bytes += bytes.size();
    b.msgs.push_back(std::move(bytes));
    if (b.bytes >= net_.batch_bytes) flush_pair_fast(src, dst);
    return;
  }
  mail_[dst]->deliver(std::move(bytes));
}

void ThreadEngine::maybe_backpressure(PeId src, PeId dst) {
  if (net_.backpressure_limit == 0) return;
  const std::uint64_t backlog = mail_[dst]->pending();
  std::uint8_t& armed = bp_armed_[src][dst];
  if (!armed) {
    // A congestion episode is in progress: sail through until the peer has
    // genuinely drained (hysteresis at half the limit re-arms the pair).
    // Yielding per message while the backlog sits above the limit is the
    // 2-PE cliff: a steady-state mark exchange holds both mailboxes near
    // their high-water, so every spawn paid the full spin budget.
    if (backlog < net_.backpressure_limit / 2) armed = 1;
    return;
  }
  if (backlog <= net_.backpressure_limit) return;
  reg_.add(src, obs::Counter::kBackpressureStall);
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kBackpressureStall, Plane::kR,
                  static_cast<std::uint16_t>(src), 0,
                  static_cast<std::uint64_t>(dst), backlog);
  // Soft and strictly bounded: this thread may hold vertex-stripe locks
  // (globally shared hash stripes) that the congested receiver needs, so
  // waiting indefinitely could deadlock. Yield a few times; if the peer is
  // still congested, disarm and let the episode run its course.
  for (std::uint32_t i = 0; i < net_.backpressure_spins; ++i) {
    std::this_thread::yield();
    if (mail_[dst]->pending() <= net_.backpressure_limit) return;
  }
  armed = 0;
}

bool ThreadEngine::admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                              std::uint64_t epoch) {
  if (!net_.boundary_summary) return true;
  // Only remote children spawned by a PE thread go through the summary:
  // local spawns are cheap, and external callers (root seed, tests) must
  // never be vetoed.
  if (tl_pe < 0 || child.pe == static_cast<PeId>(tl_pe)) return true;
  BoundaryShard& s =
      *summary_[child.pe * 2u + (plane == Plane::kR ? 0u : 1u)];
  bool admit = true;
  while (s.mu.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }
  if (child.idx >= s.epoch.size()) {
    s.epoch.resize(child.idx + 1, 0);
    s.prior.resize(child.idx + 1, 0);
  }
  if (s.epoch[child.idx] != epoch || prior > s.prior[child.idx]) {
    // First request for this vertex this epoch, or a strictly stronger
    // priority than anything forwarded so far: record and admit.
    s.epoch[child.idx] = epoch;
    s.prior[child.idx] = prior;
  } else {
    admit = false;
  }
  s.mu.clear(std::memory_order_release);
  if (!admit) reg_.add(static_cast<std::uint32_t>(tl_pe),
                       obs::Counter::kBoundaryDedup);
  return admit;
}

void ThreadEngine::count_edge_cut() {
  g_.for_each_live([this](VertexId v) {
    std::uint64_t total = 0, cut = 0;
    for (const ArgEdge& e : g_.at(v).args) {
      if (!e.to.valid()) continue;
      ++total;
      if (e.to.pe != v.pe) ++cut;
    }
    if (total) reg_.add(v.pe, obs::Counter::kEdgesTotal, total);
    if (cut) reg_.add(v.pe, obs::Counter::kEdgeCut, cut);
  });
}

void ThreadEngine::flush_pair_fast(PeId src, PeId dst) {
  OutBatch& b = out_[src][dst];
  if (b.msgs.empty()) return;
  const std::size_t count = b.msgs.size();
  const std::size_t bytes = b.bytes;
  reg_.add(src, obs::Counter::kBatchFlush);
  reg_.add(src, obs::Counter::kMsgBatched, count);
  reg_.observe(src, obs::Hist::kBatchFillPct,
               100.0 * static_cast<double>(bytes) /
                   static_cast<double>(net_.batch_bytes));
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kBatchFlush, Plane::kR,
                  static_cast<std::uint16_t>(src), 0,
                  static_cast<std::uint64_t>(count),
                  static_cast<std::uint64_t>(bytes));
  mail_[dst]->deliver_batch(std::move(b.msgs));
  b.msgs.clear();
  b.bytes = 0;
  b.deadline_us = 0;
}

void ThreadEngine::flush_outgoing(PeId pe, bool force) {
  if (net_.batch_bytes == 0 || chan_) return;  // nothing ever staged
  std::uint64_t now = 0;
  bool now_set = false;
  for (PeId dst = 0; dst < g_.num_pes(); ++dst) {
    OutBatch& b = out_[pe][dst];
    if (b.msgs.empty()) continue;
    if (!force) {
      if (b.bytes < net_.batch_bytes) {
        if (!now_set) {
          now = now_us();
          now_set = true;
        }
        if (now < b.deadline_us) continue;
      }
    }
    flush_pair_fast(pe, dst);
  }
}

void ThreadEngine::inject(Task t) {
  const PeId pe = t.d.pe;
  std::lock_guard<std::mutex> lk(*pool_mu_[pe]);
  pools_[pe]->push(std::move(t));
}

void ThreadEngine::pe_loop(PeId pe) {
  tl_pe = static_cast<int>(pe);
  std::uint64_t frames = 0;  // for periodic timer service while busy
  std::vector<Mailbox::Bytes> buf;  // reused drain buffer
  const std::size_t drain_max = net_.drain_max ? net_.drain_max : 1;
  while (running_.load(std::memory_order_relaxed)) {
    if (pause_.load(std::memory_order_acquire)) {
      // Staged marks must reach their mailboxes before this PE parks: a
      // message wedged here would stall wave termination (and with it the
      // quiescer) indefinitely.
      flush_outgoing(pe, /*force=*/true);
      parked_.fetch_add(1, std::memory_order_acq_rel);
      while (pause_.load(std::memory_order_acquire) &&
             running_.load(std::memory_order_relaxed))
        std::this_thread::yield();
      parked_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (controller_->restructure_due() &&
        !restructure_claim_.test_and_set(std::memory_order_acq_rel)) {
      if (controller_->restructure_due()) controller_->run_restructure();
      restructure_claim_.clear(std::memory_order_release);
      continue;
    }
    // Batch drain: take up to drain_max messages under one mailbox lock and
    // execute the burst without further queue traffic (the bounded budget
    // keeps pause/restructure latency and flush staleness in check).
    buf.clear();
    std::size_t n = mail_[pe]->drain(drain_max, buf);
    if (n == 0) {
      // Idle: staged batches flush now (latency floor for stragglers), and
      // idle is when retransmit timers matter — a dropped frame leaves the
      // mailbox empty until this PE re-sends it.
      flush_outgoing(pe, /*force=*/true);
      if (chan_) {
        chan_->flush(pe, now_us());
        chan_->service(pe, now_us());
      }
      // Balance the survivors: an idle PE takes half of the deepest peer
      // backlog instead of parking — on a congested pair this turns the
      // ping-pong idle time into useful marking work.
      if (net_.steal && try_steal(pe, buf)) continue;
      // Nothing to run and nothing to steal: park on the mailbox condvar
      // (bounded, so pause/steal/timer polls still happen) rather than
      // yield-spinning. A polling idler on a shared core competes with the
      // busy PEs for the timeslice that would drain the very backlog it is
      // polling for.
      if (net_.idle_wait_us > 0)
        n = mail_[pe]->drain_wait(drain_max, buf, net_.idle_wait_us);
      else
        std::this_thread::yield();
      if (n == 0) continue;
    }
    // Sampled mailbox backlog at service time, once per drained burst (the
    // per-PE hist lock is uncontended: only this thread observes its slot).
    if ((reg_.get(pe, obs::Counter::kMarkTasks) & 15) == 0)
      reg_.observe(pe, obs::Hist::kMarkQueueDepth,
                   static_cast<double>(mail_[pe]->pending() + n));
    if (chan_) {
      for (const auto& msg : buf) {
        // Raw frame → channel → zero or more exactly-once in-order payloads.
        for (auto& payload : chan_->on_frame(pe, msg, now_us())) {
          const std::optional<Task> t = try_decode_task(payload);
          if (!t) {
            // Unreachable unless a checksum collision slips corruption past
            // the frame layer; counted, and the spawn is retired so
            // wait_quiescent cannot hang on it.
            reg_.add(pe, obs::Counter::kMsgDecodeError);
            outstanding_.fetch_sub(1, std::memory_order_acq_rel);
            continue;
          }
          execute(pe, *t);
          outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        }
        if ((++frames & 63) == 0) chan_->service(pe, now_us());
      }
    } else {
      for (const auto& msg : buf) {
        const Task t = decode_task(msg);
        execute(pe, t);
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    // Between bursts: push out size/age-ripe batches staged by the executes
    // above (worst-case staleness is one drain_max burst + batch_flush_us).
    flush_outgoing(pe, /*force=*/false);
  }
  tl_pe = -1;
}

bool ThreadEngine::try_steal(PeId pe, std::vector<Mailbox::Bytes>& buf) {
  PeId victim = pe;
  std::size_t deepest = 0;
  for (PeId v = 0; v < g_.num_pes(); ++v) {
    if (v == pe) continue;
    const std::size_t backlog = mail_[v]->pending();
    if (backlog > deepest) {
      deepest = backlog;
      victim = v;
    }
  }
  if (deepest < net_.steal_min) return false;
  buf.clear();
  const std::size_t want =
      std::min<std::size_t>(deepest / 2, net_.drain_max ? net_.drain_max : 1);
  const std::size_t n =
      mail_[victim]->drain(std::max<std::size_t>(want, 1), buf);
  if (n == 0) return false;
  reg_.add(pe, obs::Counter::kStealBatches);
  reg_.add(pe, obs::Counter::kStealTasks, n);
  // Execute the stolen batch here. Location transparency makes this safe:
  // vertex locks are global stripes, the marker touches only t.d under its
  // lock, counters are charged to the executing PE, and the channel/fault
  // planes serialize internally — a stolen frame still runs through
  // on_frame(victim, ...) so the (src → victim) receiver state stays
  // exactly-once regardless of which thread processes it.
  if (chan_) {
    for (const auto& msg : buf) {
      for (auto& payload : chan_->on_frame(victim, msg, now_us())) {
        const std::optional<Task> t = try_decode_task(payload);
        if (!t) {
          reg_.add(pe, obs::Counter::kMsgDecodeError);
          outstanding_.fetch_sub(1, std::memory_order_acq_rel);
          continue;
        }
        execute(pe, *t);
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  } else {
    for (const auto& msg : buf) {
      execute(pe, decode_task(msg));
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  // Children spawned by the stolen tasks staged into this thief's rows;
  // push the ripe ones out before the next poll.
  flush_outgoing(pe, /*force=*/false);
  return true;
}

void ThreadEngine::execute(PeId pe, const Task& t) {
  DGR_CHECK(task_is_marking(t.kind));
  reg_.add(pe, t.kind == TaskKind::kMark ? obs::Counter::kMarkTasks
                                         : obs::Counter::kReturnTasks);
  // Atomicity of task execution (§2.1): a marking task touches only its
  // destination vertex, so its lock is the whole story.
  lock_vertex(t.d);
  marker_->exec(t);
  unlock_vertex(t.d);
}

void ThreadEngine::atomically(std::initializer_list<VertexId> vs,
                              const std::function<void()>& fn) {
  atomically(std::span<const VertexId>(vs.begin(), vs.size()), fn);
}

void ThreadEngine::atomically(std::span<const VertexId> vs,
                              const std::function<void()>& fn) {
  std::shared_lock<std::shared_mutex> gate(mutation_gate());
  // Sorted, deduplicated (by lock index) acquisition avoids both deadlock
  // and double-locking of aliased stripes.
  std::vector<std::uint32_t> idx;
  idx.reserve(vs.size());
  for (VertexId v : vs) idx.push_back(lock_index(v));
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  for (std::uint32_t i : idx)
    while (locks_[i].test_and_set(std::memory_order_acquire))
      std::this_thread::yield();
  fn();
  for (auto it = idx.rbegin(); it != idx.rend(); ++it)
    locks_[*it].clear(std::memory_order_release);
}

void ThreadEngine::quiesce_begin() {
  // A PE-thread quiescer flushes its own staging row first: nothing this
  // thread staged may sit out the safe point (belt and braces — marking has
  // terminated, so the rows should already be empty).
  if (tl_pe >= 0) flush_outgoing(static_cast<PeId>(tl_pe), /*force=*/true);
  // Exclusive against external mutators...
  mutation_gate().lock();
  // ...and against the PE threads (minus the caller, if it is one).
  pause_.store(true, std::memory_order_release);
  const std::uint32_t expected =
      g_.num_pes() - (tl_pe >= 0 ? 1u : 0u);
  while (parked_.load(std::memory_order_acquire) < expected)
    std::this_thread::yield();
  // Safe point: every PE is parked, both planes have terminated with their
  // marks still unconsumed, no marking task is in flight — the one globally
  // consistent state the concurrent engine reaches. Audit here.
  maybe_audit();
}

void ThreadEngine::quiesce_end() {
  pause_.store(false, std::memory_order_release);
  mutation_gate().unlock();
}

void ThreadEngine::wait_quiescent() {
  while (outstanding_.load(std::memory_order_acquire) > 0)
    std::this_thread::yield();
}

void ThreadEngine::wait_cycle_done() {
  while (!controller_->idle()) std::this_thread::yield();
}

void ThreadEngine::collect_task_refs(std::vector<TaskRef>& out) {
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    std::lock_guard<std::mutex> lk(*pool_mu_[pe]);
    pools_[pe]->for_each(
        [&](const Task& t) { out.push_back(TaskRef{t.s, t.d}); });
  }
}

TaskRestructure ThreadEngine::restructure_tasks(
    const std::function<bool(const Task&)>& kill,
    const std::function<std::uint8_t(const Task&)>& prio) {
  TaskRestructure r;
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    std::lock_guard<std::mutex> lk(*pool_mu_[pe]);
    r += pools_[pe]->restructure(kill, prio);
  }
  return r;
}

void ThreadEngine::enable_audit(AuditOptions opt) {
  audit_opt_ = opt;
  audit_enabled_ = opt.period > 0;
}

void ThreadEngine::enable_watchdog(WatchdogOptions opt) {
  wd_opt_ = opt;
  wd_enabled_.store(true, std::memory_order_release);
}

HealthReport ThreadEngine::health() const {
  HealthReport r;
  for (std::size_t i = 0; i < obs::kNumHealthKinds; ++i)
    r.warnings[i] = health_[i].load(std::memory_order_relaxed);
  return r;
}

void ThreadEngine::warn(obs::HealthKind kind, std::uint16_t pe,
                        std::uint64_t detail) {
  health_[static_cast<std::size_t>(kind)].fetch_add(1,
                                                    std::memory_order_relaxed);
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kHealthWarning, Plane::kR, pe,
                  controller_->cycles_completed() + 1,
                  static_cast<std::uint64_t>(kind), detail);
}

void ThreadEngine::maybe_audit() {
  audit_swept_check_ = false;
  if (!audit_enabled_) return;
  const std::uint64_t cyc = controller_->cycles_completed() + 1;
  if (cyc % audit_opt_.period != 0) return;
  ++audit_stats_.audits;
  std::uint64_t violations = 0;
  auto fail = [&](const std::string& what) {
    ++violations;
    ++audit_stats_.violations;
    audit_stats_.last_what = what;
    DGR_ERROR("audit violation (cycle %llu): %s", (unsigned long long)cyc,
              what.c_str());
    warn(obs::HealthKind::kAuditViolation, 0, audit_stats_.audits);
  };
  if (audit_opt_.check_invariants) {
    // Both planes have terminated (done) with marks intact; the pending task
    // multiset is empty — the wave's termination detection guarantees every
    // spawned marking task has executed.
    for (const Plane plane : {Plane::kR, Plane::kT}) {
      if (!marker_->active(plane) || !marker_->done(plane)) continue;
      if (marker_->cycle_tainted(plane)) continue;
      const InvariantReport rep =
          check_marking_invariants(g_, *marker_, plane, {});
      if (!rep.ok) fail(rep.what);
    }
  }
  std::uint64_t gar = 0;
  if (audit_opt_.check_accounting) {
    const AccountingReport acc = check_heap_accounting(g_, *marker_);
    if (!acc.ok) {
      fail(acc.what);
    } else if (marker_->active(Plane::kR) && marker_->done(Plane::kR)) {
      // GAR' is frozen until the sweep (the mutation gate is held): the
      // restructure about to run must free exactly this many vertices.
      audit_expected_gar_ = acc.gar;
      audit_swept_check_ = true;
    }
    gar = acc.gar;
  }
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kAudit, Plane::kR, 0, cyc,
                  violations, gar);
}

void ThreadEngine::on_cycle_complete(const CycleResult& res) {
  if (!audit_swept_check_) return;
  audit_swept_check_ = false;
  if (res.swept != audit_expected_gar_) {
    ++audit_stats_.violations;
    audit_stats_.last_what =
        "Property 1 violated: swept " + std::to_string(res.swept) +
        " != GAR' " + std::to_string(audit_expected_gar_);
    DGR_ERROR("audit violation (cycle %llu): %s",
              (unsigned long long)res.cycle, audit_stats_.last_what.c_str());
    warn(obs::HealthKind::kAuditViolation, 0, audit_stats_.audits);
  }
}

void ThreadEngine::watchdog_loop() {
  std::uint64_t last_progress = 0;
  std::uint32_t stalled = 0;
  bool stall_reported = false;
  auto total_rescues = [this] {
    return marker_->rescue_waves(Plane::kR) + marker_->rescue_waves(Plane::kT);
  };
  std::uint64_t cycle_base_rescues = total_rescues();
  std::uint64_t last_cycle = controller_->cycles_completed();
  bool rescue_reported = false;
  std::vector<bool> mailbox_reported(g_.num_pes(), false);
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(wd_opt_.interval_ms));
    // Mailbox saturation, edge-triggered per PE (re-arms once the backlog
    // halves, so a persistently saturated mailbox warns once, not per tick).
    for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
      const std::uint64_t backlog = mail_[pe]->pending();
      if (backlog >= wd_opt_.mailbox_saturation) {
        if (!mailbox_reported[pe]) {
          mailbox_reported[pe] = true;
          warn(obs::HealthKind::kMailboxSaturated, pe, backlog);
        }
      } else if (backlog < wd_opt_.mailbox_saturation / 2) {
        mailbox_reported[pe] = false;
      }
    }
    // Per-cycle trackers reset when a new cycle begins.
    const std::uint64_t cyc = controller_->cycles_completed();
    if (cyc != last_cycle) {
      last_cycle = cyc;
      cycle_base_rescues = total_rescues();
      rescue_reported = false;
      stalled = 0;
      stall_reported = false;
    }
    // Rescue storm: the supplementary-wave loop is churning, which means
    // mutators acquire references faster than waves can absorb them.
    const std::uint64_t waves = total_rescues() - cycle_base_rescues;
    if (waves >= wd_opt_.rescue_storm && !rescue_reported) {
      rescue_reported = true;
      warn(obs::HealthKind::kRescueStorm, 0, waves);
    }
    // Wave-front stall: a plane is actively marking yet the global
    // mark/return counters have not moved for the whole window.
    const bool marking = marker_->marking_in_progress(Plane::kR) ||
                         marker_->marking_in_progress(Plane::kT);
    if (!marking) {
      stalled = 0;
      stall_reported = false;
      continue;
    }
    const std::uint64_t progress = reg_.total(obs::Counter::kMarkTasks) +
                                   reg_.total(obs::Counter::kReturnTasks) +
                                   total_rescues();
    if (progress != last_progress) {
      last_progress = progress;
      stalled = 0;
      stall_reported = false;
    } else if (++stalled >= wd_opt_.stall_samples && !stall_reported) {
      stall_reported = true;
      warn(obs::HealthKind::kMarkStall, 0, progress);
    }
  }
}

obs::TraceBuffer* ThreadEngine::enable_trace(std::size_t capacity) {
#if DGR_TRACE_ENABLED
  if (!trace_) {
    trace_ = std::make_unique<obs::TraceBuffer>(capacity);
    trace_->set_clock([this] { return now_us(); });
    marker_->set_trace(trace_.get());
    mutator_->set_trace(trace_.get());
    controller_->set_trace(trace_.get());
  }
  return trace_.get();
#else
  (void)capacity;
  return nullptr;
#endif
}

ThreadEngineStats ThreadEngine::stats() const {
  ThreadEngineStats s;
  s.tasks_executed = reg_.total(obs::Counter::kMarkTasks) +
                     reg_.total(obs::Counter::kReturnTasks) +
                     reg_.total(obs::Counter::kReductionTasks);
  s.remote_messages = reg_.total(obs::Counter::kRemoteMessages);
  s.local_messages = reg_.total(obs::Counter::kLocalMessages);
  s.bytes_sent = reg_.total(obs::Counter::kBytesSent);
  s.msg_batched = reg_.total(obs::Counter::kMsgBatched);
  s.batch_flushes = reg_.total(obs::Counter::kBatchFlush);
  s.backpressure_stalls = reg_.total(obs::Counter::kBackpressureStall);
  s.boundary_dedup = reg_.total(obs::Counter::kBoundaryDedup);
  s.steal_batches = reg_.total(obs::Counter::kStealBatches);
  s.steal_tasks = reg_.total(obs::Counter::kStealTasks);
  s.edge_cut = reg_.total(obs::Counter::kEdgeCut);
  s.edges_total = reg_.total(obs::Counter::kEdgesTotal);
  for (const auto& m : mail_)
    s.mailbox_high_water = std::max(s.mailbox_high_water, m->high_water());
  return s;
}

}  // namespace dgr
