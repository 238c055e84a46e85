#include "runtime/thread_engine.h"

#include <algorithm>
#include <shared_mutex>
#include <utility>

#include "net/frame.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "util/log.h"

namespace dgr {

namespace {
thread_local int tl_pe = -1;  // PE id of the current thread, -1 = external

// Tasks moved from the mailbox onto the work list per pass (whole messages,
// at least one), tasks run from the list per pass, and the cap on one steal.
constexpr std::size_t kDrainMax = 64;
// Idle-path stealing: the smallest peer mailbox backlog (tasks) worth
// taking from.
constexpr std::size_t kStealMin = 16;
// Idle parking bound on the mailbox condvar (see pe_loop).
constexpr std::uint32_t kIdleWaitUs = 100;

// Acquires one of the engine's spinlocks (vertex stripes, boundary-summary
// shards): a bounded run of pauses, then yield. An unbounded pause loop is
// correct on a dedicated core but pathological when PE threads share cores:
// if the holder is descheduled mid-critical-section, a pause-only spinner
// burns its whole scheduler quantum before the holder can run again.
void spin_acquire(std::atomic_flag& f) {
  std::uint32_t spins = 0;
  while (f.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
    if (++spins < 64) {
      __builtin_ia32_pause();
      continue;
    }
#endif
    std::this_thread::yield();
  }
}

// Mutation gate shared between external mutators and the quiescing
// restructurer. Static keeps the header light; engines are few.
std::shared_mutex& mutation_gate() {
  static std::shared_mutex gate;
  return gate;
}
}  // namespace

ThreadEngine::ThreadEngine(Graph& g, NetOptions net)
    : g_(g),
      marker_(std::make_unique<Marker>(g, *this)),
      net_(net),
      locks_(4096),
      reg_(g.num_pes()),
      t0_(std::chrono::steady_clock::now()),
      plane_(g.num_pes(), net,
             [this](PeId, PeId dst, FaultPlane::Bytes frame) {
               const std::size_t tasks = frame_payload_count(frame);
               mail_[dst]->deliver(std::move(frame), tasks);
             },
             reg_),
      audit_(g, *marker_) {
  mutator_ = std::make_unique<Mutator>(g_, *marker_);
  controller_ =
      std::make_unique<Controller>(g_, *marker_, *this, VertexId::invalid());
  // Restructuring must not run from inside a task execution (the completing
  // task holds its vertex lock); the PE loops pick it up lock-free.
  controller_->set_deferred_restructure(true);
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    mail_.push_back(std::make_unique<Mailbox>());
    pools_.emplace_back();
    pool_mu_.push_back(std::make_unique<std::mutex>());
  }
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    pes_.push_back(std::make_unique<PeState>());
    pes_[pe]->out.resize(g_.num_pes());
  }
  summary_.reserve(g_.num_pes() * 2u);
  for (std::size_t i = 0; i < g_.num_pes() * 2u; ++i)
    summary_.push_back(std::make_unique<BoundaryShard>());
  audit_.set_violation_hook([this] {
    warn(obs::HealthKind::kAuditViolation, 0, audit_.stats().audits);
  });
}

ThreadEngine::~ThreadEngine() { stop(); }

void ThreadEngine::start() {
  if (running_.exchange(true)) return;
  // Mint every aux root (taskroots, troot, uroot, rescue roots) before any
  // PE thread runs: minted lazily, the first rescue wave would allocate on
  // store 0 from a PE thread, racing a mutator allocating there.
  controller_->prewarm_aux_roots();
  count_edge_cut();
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    threads_.emplace_back([this, pe] { pe_loop(pe); });
  if (wd_enabled_.load(std::memory_order_acquire))
    wd_thread_ = std::thread([this] { watchdog_loop(); });
}

void ThreadEngine::stop() {
  if (!running_.exchange(false)) return;
  // Release any PE parked for a quiesce; it then sees running_ and exits.
  pause_.store(false, std::memory_order_release);
  pause_.notify_all();
  for (auto& m : mail_) m->close();
  for (auto& t : threads_) t.join();
  threads_.clear();
  if (wd_thread_.joinable()) wd_thread_.join();
}

void ThreadEngine::lock_vertex(VertexId v) {
  spin_acquire(locks_[lock_index(v)]);
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
  if (tl_pe >= 0 && src == dst) {
    // A PE thread's own task: typed, straight onto its work list.
    pes_[src]->work.push(t);
    return;
  }
  if (ChannelManager* chan = plane_.channel()) {
    std::vector<std::uint8_t> bytes = encode_task(t);
    if (src != dst) reg_.add(src, obs::Counter::kBytesSent, bytes.size());
    chan->send(src, dst, std::move(bytes), now_us());
    return;
  }
  if (tl_pe >= 0) {
    stage(src, dst, t);
    return;
  }
  // From outside the PE threads: a batch of one, delivered at once.
  std::vector<std::uint8_t> batch;
  const std::size_t at = batch_open(batch);
  append_task(batch, t);
  batch_close(batch, at);
  mail_[dst]->deliver(std::move(batch), 1);
}

void ThreadEngine::stage(PeId src, PeId dst, const Task& t) {
  OutBatch& b = pes_[src]->out[dst];
  if (b.tasks == 0) {
    b.deadline_us = now_us() + net_.reliable.batch_flush_us;
    b.bytes.reserve(net_.reliable.batch_bytes + 64);
  }
  const std::size_t at = batch_open(b.bytes);
  append_task(b.bytes, t);
  reg_.add(src, obs::Counter::kBytesSent,
           b.bytes.size() - at - kBatchPrefixSize);
  batch_close(b.bytes, at);
  ++b.tasks;
  if (b.bytes.size() >= net_.reliable.batch_bytes) flush_pair(src, dst);
}

bool ThreadEngine::admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                              std::uint64_t epoch) {
  // Only remote children spawned by a PE thread go through the summary:
  // local spawns are cheap, and external callers (root seed, tests) must
  // never be vetoed.
  if (tl_pe < 0 || child.pe == static_cast<PeId>(tl_pe)) return true;
  BoundaryShard& s =
      *summary_[child.pe * 2u + (plane == Plane::kR ? 0u : 1u)];
  bool admit = true;
  spin_acquire(s.mu);
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

void ThreadEngine::flush_pair(PeId src, PeId dst) {
  OutBatch& b = pes_[src]->out[dst];
  if (b.tasks == 0) return;
  note_batch_flush(reg_, trace_.get(), src, b.tasks, b.bytes.size(),
                   net_.reliable.batch_bytes);
  mail_[dst]->deliver(std::move(b.bytes), b.tasks);
  b.bytes = {};
  b.tasks = 0;
  b.deadline_us = 0;
}

void ThreadEngine::flush_outgoing(PeId pe, bool force) {
  // Nothing is ever staged on the channel path.
  if (plane_.channel()) return;
  std::uint64_t now = 0;
  bool now_set = false;
  for (PeId dst = 0; dst < g_.num_pes(); ++dst) {
    const OutBatch& b = pes_[pe]->out[dst];
    if (b.tasks == 0) continue;
    if (!force && b.bytes.size() < net_.reliable.batch_bytes) {
      if (!now_set) {
        now = now_us();
        now_set = true;
      }
      if (now < b.deadline_us) continue;
    }
    flush_pair(pe, dst);
  }
}

void ThreadEngine::inject(Task t) {
  const PeId pe = t.d.pe;
  std::lock_guard<std::mutex> lk(*pool_mu_[pe]);
  pools_[pe].push(t);
}

void ThreadEngine::pe_loop(PeId pe) {
  tl_pe = static_cast<int>(pe);
  PeState& me = *pes_[pe];
  std::uint64_t frames = 0;  // for periodic timer service while busy
  std::vector<Mailbox::Msg> buf;  // reused drain buffer
  ChannelManager* const chan = plane_.channel();
  // hold_task_for_test: the held task joins the list past the root's
  // return, for the safe point to find, and leaves it unrun.
  const auto hold = [&] { if (me.held) me.work.push(*me.held); };
  const auto unhold = [&] { if (me.held) me.work.clear(); };
  const auto take_mail = [&] {
    for (const Mailbox::Msg& m : buf) {
      receive(pe, pe, m);
      if (chan && (++frames & 63) == 0) chan->service(pe, now_us());
    }
    buf.clear();
  };
  while (running_.load(std::memory_order_relaxed)) {
    if (pause_.load(std::memory_order_acquire)) {
      // Only a restructure pauses: nothing is staged (quiesce_begin checks).
      hold();
      // Parked PEs block rather than yield-spin: a restructure can take a
      // millisecond, and a spinning PE burns a core for all of it.
      parked_.fetch_add(1, std::memory_order_acq_rel);
      while (pause_.load(std::memory_order_acquire))
        pause_.wait(true, std::memory_order_acquire);
      parked_.fetch_sub(1, std::memory_order_acq_rel);
      unhold();
      continue;
    }
    if (controller_->restructure_due() &&
        !restructure_claim_.test_and_set(std::memory_order_acq_rel)) {
      if (controller_->restructure_due()) {
        hold();
        controller_->run_restructure();
        unhold();
      }
      restructure_claim_.clear(std::memory_order_release);
      continue;
    }
    // Mail joins the list before anything runs, so a strong mark from a
    // peer overtakes weaker local work. One mailbox lock per pass; the
    // bounded take leaves the rest of a deep backlog where idle peers can
    // steal it.
    mail_[pe]->drain(kDrainMax, buf);
    take_mail();
    if (me.work.empty()) {
      me.depth.store(0, std::memory_order_relaxed);
      // Idle: staged batches flush now (latency floor for stragglers), and
      // idle is when retransmit timers matter — a dropped frame leaves the
      // mailbox empty until this PE re-sends it.
      flush_outgoing(pe, /*force=*/true);
      if (chan) {
        chan->flush(pe, now_us());
        chan->service(pe, now_us());
      }
      // Balance the survivors: an idle PE takes half of the deepest peer
      // backlog instead of parking — on a congested pair this turns the
      // ping-pong idle time into useful marking work.
      if (try_steal(pe, buf)) continue;
      // Nothing to run and nothing to steal: park on the mailbox condvar
      // (bounded, so pause/steal/timer polls still happen) rather than
      // yield-spinning. A polling idler on a shared core competes with the
      // busy PEs for the timeslice that would drain the very backlog it is
      // polling for.
      mail_[pe]->drain_wait(kDrainMax, buf, kIdleWaitUs);
      take_mail();
      continue;
    }
    // Publish the backlog once per pass (the per-PE hist lock is
    // uncontended: only this thread observes its slot).
    const std::uint64_t depth = me.work.size();
    const std::uint64_t total = depth + mail_[pe]->pending();
    me.depth.store(depth, std::memory_order_relaxed);
    if (total > me.high_water.load(std::memory_order_relaxed))
      me.high_water.store(total, std::memory_order_relaxed);
    reg_.observe(pe, obs::Hist::kMarkQueueDepth, static_cast<double>(total));
    // A bounded run keeps pause/restructure latency and flush staleness in
    // check.
    for (std::size_t ran = 0; ran < kDrainMax && !me.work.empty(); ++ran)
      execute(pe, me.work.pop());
    // Between runs: push out size/age-ripe batches staged by the executes
    // above (worst-case staleness is one run + batch_flush_us).
    flush_outgoing(pe, /*force=*/false);
  }
  tl_pe = -1;
}

bool ThreadEngine::try_steal(PeId pe, std::vector<Mailbox::Msg>& buf) {
  PeId victim = pe;
  std::size_t deepest = 0;
  for (PeId v = 0; v < g_.num_pes(); ++v) {
    if (v == pe) continue;
    const std::size_t pending = mail_[v]->pending();
    if (pending > deepest) {
      deepest = pending;
      victim = v;
    }
  }
  if (deepest < kStealMin) return false;
  mail_[victim]->drain(std::min<std::size_t>(deepest / 2, kDrainMax), buf);
  if (buf.empty()) return false;
  // Run the stolen tasks here. Location transparency makes this safe:
  // vertex locks are global stripes, the marker touches only t.d under its
  // lock, counters are charged to the executing PE, and the channel/fault
  // planes serialize internally — a stolen frame still runs through the
  // channel as victim's, so the (src → victim) receiver state stays
  // exactly-once regardless of which thread processes it.
  std::size_t stolen = 0;
  for (const Mailbox::Msg& m : buf) stolen += receive(pe, victim, m);
  buf.clear();
  if (stolen > 0) {
    reg_.add(pe, obs::Counter::kStealBatches);
    reg_.add(pe, obs::Counter::kStealTasks, stolen);
  }
  return true;
}

std::size_t ThreadEngine::receive(PeId pe, PeId owner,
                                  const Mailbox::Msg& msg) {
  WorkList& work = pes_[pe]->work;
  std::size_t queued = 0;
  const auto push = [&](const Task& t) {
    work.push(t);
    ++queued;
  };
  const auto now = [this] { return now_us(); };
  if (plane_.channel()) {
    plane_.receive(pe, owner, msg.bytes, now, push);
  } else if (batch_split(msg.bytes, pes_[pe]->views)) {
    for (std::span<const std::uint8_t> v : pes_[pe]->views)
      plane_.receive(pe, owner, v, now, push);
  } else {
    reg_.add(pe, obs::Counter::kMsgDecodeError);
  }
  return queued;
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
  for (std::uint32_t i : idx) spin_acquire(locks_[i]);
  fn();
  for (auto it = idx.rbegin(); it != idx.rend(); ++it)
    locks_[*it].clear(std::memory_order_release);
}

void ThreadEngine::quiesce_begin() {
  // Exclusive against external mutators...
  mutation_gate().lock();
  // ...and against the PE threads (minus the caller, if it is one). An
  // idle PE parked on its mailbox is woken rather than left to time out:
  // every µs spent here holds the mutators off the gate.
  pause_.store(true, std::memory_order_release);
  for (auto& m : mail_) m->wake();
  const std::uint32_t expected =
      g_.num_pes() - (tl_pe >= 0 ? 1u : 0u);
  while (parked_.load(std::memory_order_acquire) < expected)
    std::this_thread::yield();
  // Safe point: every PE is parked, both planes have terminated with their
  // marks still unconsumed — the one globally consistent state the
  // concurrent engine reaches. The root's return was sent only after every
  // task of the epoch ran, so none may wait anywhere (DESIGN.md,
  // "Termination"): check that always, then audit. A channel-path mailbox
  // may still hold acks and duplicates, dropped on receipt, uncounted.
  const std::uint64_t cycle = controller_->cycles_completed() + 1;
  if (const std::uint64_t left = pending_tasks())
    audit_.fail(cycle, "termination: " + std::to_string(left) +
                           " marking task(s) pending at the safe point");
  audit_.at_safe_point(cycle);
}

std::uint64_t ThreadEngine::pending_tasks() const {
  std::uint64_t n = 0;
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    n += pes_[pe]->work.size();
    for (const OutBatch& b : pes_[pe]->out) n += b.tasks;
    if (!plane_.channel()) n += mail_[pe]->pending();
  }
  return n;
}

void ThreadEngine::quiesce_end() {
  pause_.store(false, std::memory_order_release);
  pause_.notify_all();
  mutation_gate().unlock();
}

void ThreadEngine::collect_task_refs(std::vector<TaskRef>& out) {
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    std::lock_guard<std::mutex> lk(*pool_mu_[pe]);
    pools_[pe].for_each_ref([&](TaskRef r) { out.push_back(r); });
  }
}

void ThreadEngine::collect_task_endpoints(std::vector<TaskEndpoint>& out) {
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    std::lock_guard<std::mutex> lk(*pool_mu_[pe]);
    pools_[pe].for_each_endpoint(
        [&](VertexId v) { out.push_back(TaskEndpoint{pe, v}); });
  }
}

TaskRestructure ThreadEngine::restructure_tasks(
    const std::function<bool(VertexId)>& kill,
    const std::function<std::uint8_t(VertexId)>& prio) {
  TaskRestructure r;
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    std::lock_guard<std::mutex> lk(*pool_mu_[pe]);
    r += pools_[pe].restructure(kill, prio);
  }
  return r;
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

void ThreadEngine::watchdog_loop() {
  std::uint64_t last_progress = 0;
  std::uint32_t stalled = 0;
  bool stall_reported = false;
  // Marker::rescue_waves counts one run of a plane and restarts at 0 when
  // the plane begins again, so the per-cycle base is kept per plane and
  // dropped once that plane's count goes backwards.
  std::uint64_t rescue_base[2] = {};
  const auto cycle_rescues = [&] {
    std::uint64_t waves = 0;
    for (const Plane p : {Plane::kR, Plane::kT}) {
      const std::uint64_t n = marker_->rescue_waves(p);
      std::uint64_t& base = rescue_base[static_cast<int>(p)];
      if (n < base) base = 0;
      waves += n - base;
    }
    return waves;
  };
  const auto rebase_rescues = [&] {
    for (const Plane p : {Plane::kR, Plane::kT})
      rescue_base[static_cast<int>(p)] = marker_->rescue_waves(p);
  };
  rebase_rescues();
  std::uint64_t last_cycle = controller_->cycles_completed();
  bool rescue_reported = false;
  std::vector<bool> mailbox_reported(g_.num_pes(), false);
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(wd_opt_.interval_ms));
    // Mailbox saturation, edge-triggered per PE (re-arms once the backlog
    // halves, so a persistently saturated mailbox warns once, not per tick).
    for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
      const std::uint64_t depth = backlog(pe);
      if (depth >= wd_opt_.mailbox_saturation) {
        if (!mailbox_reported[pe]) {
          mailbox_reported[pe] = true;
          warn(obs::HealthKind::kMailboxSaturated, pe, depth);
        }
      } else if (depth < wd_opt_.mailbox_saturation / 2) {
        mailbox_reported[pe] = false;
      }
    }
    // Per-cycle trackers reset when a new cycle begins.
    const std::uint64_t cyc = controller_->cycles_completed();
    if (cyc != last_cycle) {
      last_cycle = cyc;
      rebase_rescues();
      rescue_reported = false;
      stalled = 0;
      stall_reported = false;
    }
    // Rescue storm: the supplementary-wave loop is churning, which means
    // mutators acquire references faster than waves can absorb them.
    const std::uint64_t waves = cycle_rescues();
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
                                   marker_->rescue_waves(Plane::kR) +
                                   marker_->rescue_waves(Plane::kT);
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
  if (!trace_) {
    trace_ = std::make_unique<obs::TraceBuffer>(capacity);
    trace_->set_clock([this] { return now_us(); });
    marker_->set_trace(trace_.get());
    mutator_->set_trace(trace_.get());
    controller_->set_trace(trace_.get());
    plane_.set_trace(trace_.get());
    audit_.set_trace(trace_.get());
  }
  return trace_.get();
}

ThreadEngineStats ThreadEngine::stats() const {
  ThreadEngineStats s;
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    s.mailbox_high_water = std::max(
        {s.mailbox_high_water, mail_[pe]->high_water(),
         pes_[pe]->high_water.load(std::memory_order_relaxed)});
  return s;
}

}  // namespace dgr
