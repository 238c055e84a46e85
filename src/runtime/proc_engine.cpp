#include "runtime/proc_engine.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "net/wire.h"
#include "util/assert.h"
#include "util/log.h"

namespace dgr {

namespace {
// Distinguishes concurrent ProcEngines in one test binary: each hub needs its
// own Unix-domain socket path.
std::atomic<std::uint32_t> g_hub_serial{0};
// How long start() waits for every launched worker to register.
constexpr int kRegisterTimeoutMs = 10000;
// Every Nth handoff per worker is a full snapshot even when a delta would do
// — bounds how long a silent divergence could go unnoticed between checksum
// handshakes.
constexpr std::uint64_t kFullHandoffPeriod = 64;
}  // namespace

ProcEngine::ProcEngine(Graph& g, ProcOptions opt)
    : g_(g),
      opt_(std::move(opt)),
      num_workers_(std::min(opt_.workers == 0 ? 1u : opt_.workers,
                            g.num_pes())),
      marker_(std::make_unique<Marker>(g, *this)),
      metrics_(g.num_pes()),
      t0_(std::chrono::steady_clock::now()),
      audit_(g, *marker_) {
  clock_.resize(num_workers_);
  tele_.resize(num_workers_);
  worker_events_.resize(num_workers_);
  mutator_ = std::make_unique<Mutator>(g_, *marker_);
  controller_ =
      std::make_unique<Controller>(g_, *marker_, *this, VertexId::invalid());
  // Restructuring runs inline on the hub reader thread that merged the final
  // mark report — no vertex lock is held there (the controller executes no
  // marking tasks itself), so deferral is unnecessary.

  // Contiguous PE blocks, remainder spread over the first workers.
  const std::uint32_t base = g_.num_pes() / num_workers_;
  const std::uint32_t rem = g_.num_pes() % num_workers_;
  slots_.resize(num_workers_);
  PeId begin = 0;
  for (std::uint32_t w = 0; w < num_workers_; ++w) {
    slots_[w].pe_begin = begin;
    slots_[w].pe_count = base + (w < rem ? 1 : 0);
    for (std::uint32_t i = 0; i < slots_[w].pe_count; ++i)
      slots_[w].pes.push_back(begin + i);
    begin += slots_[w].pe_count;
  }
  sent_seq_.assign(num_workers_, 0);
  acked_seq_.assign(num_workers_, 0);
  force_full_.assign(num_workers_, 1);  // first handoff is always a snapshot
  reported_.assign(num_workers_, 0);

  pools_.resize(g_.num_pes());

  // Rescue waves reopen the plane before any seed is spawned; replicas must
  // learn both (and the controller-minted rescue root's record, which the
  // plane handoff may never have shipped) before the seeds arrive.
  marker_->set_rescue_seed_hook(
      [this](Plane p, VertexId root, std::size_t /*seeds*/) {
        NetFrame f;
        f.type = FrameType::kRescueBegin;
        f.gen = gen_;
        f.payload = encode_rescue_begin(p, marker_->epoch(p), root,
                                        g_.at(root));
        hub_.broadcast(f);
        ++stats_.rescue_begins;
      });
}

ProcEngine::~ProcEngine() { stop(); }

WorkerConfig ProcEngine::make_config(std::uint32_t worker) const {
  WorkerConfig c;
  c.num_pes = g_.num_pes();
  c.pe_begin = slots_[worker].pe_begin;
  c.pe_count = slots_[worker].pe_count;
  c.net = opt_.net;
  c.net.faults.seed += worker;  // distinct chaos per worker
  c.trace_enabled = worker_trace_;
  c.trace_capacity = trace_capacity_;
  return c;
}

void ProcEngine::start() {
  DGR_CHECK_MSG(!started_, "ProcEngine::start called twice");
  started_ = true;
  // No prewarm_aux_roots here: the controller mints every aux root it needs
  // (taskroots, troot, uroot) before on_plane_begin fires, so the handoff
  // always ships them, and this engine's mutators run between cycles, so
  // lazy minting races nothing.

  hub_.set_control_handler([this](std::uint32_t worker, NetFrame f) {
    handle_control(worker, std::move(f));
  });
  hub_.set_worker_lost([this](std::uint32_t worker) {
    if (stopping_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::recursive_mutex> lk(mu_);
    on_worker_lost(worker);
  });

  SocketAddr addr;
  if (opt_.tcp) {
    DGR_CHECK(SocketAddr::parse("tcp:127.0.0.1:0", addr));
  } else {
    addr.path = "/tmp/dgr-hub-" + std::to_string(::getpid()) + "-" +
                std::to_string(g_hub_serial.fetch_add(1)) + ".sock";
  }
  const bool up = hub_.listen(addr, [this](const RegisterMsg& reg) {
    SocketHub::Decision d;
    if (reg.proto_version != kProtoVersion) {
      d.reject.code = 1;
      d.reject.reason = "unsupported protocol version " +
                        std::to_string(reg.proto_version);
      return d;
    }
    if (reg.worker_index >= num_workers_) {
      d.reject.code = 3;
      d.reject.reason = "worker index out of range";
      return d;
    }
    // The policy runs under the hub lock only (lock order mu_ → hub forbids
    // taking mu_ here); dead_mask_ mirrors slot liveness for exactly this
    // check. A fenced slot stays fenced: its partition has been reassigned,
    // so a late reconnect would resurrect a stale replica.
    if (reg.worker_index < 64 &&
        (dead_mask_.load(std::memory_order_acquire) &
         (1ull << reg.worker_index))) {
      d.reject.code = 4;
      d.reject.reason = "worker slot fenced after loss";
      return d;
    }
    d.accept = true;
    d.ack.worker_index = reg.worker_index;
    d.ack.num_workers = num_workers_;
    d.ack.config = make_config(reg.worker_index);
    return d;
  });
  DGR_CHECK_MSG(up, "hub listen failed");

  for (std::uint32_t w = 0; w < num_workers_; ++w) spawn_worker(w);
  DGR_CHECK_MSG(hub_.wait_workers(num_workers_, kRegisterTimeoutMs),
                "workers did not register in time");

  // First clock probes right after registration, while the wire is quiet —
  // usually the tightest (min-RTT) sample of the whole run. Refreshed at
  // every plane begin.
  for (std::uint32_t w = 0; w < num_workers_; ++w) send_clock_probe(w);

  touch_progress();
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void ProcEngine::send_clock_probe(std::uint32_t worker) {
  ClockProbeMsg p;
  p.seq = ++clock_seq_;
  p.t_controller_us = now_us();
  NetFrame f;
  f.type = FrameType::kClockProbe;
  f.payload = encode_clock_probe(p);
  hub_.send_to_worker(worker, f);
}

void ProcEngine::spawn_worker(std::uint32_t worker) {
  std::string bin = opt_.worker_bin;
  if (bin.empty()) {
    if (const char* env = std::getenv("DGR_WORKER_BIN")) bin = env;
  }
  if (bin.empty()) bin = "dgr_worker";

  const std::string addr = hub_.address();
  const std::string index = std::to_string(worker);
  const pid_t pid = ::fork();
  DGR_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    const char* argv[] = {bin.c_str(),   "--connect", addr.c_str(),
                          "--index",     index.c_str(), nullptr};
    ::execvp(bin.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);  // exec failure; the registration timeout reports it
  }
  slots_[worker].pid = pid;
}

void ProcEngine::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  NetFrame f;
  f.type = FrameType::kShutdown;
  hub_.broadcast(f);
  // Workers exit on kShutdown; give them a grace window, then insist.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  for (WorkerSlot& s : slots_) {
    while (s.pid > 0) {
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(s.pid), &status, WNOHANG);
      if (r == static_cast<pid_t>(s.pid) || r < 0) {
        s.pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(static_cast<pid_t>(s.pid), SIGKILL);
        ::waitpid(static_cast<pid_t>(s.pid), &status, 0);
        s.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  hub_.close();
  started_ = false;
}

void ProcEngine::wait_quiescent() {
  // An idle controller is confirmed under mu_: a recovery aborts the cycle
  // and restarts it inside one mu_ section (fence_and_restart), so read
  // without the lock the controller can look idle mid-restart.
  while (!failed_.load(std::memory_order_acquire)) {
    if (controller_->idle()) {
      std::lock_guard<std::recursive_mutex> lk(mu_);
      if (controller_->idle()) return;
    }
    std::this_thread::yield();
  }
}

void ProcEngine::wait_cycle_done() { wait_quiescent(); }

void ProcEngine::start_cycle(const CycleOptions& opt) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  controller_->start_cycle(opt);
}

std::uint16_t ProcEngine::membership_gen() const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return gen_;
}

std::uint32_t ProcEngine::workers_live() const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return live_count_locked();
}

bool ProcEngine::worker_alive(std::uint32_t worker) const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return worker < slots_.size() && slots_[worker].alive;
}

long ProcEngine::worker_pid(std::uint32_t worker) const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return worker < slots_.size() ? slots_[worker].pid : -1;
}

std::uint32_t ProcEngine::live_count_locked() const {
  std::uint32_t n = 0;
  for (const WorkerSlot& s : slots_)
    if (s.alive) ++n;
  return n;
}

void ProcEngine::inject(Task t) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  pools_[t.d.pe].push(t);
}

void ProcEngine::on_plane_begin(Plane p) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  // The graph is final for this wave but the epoch has not been bumped yet —
  // exactly the state the replicas must copy. kPlaneBegin (with the bumped
  // epoch) follows at the first seed spawn; per-connection FIFO queues keep
  // the order handoff → begin → seed on every worker's wire.
  tracker_.scan(g_);
  ++handoff_count_;
  const bool periodic = handoff_count_ % kFullHandoffPeriod == 0;
  std::vector<std::uint8_t> owned(g_.num_pes(), 0);
  for (std::uint32_t w = 0; w < num_workers_; ++w) {
    if (!slots_[w].alive) continue;
    std::fill(owned.begin(), owned.end(), std::uint8_t{0});
    for (PeId pe : slots_[w].pes) owned[pe] = 1;
    // An unacked previous handoff (sent ≠ acked) forces a snapshot too: the
    // delta baseline would be the controller's guess, not the worker's view.
    const bool force = periodic || force_full_[w] != 0 ||
                       sent_seq_[w] != acked_seq_[w];
    std::uint8_t kind = kHandoffFull;
    NetFrame f;
    f.type = FrameType::kHandoff;
    f.gen = gen_;
    f.payload = tracker_.encode(g_, owned, acked_seq_[w], force, &kind);
    const std::uint64_t bytes = f.payload.size();
    stats_.handoff_bytes += bytes;
    ++stats_.handoffs_sent;
    slots_[w].handoff_bytes += bytes;
    const PeId home = home_pe(w);
    if (kind == kHandoffDelta) {
      ++stats_.handoffs_delta;
      stats_.handoff_delta_bytes += bytes;
      slots_[w].handoff_delta_bytes += bytes;
      metrics_.add(home, obs::Counter::kHandoffDeltaBytes, bytes);
    } else {
      ++stats_.handoffs_full;
      stats_.handoff_full_bytes += bytes;
      slots_[w].handoff_full_bytes += bytes;
      metrics_.add(home, obs::Counter::kHandoffFullBytes, bytes);
    }
    metrics_.add(home, obs::Counter::kHandoffBytes, bytes);
    sent_seq_[w] = tracker_.seq();
    force_full_[w] = 0;
    hub_.send_to_worker(w, f);
    send_clock_probe(w);
  }
  begin_pending_ = true;
  begin_plane_ = p;
}

void ProcEngine::spawn(Task t) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  if (!task_is_marking(t.kind)) {
    pools_[t.d.pe].push(t);
    return;
  }
  if (begin_pending_) {
    begin_pending_ = false;
    NetFrame bf;
    bf.type = FrameType::kPlaneBegin;
    bf.gen = gen_;
    bf.payload =
        encode_plane_signal(begin_plane_, marker_->epoch(begin_plane_));
    hub_.broadcast(bf);
    ++stats_.planes_started;
  }
  NetFrame f;
  f.type = FrameType::kSeed;
  f.gen = gen_;
  f.src = t.s.valid() && !t.s.is_rootpar() ? t.s.pe : t.d.pe;
  f.dst = t.d.pe;
  f.payload = encode_task(t);
  hub_.send_to_endpoint_owner(f);
  ++stats_.seeds_sent;
}

void ProcEngine::handle_control(std::uint32_t worker, NetFrame f) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  // A fenced worker's frames may still drain out of the hub queue after the
  // loss was declared (or after the watchdog dropped it); they are void.
  if (worker >= slots_.size() || !slots_[worker].alive) return;
  touch_progress();
  switch (f.type) {
    case FrameType::kPlaneDone: {
      Plane plane;
      std::uint64_t epoch = 0;
      if (!decode_plane_signal(f.payload, plane, epoch)) {
        DGR_ERROR("worker %u: malformed kPlaneDone", worker);
        failed_.store(true, std::memory_order_release);
        return;
      }
      // Stale or duplicate termination reports are ignorable: each wave's
      // rootpar return is observed by exactly one worker, but a retransmit
      // path could replay the frame — and an aborted wave can leave one in
      // flight across a membership fence.
      if (!marker_->active(plane) || epoch != marker_->epoch(plane) ||
          collecting_)
        return;
      collecting_ = true;
      collect_plane_ = plane;
      collect_epoch_ = epoch;
      reports_in_ = 0;
      reported_.assign(num_workers_, 0);
      collect_stats_.reset();
      NetFrame q;
      q.type = FrameType::kQuiesce;
      q.gen = gen_;
      q.payload = encode_plane_signal(plane, epoch);
      hub_.broadcast(q);
      return;
    }
    case FrameType::kMarkReport: {
      if (!collecting_) return;  // late duplicate
      {
        // Peek the report's plane/epoch before merging: a wave aborted by a
        // membership fence leaves reports in flight that reach here after
        // the next wave opened collection. Those are stale, not malformed —
        // drop them silently (apply_mark_report would reject the mismatch,
        // and treating that as fatal would fail every recovery).
        ByteReader r(f.payload);
        const std::uint8_t p = r.u8();
        const std::uint64_t epoch = r.u64();
        if (!r.ok() || static_cast<Plane>(p) != collect_plane_ ||
            epoch != collect_epoch_)
          return;
      }
      if (reported_[worker]) return;  // duplicate within the wave
      MarkStats s;
      if (!apply_mark_report(f.payload, g_, collect_plane_, collect_epoch_,
                             s)) {
        DGR_ERROR("worker %u: mark report rejected", worker);
        failed_.store(true, std::memory_order_release);
        return;
      }
      reported_[worker] = 1;
      collect_stats_.marks += s.marks.load(std::memory_order_relaxed);
      collect_stats_.returns += s.returns.load(std::memory_order_relaxed);
      collect_stats_.remarks += s.remarks.load(std::memory_order_relaxed);
      collect_stats_.coop_spawns +=
          s.coop_spawns.load(std::memory_order_relaxed);
      ++stats_.reports_merged;
      if (++reports_in_ < live_count_locked()) return;
      // Every partition's marks are in the authoritative graph: adopt the
      // remote termination. The controller cascade continues from here —
      // rescue wave, the M_R plane, or the restructuring phase — still under
      // mu_, so no mutation or report interleaves.
      collecting_ = false;
      marker_->add_remote_stats(collect_plane_, collect_stats_);
      marker_->finish_remote(collect_plane_);
      return;
    }
    case FrameType::kHandoffAck: {
      HandoffAckMsg ack;
      if (!decode_handoff_ack(f.payload, ack)) {
        DGR_ERROR("worker %u: malformed kHandoffAck", worker);
        failed_.store(true, std::memory_order_release);
        return;
      }
      if (ack.ok) {
        if (ack.seq > acked_seq_[worker]) acked_seq_[worker] = ack.seq;
        return;
      }
      // Checksum mismatch: the replica diverged from the authoritative
      // structure. Fence the membership generation (voiding the wave the
      // bad replica may already be marking) and force a full resync; the
      // worker itself keeps its slot — unlike a loss, no repartition.
      DGR_ERROR("worker %u: handoff %llu checksum mismatch, forcing resync",
                worker, (unsigned long long)ack.seq);
      ++stats_.handoff_resyncs;
      metrics_.add(home_pe(worker), obs::Counter::kHandoffResyncs);
      DGR_TRACE_EVENT(trace_.get(), obs::EventType::kHandoffResync,
                      Plane::kR, home_pe(worker), worker, ack.seq);
      acked_seq_[worker] = 0;
      force_full_[worker] = 1;
      fence_and_restart();
      return;
    }
    case FrameType::kTelemetry: {
      TelemetryMsg m;
      if (!decode_telemetry(f.payload, m)) {
        DGR_ERROR("worker %u: malformed kTelemetry", worker);
        failed_.store(true, std::memory_order_release);
        return;
      }
      // Fold the worker's registry delta into the merged per-PE view. The
      // codec validated counter/hist/event-type ids; PE range is validated
      // here against the authoritative graph.
      for (const auto& c : m.counters)
        if (c.pe < g_.num_pes())
          metrics_.add(c.pe, static_cast<obs::Counter>(c.counter), c.delta);
      for (const auto& h : m.hists) {
        if (h.pe >= g_.num_pes()) continue;
        for (const auto& [bucket, n] : h.buckets)
          metrics_.merge_hist_bucket(h.pe, static_cast<obs::Hist>(h.hist),
                                     bucket, n, h.max);
      }
      WorkerTele& t = tele_[worker];
      ++t.telemetry_msgs;
      t.ring_dropped += m.ring_dropped;
      t.events_omitted += m.events_omitted;
      metrics_.add(home_pe(worker), obs::Counter::kTelemetryMsgs);
      const std::uint64_t lost = m.ring_dropped + m.events_omitted;
      if (lost)
        metrics_.add(home_pe(worker), obs::Counter::kTelemetryDropped,
                     lost);
      auto& ev = worker_events_[worker];
      ev.insert(ev.end(), m.events.begin(), m.events.end());
      if (lost) {
        // Make the loss visible inside the trace itself, stamped at the
        // lane's current tail so the lane stays monotone after rebase.
        const std::uint64_t ts = ev.empty() ? 0 : ev.back().ts;
        ev.push_back(obs::make_drop_event(
            ts, 0, static_cast<std::uint16_t>(m.pe_begin), m.ring_dropped,
            m.events_omitted));
      }
      return;
    }
    case FrameType::kClockEcho: {
      ClockEchoMsg echo;
      if (!decode_clock_echo(f.payload, echo)) {
        DGR_ERROR("worker %u: malformed kClockEcho", worker);
        failed_.store(true, std::memory_order_release);
        return;
      }
      clock_[worker].on_echo(echo.t_controller_us, now_us(),
                             echo.t_worker_us);
      return;
    }
    default:
      DGR_ERROR("worker %u: unexpected control frame %s", worker,
                frame_type_name(f.type));
      failed_.store(true, std::memory_order_release);
  }
}

void ProcEngine::on_worker_lost(std::uint32_t worker) {
  // Caller holds mu_. Runs on the dead connection's hub reader thread (its
  // last act before exiting), or recursively via a watchdog-forced drop.
  if (worker >= slots_.size() || !slots_[worker].alive) return;
  WorkerSlot& s = slots_[worker];
  s.alive = false;
  if (worker < 64)
    dead_mask_.fetch_or(1ull << worker, std::memory_order_release);
  ++stats_.workers_lost;
  const PeId home = home_pe(worker);
  metrics_.add(home, obs::Counter::kWorkerLost);
  const std::uint32_t live = live_count_locked();
  if (live == 0) {
    DGR_ERROR("worker %u lost; no survivors, run failed", worker);
    failed_.store(true, std::memory_order_release);
    return;
  }
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kWorkerLost, Plane::kR, home,
                  worker, gen_ + 1);
  const std::vector<PeId> moved = repartition_onto_survivors();
  std::string names;
  for (PeId pe : moved) {
    if (!names.empty()) names += ',';
    names += std::to_string(pe);
  }
  DGR_ERROR("worker %u lost (gen %u → %u); PEs {%s} reassigned onto %u "
            "survivors",
            worker, (unsigned)gen_, (unsigned)(gen_ + 1), names.c_str(), live);
  fence_and_restart();
}

std::vector<PeId> ProcEngine::repartition_onto_survivors() {
  // Caller holds mu_. Survivors keep the PEs they hold; only the dead
  // workers' PEs move. Each goes to the survivor holding the fewest PEs,
  // ties broken by the cross-PE argument edges between it and that
  // survivor's PEs (hot PE pairs co-locate), then by worker index. Fewest-first hands an idle survivor a PE before any
  // busy one gets a second, so no survivor sits idle while PEs remain to
  // share. Returns the PEs whose owner changed, in ascending order.
  std::vector<std::uint32_t> survivors;
  std::vector<PeId> moved;
  for (std::uint32_t w = 0; w < num_workers_; ++w) {
    if (slots_[w].alive) {
      survivors.push_back(w);
    } else {
      moved.insert(moved.end(), slots_[w].pes.begin(), slots_[w].pes.end());
      slots_[w].pes.clear();
    }
  }
  DGR_CHECK(!survivors.empty());
  std::sort(moved.begin(), moved.end());
  const std::uint32_t P = g_.num_pes();
  std::vector<std::uint64_t> weight;  // [a * P + b]: edges between PEs a, b
  if (!moved.empty()) {
    weight.assign(std::size_t{P} * P, 0);
    g_.for_each_live([&](VertexId v) {
      for (const ArgEdge& e : g_.at(v).args) {
        if (!e.to.valid() || e.to.pe == v.pe) continue;
        ++weight[std::size_t{v.pe} * P + e.to.pe];
        ++weight[std::size_t{e.to.pe} * P + v.pe];
      }
    });
  }
  for (const PeId pe : moved) {
    std::uint32_t best = survivors[0];
    std::size_t best_n = SIZE_MAX;
    std::uint64_t best_w = 0;
    for (const std::uint32_t w : survivors) {
      const std::size_t n = slots_[w].pes.size();
      std::uint64_t wt = 0;
      for (const PeId q : slots_[w].pes) wt += weight[std::size_t{pe} * P + q];
      if (n < best_n || (n == best_n && wt > best_w)) {
        best = w;
        best_n = n;
        best_w = wt;
      }
    }
    std::vector<PeId>& owned = slots_[best].pes;
    owned.insert(std::upper_bound(owned.begin(), owned.end(), pe), pe);
    hub_.set_endpoint_owner(pe, best);
  }
  stats_.partitions_reassigned += moved.size();
  metrics_.add(home_pe(survivors[0]), obs::Counter::kPartitionReassigned,
               moved.size());
  DGR_TRACE_EVENT(trace_.get(), obs::EventType::kPartitionReassign, Plane::kR,
                  0, moved.size(), survivors.size());
  return moved;
}

void ProcEngine::fence_and_restart() {
  // Caller holds mu_. Bump the membership generation and broadcast the
  // fence; per-connection FIFO guarantees every survivor sees it before any
  // frame of the restarted wave, and receivers void kData/kSeed stamped with
  // the old generation — no ack round is needed.
  ++gen_;
  NetFrame fence;
  fence.type = FrameType::kEpochFence;
  fence.gen = gen_;
  hub_.broadcast(fence);
  // Ownership may have changed and the workers' delta baselines are no
  // longer trusted across a fence: next handoff is a snapshot for everyone.
  for (std::uint32_t w = 0; w < num_workers_; ++w) {
    force_full_[w] = 1;
    acked_seq_[w] = 0;
    sent_seq_[w] = 0;
  }
  collecting_ = false;
  begin_pending_ = false;
  reported_.assign(num_workers_, 0);
  probing_ = false;
  touch_progress();
  ++stats_.recoveries;
  if (!controller_->idle()) {
    // Resume from the last completed quiesce: abandon the in-flight cycle
    // (stale marks are voided by the epoch bump of the restart) and re-run
    // it with the same options. start_cycle re-enters on_plane_begin/spawn
    // recursively under mu_, so the whole restart is atomic with the fence.
    const CycleOptions opt = controller_->current_options();
    controller_->abort_cycle();
    controller_->start_cycle(opt);
  }
}

void ProcEngine::watchdog_loop() {
  const auto window_us =
      static_cast<std::uint64_t>(opt_.barrier_timeout_ms) * 1000;
  const auto poll = std::chrono::milliseconds(
      std::max(1, std::min(opt_.barrier_timeout_ms / 4, 50)));
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    std::vector<std::uint32_t> to_drop;
    {
      std::lock_guard<std::recursive_mutex> lk(mu_);
      if (failed_.load(std::memory_order_acquire)) return;
      if (controller_->idle()) {
        probing_ = false;
        continue;
      }
      const std::uint64_t now = now_us();
      if (!probing_) {
        if (now - last_progress_us_.load(std::memory_order_acquire) <
            window_us)
          continue;
        // First deadline: the cycle stalled. Probe every live worker (clock
        // probes double as liveness pings) and snapshot their echo counts;
        // the verdict comes one window later. probing_ is NOT reset by
        // progress touches — one chatty worker must not mask another's
        // death behind a moving deadline.
        probing_ = true;
        probe_deadline_us_ = now + window_us;
        probe_snapshot_.assign(num_workers_, 0);
        for (std::uint32_t w = 0; w < num_workers_; ++w) {
          if (!slots_[w].alive) continue;
          probe_snapshot_[w] = clock_[w].samples();
          send_clock_probe(w);
        }
        continue;
      }
      if (now < probe_deadline_us_) continue;
      // Second deadline: drop workers that neither echoed the probe nor
      // reported for the wave being collected. Covers a worker that dies
      // between registration and its first mark report (no frame of its
      // ever arrives) and a wedged-but-connected process alike.
      for (std::uint32_t w = 0; w < num_workers_; ++w) {
        if (!slots_[w].alive) continue;
        const bool echoed = clock_[w].samples() > probe_snapshot_[w];
        const bool reported = collecting_ && reported_[w];
        if (!echoed && !reported) to_drop.push_back(w);
      }
      probing_ = false;
      touch_progress();
    }
    for (std::uint32_t w : to_drop) {
      DGR_ERROR("watchdog: worker %u missed the quiesce-barrier deadline, "
                "dropping",
                w);
      // Forces EOF on the connection; the reader thread then runs the same
      // on_worker_lost path a crashed worker would.
      hub_.drop_worker(w);
    }
  }
}

void ProcEngine::collect_task_refs(std::vector<TaskRef>& out) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  for (const TaskIndex& p : pools_)
    p.for_each_ref([&](TaskRef r) { out.push_back(r); });
}

void ProcEngine::collect_task_endpoints(std::vector<TaskEndpoint>& out) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    pools_[pe].for_each_endpoint(
        [&](VertexId v) { out.push_back(TaskEndpoint{pe, v}); });
}

TaskRestructure ProcEngine::restructure_tasks(
    const std::function<bool(VertexId)>& kill,
    const std::function<std::uint8_t(VertexId)>& prio) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  TaskRestructure r;
  for (TaskIndex& p : pools_) r += p.restructure(kill, prio);
  return r;
}

void ProcEngine::atomically(std::initializer_list<VertexId> /*vs*/,
                            const std::function<void()>& fn) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  fn();
}

void ProcEngine::atomically(std::span<const VertexId> /*vs*/,
                            const std::function<void()>& fn) {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  fn();
}

// Same safe point as the threaded engine, reached differently: every
// worker's kMarkReport for the wave has been merged, so the authoritative
// graph holds the complete terminated marking.
void ProcEngine::quiesce_begin() {
  audit_.at_safe_point(controller_->cycles_completed() + 1);
}

obs::TraceBuffer* ProcEngine::enable_trace(std::size_t capacity) {
  if (!trace_) {
    trace_ = std::make_unique<obs::TraceBuffer>(capacity);
    trace_->set_clock([this] { return now_us(); });
    marker_->set_trace(trace_.get());
    mutator_->set_trace(trace_.get());
    controller_->set_trace(trace_.get());
    audit_.set_trace(trace_.get());
    worker_trace_ = true;
    trace_capacity_ = static_cast<std::uint32_t>(capacity);
  }
  return trace_.get();
}

std::vector<std::vector<obs::TraceEvent>> ProcEngine::worker_traces() const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  std::vector<std::vector<obs::TraceEvent>> out = worker_events_;
  for (std::uint32_t w = 0; w < num_workers_; ++w)
    for (obs::TraceEvent& e : out[w]) e.ts = clock_[w].rebase(e.ts);
  return out;
}

std::int64_t ProcEngine::clock_offset_us(std::uint32_t worker) const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return worker < clock_.size() ? clock_[worker].offset_us() : 0;
}

std::uint64_t ProcEngine::clock_rtt_us(std::uint32_t worker) const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return worker < clock_.size() ? clock_[worker].rtt_us() : 0;
}

std::uint64_t ProcEngine::clock_samples(std::uint32_t worker) const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  return worker < clock_.size() ? clock_[worker].samples() : 0;
}

std::string ProcEngine::cluster_metrics_json() const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  const std::vector<SocketHub::RelayCount> relay = hub_.relay_by_worker();
  // Per-worker sums over the (possibly non-contiguous) owned PE set of the
  // merged registry.
  auto range_sum = [&](std::uint32_t w, obs::Counter c) {
    std::uint64_t n = 0;
    for (PeId pe : slots_[w].pes) n += metrics_.get(pe, c);
    return n;
  };
  std::string out = metrics_.to_json();
  out.pop_back();  // reopen the registry object to append the rollup
  char buf[640];
  std::snprintf(buf, sizeof(buf), ",\"num_workers\":%u,\"workers\":[",
                num_workers_);
  out += buf;
  for (std::uint32_t w = 0; w < num_workers_; ++w) {
    const std::uint64_t rf = w < relay.size() ? relay[w].frames : 0;
    const std::uint64_t rb = w < relay.size() ? relay[w].bytes : 0;
    // The owned set, which a recovery can leave non-contiguous or empty;
    // pe_begin/pe_count alone cannot say which PEs a worker holds.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"worker\":%u,\"pe_begin\":%u,\"pe_count\":%u,"
                  "\"owned_pes\":[",
                  w == 0 ? "" : ",", w, slots_[w].pe_begin,
                  static_cast<std::uint32_t>(slots_[w].pes.size()));
    out += buf;
    for (std::size_t i = 0; i < slots_[w].pes.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(slots_[w].pes[i]);
    }
    std::snprintf(
        buf, sizeof(buf),
        "],\"alive\":%s,"
        "\"marks\":%llu,\"returns\":%llu,\"remote_messages\":%llu,"
        "\"retransmits\":%llu,\"handoff_bytes\":%llu,"
        "\"handoff_full_bytes\":%llu,\"handoff_delta_bytes\":%llu,"
        "\"relayed_frames\":%llu,\"relayed_bytes\":%llu,"
        "\"telemetry_msgs\":%llu,\"telemetry_dropped\":%llu,"
        "\"clock_offset_us\":%lld,\"clock_rtt_us\":%llu}",
        slots_[w].alive ? "true" : "false",
        (unsigned long long)range_sum(w, obs::Counter::kMarkTasks),
        (unsigned long long)range_sum(w, obs::Counter::kReturnTasks),
        (unsigned long long)range_sum(w, obs::Counter::kRemoteMessages),
        (unsigned long long)range_sum(w, obs::Counter::kMsgRetransmit),
        (unsigned long long)slots_[w].handoff_bytes,
        (unsigned long long)slots_[w].handoff_full_bytes,
        (unsigned long long)slots_[w].handoff_delta_bytes,
        (unsigned long long)rf, (unsigned long long)rb,
        (unsigned long long)tele_[w].telemetry_msgs,
        (unsigned long long)(tele_[w].ring_dropped +
                             tele_[w].events_omitted),
        (long long)clock_[w].offset_us(),
        (unsigned long long)clock_[w].rtt_us());
    out += buf;
  }
  out += "]";
  std::snprintf(
      buf, sizeof(buf),
      ",\"membership\":{\"gen\":%u,\"workers_total\":%u,\"workers_live\":%u,"
      "\"worker_lost\":%llu,\"partition_reassigned\":%llu,"
      "\"handoff_resyncs\":%llu,\"recoveries\":%llu,"
      "\"handoffs_full\":%llu,\"handoffs_delta\":%llu}",
      (unsigned)gen_, num_workers_, live_count_locked(),
      (unsigned long long)stats_.workers_lost,
      (unsigned long long)stats_.partitions_reassigned,
      (unsigned long long)stats_.handoff_resyncs,
      (unsigned long long)stats_.recoveries,
      (unsigned long long)stats_.handoffs_full,
      (unsigned long long)stats_.handoffs_delta);
  out += buf;
  out += "}";
  return out;
}

ProcEngineStats ProcEngine::stats() const {
  std::lock_guard<std::recursive_mutex> lk(mu_);
  ProcEngineStats s = stats_;
  s.transport = hub_.stats();
  return s;
}

}  // namespace dgr
