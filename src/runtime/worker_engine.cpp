#include "runtime/worker_engine.h"

#include <poll.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/wire.h"
#include "util/assert.h"
#include "util/log.h"

namespace dgr {

WorkerEngine::WorkerEngine(Socket sock, FrameCodec codec,
                           std::uint32_t worker_index, WorkerConfig cfg)
    : sock_(std::move(sock)),
      codec_(std::move(codec)),
      index_(worker_index),
      cfg_(cfg),
      g_(cfg.num_pes, 1),
      marker_(g_, *this),
      t0_(std::chrono::steady_clock::now()),
      reg_(cfg.num_pes),
      plane_(make_message_plane()) {
  owned_.assign(cfg_.num_pes, 0);
  out_.resize(cfg_.num_pes);
  for (std::uint32_t pe = cfg_.pe_begin; pe < cfg_.pe_begin + cfg_.pe_count;
       ++pe)
    owned_[pe] = 1;
  rebuild_owned_list();
  if (const char* env = std::getenv("DGR_TEST_CORRUPT_HANDOFF")) {
    unsigned w = 0;
    unsigned long long n = 0;
    if (std::sscanf(env, "%u:%llu", &w, &n) == 2 && w == index_)
      corrupt_after_ = n;
  }
  prev_counters_.resize(cfg_.num_pes);
  for (auto& row : prev_counters_) row.fill(0);
  prev_hists_.resize(static_cast<std::size_t>(cfg_.num_pes) * obs::kNumHists);
  if (cfg_.trace_enabled) {
    trace_ = std::make_unique<obs::TraceBuffer>(cfg_.trace_capacity);
    trace_->set_clock([this] { return now_us(); });
    marker_.set_trace(trace_.get());
    plane_.set_trace(trace_.get());
  }
  // Termination detection runs here when this worker owns the collapsing
  // root: the rootpar return raises done, and the controller learns of it
  // through a kPlaneDone frame (never through a local callback chain).
  marker_.set_done_callback([this](Plane p) {
    NetFrame f;
    f.type = FrameType::kPlaneDone;
    f.src = cfg_.pe_begin;
    f.payload = encode_plane_signal(p, marker_.epoch(p));
    send_frame(f);
  });
}

void WorkerEngine::rebuild_owned_list() {
  owned_list_.clear();
  for (PeId pe = 0; pe < owned_.size(); ++pe)
    if (owned_[pe]) owned_list_.push_back(pe);
}

MessagePlane WorkerEngine::make_message_plane() {
  MessagePlane plane(
      cfg_.num_pes, cfg_.net,
      [this](PeId, PeId dst, FaultPlane::Bytes msg) { stage(dst, msg); },
      reg_);
  plane.set_trace(trace_.get());
  return plane;
}

void WorkerEngine::send_frame(const NetFrame& f) {
  flush_batches();
  const std::vector<std::uint8_t> wire = encode_frame(f);
  if (!sock_.write_all(wire.data(), wire.size())) fatal_ = true;
}

std::vector<std::uint8_t>& WorkerEngine::batch_for(PeId dst) {
  std::vector<std::uint8_t>& b = out_[dst];
  // Stamped with the generation current at staging time; receivers void
  // anything from before their last fence. Nothing is staged across a
  // kEpochFence frame, so a batch never mixes generations.
  if (b.empty()) open_frame(b, FrameType::kData, gen_, cfg_.pe_begin, dst);
  return b;
}

void WorkerEngine::stage(PeId dst, std::span<const std::uint8_t> msg) {
  std::vector<std::uint8_t>& b = batch_for(dst);
  batch_append(b, msg);
  if (b.size() >= kBatchCap) flush_batch(dst);
}

void WorkerEngine::flush_batch(PeId dst) {
  std::vector<std::uint8_t>& b = out_[dst];
  seal_frame(b, 0);
  if (!sock_.write_all(b.data(), b.size())) fatal_ = true;
  b.clear();  // keeps the capacity for the next batch
}

void WorkerEngine::flush_batches() {
  for (PeId dst = 0; dst < out_.size(); ++dst)
    if (!out_[dst].empty()) flush_batch(dst);
}

void WorkerEngine::spawn(Task t) {
  DGR_CHECK_MSG(task_is_marking(t.kind),
                "worker replicas execute marking tasks only");
  const PeId dst = t.d.pe;
  if (owns(dst)) {
    reg_.add(cur_pe_, obs::Counter::kLocalMessages);
    q_.push(t);
    return;
  }
  reg_.add(cur_pe_, obs::Counter::kRemoteMessages);
  if (ChannelManager* chan = plane_.channel()) {
    std::vector<std::uint8_t> bytes = encode_task(t);
    reg_.add(cur_pe_, obs::Counter::kBytesSent, bytes.size());
    chan->send(cur_pe_, dst, std::move(bytes), now_us());
    return;
  }
  // Bare path: encode straight into the destination's batch.
  std::vector<std::uint8_t>& b = batch_for(dst);
  const std::size_t at = batch_open(b);
  append_task(b, t);
  reg_.add(cur_pe_, obs::Counter::kBytesSent, b.size() - at - kBatchPrefixSize);
  batch_close(b, at);
  if (b.size() >= kBatchCap) flush_batch(dst);
}

void WorkerEngine::exec_local(const Task& t) {
  q_.push(t);
  drain_local();
}

void WorkerEngine::drain_local() {
  while (!q_.empty()) {
    const Task t = q_.pop();
    cur_pe_ = t.d.pe;
    reg_.observe(t.d.pe, obs::Hist::kMarkQueueDepth,
                 static_cast<double>(q_.size() + 1));
    reg_.add(t.d.pe, t.kind == TaskKind::kMark ? obs::Counter::kMarkTasks
                                               : obs::Counter::kReturnTasks);
    marker_.exec(t);
  }
}

void WorkerEngine::service_channel() {
  ChannelManager* const chan = plane_.channel();
  if (!chan) return;
  const std::uint64_t now = now_us();
  for (PeId pe : owned_list_) {
    chan->flush(pe, now);
    chan->service(pe, now);
  }
  flush_batches();
}

void WorkerEngine::send_telemetry(Plane plane, std::uint64_t epoch) {
  TelemetryMsg m;
  m.plane = plane;
  m.epoch = epoch;
  m.pe_begin = owned_list_.empty() ? cfg_.pe_begin : owned_list_.front();
  m.pe_count = static_cast<std::uint32_t>(owned_list_.size());
  // Deltas are cut over every PE this worker has ever touched, not just the
  // currently-owned set: a repartition can move a PE away between quiesces,
  // and its residual counts must still ship once. Baselines are full-width.
  for (std::uint32_t pe = 0; pe < cfg_.num_pes; ++pe) {
    for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
      const std::uint64_t cur = reg_.get(pe, static_cast<obs::Counter>(c));
      const std::uint64_t delta = cur - prev_counters_[pe][c];
      if (!delta) continue;
      m.counters.push_back({pe, static_cast<std::uint8_t>(c), delta});
      prev_counters_[pe][c] = cur;
    }
    for (std::size_t h = 0; h < obs::kNumHists; ++h) {
      Histogram cur = reg_.hist(pe, static_cast<obs::Hist>(h));
      Histogram& prev = prev_hists_[pe * obs::kNumHists + h];
      TelemetryMsg::HistDelta hd;
      hd.pe = pe;
      hd.hist = static_cast<std::uint8_t>(h);
      hd.max = cur.max_value();
      for (std::size_t b = 0; b < cur.num_buckets(); ++b) {
        const std::uint64_t delta = cur.bucket_count(b) - prev.bucket_count(b);
        if (delta)
          hd.buckets.emplace_back(static_cast<std::uint32_t>(b), delta);
      }
      prev = std::move(cur);
      if (!hd.buckets.empty()) m.hists.push_back(std::move(hd));
    }
  }
  if (trace_) {
    // Stamp the lane once per quiesce even when the wave was tiny (fewer
    // marks than the marker's wave-front sampling period): every worker then
    // shows up in the merged timeline with its cumulative mark progress.
    trace_->emit(obs::EventType::kWaveFront, plane,
                 static_cast<std::uint16_t>(cfg_.pe_begin), 0,
                 reg_.get(cfg_.pe_begin, obs::Counter::kMarkTasks));
    std::vector<obs::TraceEvent> ev = trace_->snapshot();
    m.ring_dropped = trace_->dropped();
    trace_->clear();
    if (ev.size() > kMaxTelemetryEvents) {
      m.events_omitted = ev.size() - kMaxTelemetryEvents;
      ev.resize(kMaxTelemetryEvents);
    }
    m.events = std::move(ev);
  }
  NetFrame f;
  f.type = FrameType::kTelemetry;
  f.src = cfg_.pe_begin;
  f.payload = encode_telemetry(m);
  send_frame(f);
}

void WorkerEngine::send_mark_report(Plane plane, std::uint64_t epoch) {
  // Order matters: release everything the fault plane is holding (all
  // duplicates or stale by the wave-termination argument in DESIGN.md §7),
  // flush channel batches, then report. The telemetry delta goes out after
  // the drains (so it covers the whole interval) but before the report —
  // same FIFO connection, so the controller has merged this interval's
  // telemetry before the wave's final report lets the cycle advance. The
  // report is the controller's signal that this worker's partition state is
  // final for the wave.
  if (FaultPlane* fault = plane_.fault()) fault->flush();
  service_channel();
  drain_local();
  send_telemetry(plane, epoch);
  NetFrame f;
  f.type = FrameType::kMarkReport;
  f.src = cfg_.pe_begin;
  // A desynced replica skipped this wave's begin, so no mark carries the
  // wave's epoch — the report is naturally empty, but the stale wave
  // counters must not ride along with it.
  f.payload = encode_mark_report(g_, plane, epoch, owned_list_,
                                 desync_ ? MarkStats{} : marker_.stats(plane));
  send_frame(f);
}

void WorkerEngine::send_handoff_ack(std::uint64_t seq, bool ok) {
  HandoffAckMsg ack;
  ack.seq = seq;
  ack.ok = ok;
  NetFrame f;
  f.type = FrameType::kHandoffAck;
  f.src = cfg_.pe_begin;
  f.payload = encode_handoff_ack(ack);
  send_frame(f);
}

bool WorkerEngine::handle_frame(NetFrame f) {
  const bool go_on = dispatch(f);
  flush_batches();
  return go_on;
}

bool WorkerEngine::handle_data(const NetFrame& f) {
  if (!batch_split(f.payload, in_msgs_)) {
    DGR_ERROR("worker %u: malformed data batch", index_);
    fatal_ = true;
    return false;
  }
  // Every task the batch carries joins the work list before any runs, so
  // the strongest marks go first; an undecodable task is counted
  // (kMsgDecodeError) and skipped.
  for (std::span<const std::uint8_t> m : in_msgs_)
    plane_.receive(f.dst, f.dst, m, [this] { return now_us(); },
                   [this](const Task& t) { q_.push(t); });
  drain_local();
  return true;
}

bool WorkerEngine::dispatch(NetFrame& f) {
  switch (f.type) {
    case FrameType::kHandoff: {
      HandoffMsg msg;
      if (!apply_handoff(f.payload, g_, owned_, msg)) {
        // A delta that disagrees with the replica's shape (or a torn
        // payload): nack and wait for the fence + full resync rather than
        // dying — the controller treats the nack exactly like a checksum
        // mismatch.
        DGR_ERROR("worker %u: handoff %llu failed to apply, requesting "
                  "resync",
                  index_, (unsigned long long)msg.seq);
        desync_ = true;
        send_handoff_ack(msg.seq, false);
        return true;
      }
      rebuild_owned_list();
      ++applies_;
      if (corrupt_after_ != 0 && applies_ == corrupt_after_) {
        // Test hook: structurally corrupt one owned live vertex so the
        // checksum below disagrees — the deterministic divergence the
        // resync tests drive.
        for (PeId pe : owned_list_) {
          Store& st = g_.store(pe);
          bool done = false;
          for (std::uint32_t i = 0; i < st.capacity() && !done; ++i) {
            if (!st.at(i).live) continue;
            st.at(i).aux = !st.at(i).aux;
            done = true;
          }
          if (done) break;
        }
      }
      const bool ok = handoff_checksum(g_, owned_) == msg.checksum;
      if (!ok) {
        DGR_ERROR("worker %u: handoff %llu checksum mismatch (replica "
                  "diverged), requesting resync",
                  index_, (unsigned long long)msg.seq);
      }
      desync_ = !ok;
      send_handoff_ack(msg.seq, ok);
      return true;
    }
    case FrameType::kEpochFence: {
      // Membership changed: adopt the new generation (voiding every kData /
      // kSeed still in flight from before the fence), abandon whatever wave
      // was running, and reset the worker↔worker message plane — all
      // survivors do the same on their copy of this fence, so sequence
      // spaces restart consistently cluster-wide.
      gen_ = f.gen;
      marker_.abort(Plane::kR);
      marker_.abort(Plane::kT);
      q_.clear();
      plane_ = make_message_plane();
      return true;
    }
    case FrameType::kPlaneBegin: {
      if (desync_) return true;  // resync pending; skip the wave
      Plane plane;
      std::uint64_t epoch = 0;
      if (!decode_plane_signal(f.payload, plane, epoch)) {
        fatal_ = true;
        return false;
      }
      marker_.begin_remote(plane, epoch);
      return true;
    }
    case FrameType::kRescueBegin: {
      if (desync_) return true;
      Plane plane;
      std::uint64_t epoch = 0;
      if (!apply_rescue_begin(f.payload, g_, plane, epoch)) {
        fatal_ = true;
        return false;
      }
      marker_.reopen_remote(plane);
      return true;
    }
    case FrameType::kSeed: {
      if (desync_ || f.gen != gen_) return true;  // pre-fence traffic: void
      const std::optional<Task> t = try_decode_task(f.payload);
      if (!t) {
        fatal_ = true;
        return false;
      }
      exec_local(*t);
      return true;
    }
    case FrameType::kData: {
      if (desync_ || f.gen != gen_) return true;  // pre-fence traffic: void
      return handle_data(f);
    }
    case FrameType::kQuiesce: {
      Plane plane;
      std::uint64_t epoch = 0;
      if (!decode_plane_signal(f.payload, plane, epoch)) {
        fatal_ = true;
        return false;
      }
      send_mark_report(plane, epoch);
      return true;
    }
    case FrameType::kClockProbe: {
      // Echo immediately: every µs between the controller's send and this
      // reply inflates the RTT bound on the offset estimate.
      ClockProbeMsg probe;
      if (!decode_clock_probe(f.payload, probe)) {
        fatal_ = true;
        return false;
      }
      ClockEchoMsg echo;
      echo.seq = probe.seq;
      echo.t_controller_us = probe.t_controller_us;
      echo.t_worker_us = now_us();
      NetFrame reply;
      reply.type = FrameType::kClockEcho;
      reply.src = cfg_.pe_begin;
      reply.payload = encode_clock_echo(echo);
      send_frame(reply);
      return true;
    }
    case FrameType::kShutdown: {
      clean_shutdown_ = true;
      return false;
    }
    case FrameType::kRegisterAck:
      return true;  // late duplicate; registration already completed
    default:
      DGR_ERROR("worker %u: unexpected frame type %s", index_,
                frame_type_name(f.type));
      fatal_ = true;
      return false;
  }
}

int WorkerEngine::run() {
  std::vector<std::uint8_t> rbuf(1 << 16);
  // Frames may already sit in the codec (bytes that trailed the ack).
  NetFrame f;
  while (codec_.next(f)) {
    if (!handle_frame(std::move(f))) return clean_shutdown_ ? 0 : 1;
    f = NetFrame{};
  }
  for (;;) {
    struct pollfd pfd;
    pfd.fd = sock_.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    if (pr > 0) {
      const long n = rbuf.empty() ? 0 : sock_.read_some(rbuf.data(),
                                                        rbuf.size());
      if (n <= 0) return clean_shutdown_ ? 0 : 1;
      codec_.feed(rbuf.data(), static_cast<std::size_t>(n));
      if (codec_.error()) {
        DGR_ERROR("worker %u: stream error: %s", index_,
                  codec_.error_reason());
        return 1;
      }
      while (codec_.next(f)) {
        if (!handle_frame(std::move(f))) return clean_shutdown_ ? 0 : 1;
        if (fatal_) return 1;
        f = NetFrame{};
      }
    }
    if (fatal_) return 1;
    // Idle tick: retransmit timers and deferred acks live here — a dropped
    // worker↔worker frame leaves both sockets silent until an RTO fires.
    service_channel();
  }
}

int worker_main(int argc, char** argv) {
  std::string addr_str;
  std::uint32_t index = kAnyWorkerIndex;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--connect" && i + 1 < argc) {
      addr_str = argv[++i];
    } else if (a == "--index" && i + 1 < argc) {
      index = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: dgr_worker --connect <tcp:H:P|uds:PATH> "
                   "--index <n>\n");
      return 2;
    }
  }
  SocketAddr addr;
  if (!SocketAddr::parse(addr_str, addr)) {
    std::fprintf(stderr, "dgr_worker: bad --connect address '%s'\n",
                 addr_str.c_str());
    return 2;
  }
  Socket sock = socket_connect(addr, /*timeout_ms=*/10000);
  if (!sock.valid()) {
    std::fprintf(stderr, "dgr_worker: cannot reach controller at %s\n",
                 addr.str().c_str());
    return 2;
  }

  // Registration handshake: kRegister must be the first frame on the wire;
  // the reply is kRegisterAck (carrying this worker's config) or kReject.
  RegisterMsg reg;
  reg.worker_index = index;
  NetFrame rf;
  rf.type = FrameType::kRegister;
  rf.src = index;
  rf.payload = encode_register(reg);
  const std::vector<std::uint8_t> wire = encode_frame(rf);
  if (!sock.write_all(wire.data(), wire.size())) return 2;

  FrameCodec codec;
  std::vector<std::uint8_t> buf(1 << 16);
  for (;;) {
    NetFrame f;
    if (codec.next(f)) {
      if (f.type == FrameType::kReject) {
        RejectMsg rej;
        decode_reject(f.payload, rej);
        std::fprintf(stderr, "dgr_worker: registration rejected (%u): %s\n",
                     rej.code, rej.reason.c_str());
        return 3;
      }
      if (f.type != FrameType::kRegisterAck) {
        std::fprintf(stderr, "dgr_worker: expected ack, got %s\n",
                     frame_type_name(f.type));
        return 3;
      }
      RegisterAckMsg ack;
      if (!decode_register_ack(f.payload, ack)) {
        std::fprintf(stderr, "dgr_worker: malformed registration ack\n");
        return 3;
      }
      // Frames behind the ack stay in the codec and are replayed by run().
      WorkerEngine eng(std::move(sock), std::move(codec), ack.worker_index,
                       ack.config);
      return eng.run();
    }
    const long n = sock.read_some(buf.data(), buf.size());
    if (n <= 0) {
      std::fprintf(stderr, "dgr_worker: controller closed during handshake\n");
      return 3;
    }
    codec.feed(buf.data(), static_cast<std::size_t>(n));
    if (codec.error()) {
      std::fprintf(stderr, "dgr_worker: handshake stream error: %s\n",
                   codec.error_reason());
      return 3;
    }
  }
}

}  // namespace dgr
