#include "net/socket_hub.h"

#include <chrono>

namespace dgr {

bool SocketHub::listen(SocketAddr addr, PolicyFn policy) {
  policy_ = std::move(policy);
  if (!listener_.open(addr)) {
    error_ = listener_.error();
    return false;
  }
  addr_ = addr;  // port 0 resolved by open()
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void SocketHub::accept_loop() {
  for (;;) {
    Socket s = listener_.accept();
    if (!s.valid()) return;  // listener closed
    std::lock_guard<std::mutex> lk(mu_);
    if (closing_) return;
    ++stats_.accepts;
    auto c = std::make_unique<Conn>();
    c->sock = std::move(s);
    c->outq = std::make_unique<MpmcQueue<std::vector<std::uint8_t>>>();
    Conn* cp = c.get();
    conns_.push_back(std::move(c));
    cp->reader = std::thread([this, cp] { conn_loop(cp); });
    cp->writer = std::thread([this, cp] { writer_loop(cp); });
  }
}

void SocketHub::writer_loop(Conn* c) {
  while (auto buf = c->outq->pop()) {
    if (!c->sock.write_all(buf->data(), buf->size())) break;
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.frames_sent;
    stats_.bytes_sent += buf->size();
  }
  // The queue only closes when the connection is coming down (reader exit or
  // hub close). Everything queued has been flushed: send the FIN now so the
  // peer sees EOF instead of a half-dead socket that lingers until close().
  c->sock.shutdown_rdwr();
}

void SocketHub::conn_loop(Conn* c) {
  FrameCodec codec;
  std::uint8_t buf[64 * 1024];
  bool rejected = false;
  for (;;) {
    const long n = c->sock.read_some(buf, sizeof(buf));
    if (n <= 0) break;
    codec.feed(buf, static_cast<std::size_t>(n));
    NetFrame f;
    bool drop = false;
    while (codec.next(f)) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.frames_received;
        stats_.bytes_received += kFrameHeaderSize + f.payload.size();
      }
      if (!c->registered) {
        if (f.type != FrameType::kRegister || !handle_register(c, f)) {
          rejected = true;
          drop = true;
          break;
        }
        continue;
      }
      route(c, std::move(f));
    }
    if (drop || codec.error()) {
      // An unframed or malformed stream before registration is a rejected
      // handshake; after registration it is a protocol error either way.
      if (!c->registered && codec.error()) rejected = true;
      break;
    }
  }
  std::uint32_t lost_worker = kAnyWorkerIndex;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.partial_read_resumes += codec.partial_resumes();
    stats_.oversized_rejected += codec.oversized();
    if (rejected) ++stats_.handshakes_rejected;
    c->dead = true;
    if (c->registered && !closing_ && workers_[c->worker] == c) {
      workers_[c->worker] = nullptr;
      lost_worker = c->worker;
    }
  }
  c->outq->close();  // writer drains what is queued, then exits
  if (lost_worker != kAnyWorkerIndex && lost_) lost_(lost_worker);
}

bool SocketHub::handle_register(Conn* c, const NetFrame& f) {
  RegisterMsg reg;
  Decision d;
  if (!decode_register(f.payload, reg) || reg.proto_version != kProtoVersion) {
    d.accept = false;
    d.reject = RejectMsg{1, "bad registration payload or protocol version"};
  } else {
    std::lock_guard<std::mutex> lk(mu_);
    d = policy_ ? policy_(reg) : Decision{};
    if (d.accept) {
      const std::uint32_t w = d.ack.worker_index;
      if (w >= workers_.size()) workers_.resize(w + 1, nullptr);
      if (workers_[w] != nullptr) {
        d.accept = false;
        d.reject = RejectMsg{2, "worker slot already registered"};
      } else {
        if (reg.flags & kRegisterFlagReconnect) ++stats_.reconnects;
        // Queue the ack before the slot becomes visible: once workers_[w] is
        // set, wait_workers() may return and send_to_worker() may queue a
        // frame, and the worker expects the ack first.
        NetFrame ack;
        ack.type = FrameType::kRegisterAck;
        ack.payload = encode_register_ack(d.ack);
        enqueue(c, ack);
        workers_[w] = c;
        c->worker = w;
        c->registered = true;
        const WorkerConfig& cfg = d.ack.config;
        if (endpoint_owner_.size() < cfg.pe_begin + cfg.pe_count)
          endpoint_owner_.resize(cfg.pe_begin + cfg.pe_count, kAnyWorkerIndex);
        for (std::uint32_t pe = cfg.pe_begin; pe < cfg.pe_begin + cfg.pe_count;
             ++pe)
          endpoint_owner_[pe] = w;
      }
    }
  }
  if (d.accept) {
    cv_.notify_all();
    return true;
  }
  NetFrame reply;
  reply.type = FrameType::kReject;
  reply.payload = encode_reject(d.reject);
  // Write the rejection synchronously: the connection is about to close and
  // the writer queue would race the shutdown.
  const auto bytes = encode_frame(reply);
  c->sock.write_all(bytes.data(), bytes.size());
  return false;
}

void SocketHub::route(Conn* c, NetFrame&& f) {
  if (f.type == FrameType::kData || f.type == FrameType::kSeed) {
    {
      // Worker-originated data transiting the hub toward another worker —
      // controller-injected seeds go out via send_to_endpoint_owner directly
      // and never pass through here.
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.frames_relayed;
      stats_.bytes_relayed += f.payload.size();
      if (c->worker != kAnyWorkerIndex) {
        if (relay_by_worker_.size() <= c->worker)
          relay_by_worker_.resize(c->worker + 1);
        ++relay_by_worker_[c->worker].frames;
        relay_by_worker_[c->worker].bytes += f.payload.size();
      }
    }
    send_to_endpoint_owner(f);
    return;
  }
  if (control_) control_(c->worker, std::move(f));
}

void SocketHub::enqueue(Conn* c, const NetFrame& f) {
  c->outq->push(encode_frame(f));
}

void SocketHub::send_to_worker(std::uint32_t worker, const NetFrame& f) {
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (worker < workers_.size()) c = workers_[worker];
  }
  if (c) enqueue(c, f);
}

void SocketHub::send_to_endpoint_owner(const NetFrame& f) {
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (f.dst < endpoint_owner_.size() &&
        endpoint_owner_[f.dst] != kAnyWorkerIndex) {
      Conn* w = workers_[endpoint_owner_[f.dst]];
      c = w;
    }
  }
  if (c) enqueue(c, f);
}

void SocketHub::set_endpoint_owner(PeId pe, std::uint32_t worker) {
  std::lock_guard<std::mutex> lk(mu_);
  if (endpoint_owner_.size() <= pe)
    endpoint_owner_.resize(pe + 1, kAnyWorkerIndex);
  endpoint_owner_[pe] = worker;
}

void SocketHub::drop_worker(std::uint32_t worker) {
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (worker < workers_.size()) c = workers_[worker];
  }
  // Shutdown (not close): the reader wakes with EOF and runs the same lost
  // path a crashed worker would; the fd itself is reclaimed in close().
  if (c) c->sock.shutdown_rdwr();
}

void SocketHub::broadcast(const NetFrame& f) {
  std::vector<Conn*> targets;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Conn* w : workers_)
      if (w) targets.push_back(w);
  }
  for (Conn* c : targets) enqueue(c, f);
}

bool SocketHub::wait_workers(std::uint32_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  return cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
    std::uint32_t live = 0;
    for (Conn* w : workers_)
      if (w) ++live;
    return live >= n;
  });
}

std::uint32_t SocketHub::workers_connected() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint32_t live = 0;
  for (Conn* w : workers_)
    if (w) ++live;
  return live;
}

void SocketHub::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closing_) return;
    closing_ = true;
  }
  listener_.shutdown();  // wakes the blocked accept(); close() alone won't
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // No new conns can appear now; wake every reader and writer.
  for (auto& c : conns_) {
    c->sock.shutdown_rdwr();
    c->outq->close();
  }
  for (auto& c : conns_) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
    c->sock.close();
  }
}

TransportStats SocketHub::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<SocketHub::RelayCount> SocketHub::relay_by_worker() const {
  std::lock_guard<std::mutex> lk(mu_);
  return relay_by_worker_;
}

}  // namespace dgr
