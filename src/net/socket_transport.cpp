#include "net/socket_transport.h"

#include <unistd.h>

namespace dgr {

SocketTransport::SocketTransport(std::uint32_t num_pes,
                                 const std::string& addr_str)
    : num_pes_(num_pes ? num_pes : 1) {
  inbox_.reserve(num_pes_);
  for (std::uint32_t i = 0; i < num_pes_; ++i)
    inbox_.push_back(std::make_unique<Mailbox>());

  SocketAddr addr;
  if (addr_str.empty()) {
    addr.path = "/tmp/dgr-loop-" + std::to_string(::getpid()) + ".sock";
  } else if (!SocketAddr::parse(addr_str, addr)) {
    error_ = "bad transport address: " + addr_str;
    return;
  }

  // Each PE registers as its own single-endpoint "worker"; the policy hands
  // slot `pe` straight back, so hub routing by dst PE is identity.
  if (!hub_.listen(addr, [this](const RegisterMsg& reg) {
        SocketHub::Decision d;
        if (reg.worker_index >= num_pes_) {
          d.reject = RejectMsg{3, "endpoint index out of range"};
          return d;
        }
        d.accept = true;
        d.ack.worker_index = reg.worker_index;
        d.ack.num_workers = num_pes_;
        d.ack.config.num_pes = num_pes_;
        d.ack.config.pe_begin = reg.worker_index;
        d.ack.config.pe_count = 1;
        return d;
      })) {
    error_ = hub_.error();
    return;
  }

  clients_.reserve(num_pes_);
  for (std::uint32_t i = 0; i < num_pes_; ++i)
    clients_.push_back(std::make_unique<Client>());
  for (PeId pe = 0; pe < num_pes_; ++pe) {
    SocketAddr hub_addr;
    SocketAddr::parse(hub_.address(), hub_addr);
    if (!connect_client(pe, hub_addr)) return;
  }
  if (!hub_.wait_workers(num_pes_, 5000)) {
    error_ = "registration did not complete";
    return;
  }
  ok_ = true;
}

bool SocketTransport::connect_client(PeId pe, const SocketAddr& addr) {
  Client& c = *clients_[pe];
  c.sock = socket_connect(addr);
  if (!c.sock.valid()) {
    error_ = "connect failed for endpoint " + std::to_string(pe);
    return false;
  }
  NetFrame reg;
  reg.type = FrameType::kRegister;
  reg.src = pe;
  reg.dst = 0;
  RegisterMsg m;
  m.worker_index = pe;
  reg.payload = encode_register(m);
  const auto bytes = encode_frame(reg);
  if (!c.sock.write_all(bytes.data(), bytes.size())) {
    error_ = "registration write failed for endpoint " + std::to_string(pe);
    return false;
  }
  c.reader = std::thread([this, pe] { client_reader(pe); });
  return true;
}

void SocketTransport::client_reader(PeId pe) {
  Client& c = *clients_[pe];
  FrameCodec codec;
  std::uint8_t buf[64 * 1024];
  std::vector<std::span<const std::uint8_t>> msgs;
  bool malformed = false;
  while (!malformed) {
    const long n = c.sock.read_some(buf, sizeof(buf));
    if (n <= 0) break;
    codec.feed(buf, static_cast<std::size_t>(n));
    NetFrame f;
    while (codec.next(f)) {
      c.frames_in.fetch_add(1, std::memory_order_relaxed);
      c.bytes_in.fetch_add(kFrameHeaderSize + f.payload.size(),
                           std::memory_order_relaxed);
      // Control frames have no meaning on a loopback endpoint; the
      // hub-side wait_workers observes registration.
      if (f.type != FrameType::kData) continue;
      if (!batch_split(f.payload, msgs)) {
        malformed = true;  // protocol error: stop reading this connection
        break;
      }
      std::vector<Bytes> out;
      out.reserve(msgs.size());
      for (std::span<const std::uint8_t> m : msgs)
        out.emplace_back(m.begin(), m.end());
      inbox_[pe]->deliver_batch(std::move(out));
    }
    if (codec.error()) break;
    c.partial_resumes.store(codec.partial_resumes(),
                            std::memory_order_relaxed);
  }
  c.partial_resumes.store(codec.partial_resumes(), std::memory_order_relaxed);
}

void SocketTransport::write_batch(PeId src, PeId dst,
                                  std::span<const Bytes> msgs) {
  Client& c = *clients_[src];
  // One kData frame per call: the batch crosses the kernel in one write_all,
  // and concurrent senders on this connection stay serialized.
  std::vector<std::uint8_t> wire;
  open_frame(wire, FrameType::kData, 0, src, dst);
  for (const Bytes& m : msgs) batch_append(wire, m);
  seal_frame(wire, 0);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++local_.frames_sent;
    local_.bytes_sent += wire.size();
  }
  std::lock_guard<std::mutex> lk(c.write_mu);
  c.sock.write_all(wire.data(), wire.size());
}

void SocketTransport::send(PeId src, PeId dst, Bytes msg) {
  if (src == dst) {
    inbox_[dst]->deliver(std::move(msg));
    return;
  }
  write_batch(src, dst, {&msg, 1});
}

void SocketTransport::send_batch(PeId src, PeId dst, std::vector<Bytes> msgs) {
  if (msgs.empty()) return;
  if (src == dst) {
    inbox_[dst]->deliver_batch(std::move(msgs));
    return;
  }
  write_batch(src, dst, msgs);
}

std::size_t SocketTransport::drain(PeId pe, std::size_t max_n,
                                   std::vector<Bytes>& out) {
  return inbox_[pe]->drain(max_n, out);
}

std::size_t SocketTransport::drain_wait(PeId pe, std::size_t max_n,
                                        std::vector<Bytes>& out,
                                        std::uint64_t timeout_us) {
  return inbox_[pe]->drain_wait(max_n, out, timeout_us);
}

std::size_t SocketTransport::pending(PeId pe) const {
  return inbox_[pe]->pending();
}

std::uint64_t SocketTransport::high_water() const {
  std::uint64_t hw = 0;
  for (const auto& m : inbox_)
    if (m->high_water() > hw) hw = m->high_water();
  return hw;
}

void SocketTransport::close() {
  if (closed_) return;
  closed_ = true;
  for (auto& c : clients_)
    if (c) c->sock.shutdown_rdwr();
  hub_.close();
  for (auto& c : clients_) {
    if (!c) continue;
    if (c->reader.joinable()) c->reader.join();
    c->sock.close();
  }
  for (auto& m : inbox_) m->close();
}

TransportStats SocketTransport::stats() const {
  TransportStats s = hub_.stats();
  std::lock_guard<std::mutex> lk(stats_mu_);
  s.frames_sent += local_.frames_sent;
  s.bytes_sent += local_.bytes_sent;
  for (const auto& c : clients_) {
    if (!c) continue;
    s.frames_received += c->frames_in.load(std::memory_order_relaxed);
    s.bytes_received += c->bytes_in.load(std::memory_order_relaxed);
    s.partial_read_resumes +=
        c->partial_resumes.load(std::memory_order_relaxed);
  }
  s.connects += clients_.size();
  return s;
}

SocketTransport::~SocketTransport() { close(); }

}  // namespace dgr
