// Transport over real sockets: every cross-PE message leaves the process
// boundary machinery — framed, written to a connected Unix-domain or TCP
// loopback socket, relayed by an internal SocketHub, read back by the
// destination endpoint's client connection, and deposited into a local inbox
// Mailbox for drain().
//
// This is the single-process "loopback cluster": the ThreadEngine's PE
// threads keep their shared graph, but their message plane crosses the same
// kernel socket path a multi-process deployment uses, with the same frames,
// the same registration handshake, and the same partial-read reassembly.
// (The full multi-process deployment — separate worker processes — is
// runtime/proc_engine.h; it reuses the hub directly.)
//
// Topology: one hub endpoint-owner connection per PE. send(src,dst) and
// send_batch(src,dst) each write one kData frame, a batch of length-prefixed
// messages (net/frame.h), on src's client connection (one write mutex per
// connection — PE threads share their own connection only when batching
// staged traffic); the hub routes it to dst's connection; dst's reader
// thread splits it and pushes the messages into inbox[dst] in order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/socket_hub.h"
#include "net/transport.h"

namespace dgr {

class SocketTransport final : public Transport {
 public:
  // `addr`: where the internal hub listens. Use "uds:<path>" (default when
  // empty: a /tmp path unique to this process) or "tcp:127.0.0.1:0".
  SocketTransport(std::uint32_t num_pes, const std::string& addr = "");
  ~SocketTransport() override;

  // False when the hub failed to bind or a client failed to register;
  // error() then says why. A failed transport delivers nothing.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::string address() const { return hub_.address(); }

  std::uint32_t endpoints() const override { return num_pes_; }
  void send(PeId src, PeId dst, Bytes msg) override;
  void send_batch(PeId src, PeId dst, std::vector<Bytes> msgs) override;
  std::size_t drain(PeId pe, std::size_t max_n,
                    std::vector<Bytes>& out) override;
  std::size_t drain_wait(PeId pe, std::size_t max_n, std::vector<Bytes>& out,
                         std::uint64_t timeout_us) override;
  std::size_t pending(PeId pe) const override;
  std::uint64_t high_water() const override;
  void close() override;
  TransportStats stats() const override;

 private:
  struct Client {
    Socket sock;
    std::mutex write_mu;
    std::thread reader;
    // Atomics: the reader thread bumps these while stats() samples them.
    std::atomic<std::uint64_t> partial_resumes{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> bytes_in{0};
  };

  void client_reader(PeId pe);
  bool connect_client(PeId pe, const SocketAddr& addr);
  void write_batch(PeId src, PeId dst, std::span<const Bytes> msgs);

  std::uint32_t num_pes_;
  SocketHub hub_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<Mailbox>> inbox_;
  bool ok_ = false;
  bool closed_ = false;
  std::string error_;
  mutable std::mutex stats_mu_;
  TransportStats local_;  // client-side counters (hub adds its own)
};

}  // namespace dgr
