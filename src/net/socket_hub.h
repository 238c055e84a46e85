// The controller-side socket switchboard for ProcEngine.
//
// One hub = one listening socket + a set of registered peer connections.
// Per connection the hub runs a reader thread (socket → FrameCodec → route)
// and a writer thread draining an unbounded outbound queue — so a reader
// relaying a kData frame toward another peer only ever enqueues, never
// blocks on a socket write. Two peers flooding each other therefore cannot
// deadlock the relay, whatever the kernel buffer sizes.
//
// Registration handshake (docs/CLUSTER.md): the first frame on a connection
// MUST be kRegister. The hub's policy callback decides accept (kRegisterAck
// with the assigned worker index + config) or reject (kReject with a coded
// reason, connection closed). Any other first frame, an unframed byte
// stream, or an unsupported protocol version also counts as a rejected
// handshake. A kRegister carrying the reconnect flag may re-claim a
// previously registered slot after its connection dropped.
//
// Routing: kData frames are forwarded to the peer owning the frame's dst
// endpoint (ownership is declared by the accept decision's config). A kData
// frame is a batch of messages for that one endpoint (net/frame.h); the hub
// never opens it, so relay counters count batches. Every other frame type is
// surfaced to the control handler.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/proto.h"
#include "net/socket.h"
#include "util/mpmc_queue.h"

namespace dgr {

// The hub's socket counters (ProcEngineStats::transport).
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t accepts = 0;               // inbound connections accepted
  std::uint64_t reconnects = 0;            // re-registrations after a drop
  std::uint64_t partial_read_resumes = 0;  // frames completed across >1 read
  std::uint64_t oversized_rejected = 0;    // frames over the size limit
  std::uint64_t handshakes_rejected = 0;   // registrations refused
  // Worker→worker data/seed frames that transited the switchboard rather
  // than terminating at the controller.
  std::uint64_t frames_relayed = 0;
  std::uint64_t bytes_relayed = 0;
};

class SocketHub {
 public:
  struct Decision {
    bool accept = false;
    RegisterAckMsg ack;   // when accepted
    RejectMsg reject;     // when refused
  };
  // Invoked (under the hub lock) for every kRegister frame.
  using PolicyFn = std::function<Decision(const RegisterMsg&)>;
  // Non-kData frames from a registered peer; runs on that reader thread.
  using ControlFn = std::function<void(std::uint32_t worker, NetFrame frame)>;
  // A registered peer's connection died (not called during close()).
  using LostFn = std::function<void(std::uint32_t worker)>;

  SocketHub() = default;
  ~SocketHub() { close(); }
  SocketHub(const SocketHub&) = delete;
  SocketHub& operator=(const SocketHub&) = delete;

  void set_control_handler(ControlFn fn) { control_ = std::move(fn); }
  void set_worker_lost(LostFn fn) { lost_ = std::move(fn); }

  // Bind + start the accept loop. For tcp port 0 the chosen port is written
  // back into addr (readable via address()).
  bool listen(SocketAddr addr, PolicyFn policy);
  const std::string& error() const { return error_; }
  std::string address() const { return addr_.str(); }

  // Block until `n` workers are registered (or timeout). False on timeout.
  bool wait_workers(std::uint32_t n, int timeout_ms);
  std::uint32_t workers_connected() const;

  // Enqueue a frame for one registered worker / the owner of dst / everyone.
  // Silently drops toward unregistered or lost workers (the lost callback is
  // the signal to abort the run).
  void send_to_worker(std::uint32_t worker, const NetFrame& f);
  void send_to_endpoint_owner(const NetFrame& f);
  void broadcast(const NetFrame& f);

  // Rebind one endpoint (PE) to a different worker — the routing half of a
  // repartition-on-survivors (docs/CLUSTER.md "Membership and failure
  // model"). Registration still seeds the contiguous initial mapping.
  void set_endpoint_owner(PeId pe, std::uint32_t worker);

  // Force a registered worker's connection down. The reader observes EOF and
  // the normal lost path runs (slot cleared, lost callback fired) — this is
  // how the quiesce-barrier watchdog converts "silent past the deadline"
  // into a worker_lost event. No-op for unknown or already-lost workers.
  void drop_worker(std::uint32_t worker);

  void close();

  TransportStats stats() const;

  // Per-worker relay attribution (frames, payload bytes), charged to the
  // worker whose connection originated the relayed frame. Sized to the
  // highest registered worker index + 1.
  struct RelayCount {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<RelayCount> relay_by_worker() const;

 private:
  struct Conn {
    Socket sock;
    std::unique_ptr<MpmcQueue<std::vector<std::uint8_t>>> outq;
    std::thread reader;
    std::thread writer;
    std::uint32_t worker = kAnyWorkerIndex;
    bool registered = false;
    bool dead = false;
    std::uint64_t partial_resumes = 0;
    std::uint64_t oversized = 0;
  };

  void accept_loop();
  void conn_loop(Conn* c);
  void writer_loop(Conn* c);
  bool handle_register(Conn* c, const NetFrame& f);
  void route(Conn* c, NetFrame&& f);
  void enqueue(Conn* c, const NetFrame& f);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Listener listener_;
  SocketAddr addr_;
  std::string error_;
  PolicyFn policy_;
  ControlFn control_;
  LostFn lost_;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Conn>> conns_;
  // worker index → its live connection (nullptr when lost).
  std::vector<Conn*> workers_;
  // endpoint (PE) → worker index owning it.
  std::vector<std::uint32_t> endpoint_owner_;
  bool closing_ = false;
  TransportStats stats_;
  std::vector<RelayCount> relay_by_worker_;
};

}  // namespace dgr
