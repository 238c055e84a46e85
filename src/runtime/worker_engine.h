// The worker half of ProcEngine: a single-threaded marking executor over a
// graph-partition replica, driven entirely by frames from the controller
// socket (docs/CLUSTER.md walks the lifecycle).
//
// A worker owns a contiguous PE block [pe_begin, pe_begin + pe_count). It
// receives partition handoffs (kHandoff) before every marking plane, opens
// the plane at the controller's epoch (kPlaneBegin / kRescueBegin), executes
// mark/return tasks for its own PEs, and ships cross-worker child marks in
// kData batches that the controller hub relays to the owner — optionally
// through the worker-side reliable channel + fault plane, so the chaos
// schedule exercises the full recovery discipline across real process
// boundaries. When its replica observes the termination return to rootpar it
// reports kPlaneDone; on kQuiesce it flushes its planes and answers with a
// kMarkReport for the controller to merge.
//
// Single-threadedness is load-bearing: frames are handled strictly in
// arrival order and each frame's tasks execute to completion (including
// their local child cascade) before the next frame is read, so a kQuiesce
// can never overtake work the controller already counted. Within that
// cascade the tasks wait in the same WorkList as ThreadEngine's, M_R marks
// highest priority first; a kData frame's tasks all join it before any runs.
//
// Outgoing marks are staged in one task batch per destination PE and
// flushed at fixed points: the end of every handled frame, before any other
// frame, and when a batch reaches kBatchCap. flush_batch is the one routine
// that sends a batch: as one kData frame on the bare plane, or to the
// channel as one payload under faults (sent as PE cfg_.pe_begin, which this
// worker owns until it exits), whose frames then leave as kData frames of
// their own. Nothing stays staged between frames, so the ordering argument
// above still holds, and on the bare plane the output is a deterministic
// function of the input frame stream (docs/CLUSTER.md "Data batches").
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/marker.h"
#include "core/task.h"
#include "net/frame.h"
#include "net/proto.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/message_plane.h"
#include "runtime/work_list.h"
#include "util/stats.h"

namespace dgr {

class WorkerEngine final : public TaskSink {
 public:
  // `sock` is the registered controller connection; `codec` carries any
  // bytes that followed the kRegisterAck in the same read.
  WorkerEngine(Socket sock, FrameCodec codec, std::uint32_t worker_index,
               WorkerConfig cfg);

  WorkerEngine(const WorkerEngine&) = delete;
  WorkerEngine& operator=(const WorkerEngine&) = delete;

  // Frame loop until kShutdown (returns 0), peer loss or a protocol error
  // (nonzero). Never returns while the controller is healthy.
  int run();

  // ---- TaskSink (marker callbacks during exec) ----
  void spawn(Task t) override;

 private:
  bool owns(PeId pe) const { return pe < owned_.size() && owned_[pe] != 0; }
  // A destination's staged batch is written once it reaches this many bytes.
  static constexpr std::size_t kBatchCap = 64 << 10;

  // Returns false when the loop should stop (kShutdown or fatal error).
  // Flushes the staged batches before returning.
  bool handle_frame(NetFrame f);
  bool dispatch(NetFrame& f);
  bool handle_data(const NetFrame& f);
  void exec_local(const Task& t);
  void drain_local();
  // Write raw wire bytes to the controller; a failed write is fatal.
  void write(std::span<const std::uint8_t> wire);
  // Control frames: staged batches go out first.
  void send_frame(const NetFrame& f);
  void flush_batch(PeId dst);
  void flush_batches();
  void service_channel();
  // A fresh worker↔worker message plane. Built in the ctor and again at
  // every kEpochFence: a membership fence voids all in-flight worker↔worker
  // traffic, and every survivor resets its sequence spaces in the same
  // fence, so fresh channels stay consistent cluster-wide.
  MessagePlane make_message_plane();
  void rebuild_owned_list();
  void send_handoff_ack(std::uint64_t seq, bool ok);
  void send_mark_report(Plane plane, std::uint64_t epoch);
  // Ship the registry/trace delta accumulated since the previous quiesce
  // (sent immediately before the kMarkReport on the same FIFO connection).
  void send_telemetry(Plane plane, std::uint64_t epoch);
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  Socket sock_;
  FrameCodec codec_;
  std::uint32_t index_;
  WorkerConfig cfg_;
  Graph g_;
  Marker marker_;
  WorkList q_;  // locally-owned tasks awaiting execution (runtime/work_list.h)
  // Staged outgoing batches, one per destination PE: a kData frame header,
  // then the task batch (net/frame.h). Empty while `tasks` is 0.
  struct OutBatch {
    std::vector<std::uint8_t> bytes;
    std::size_t tasks = 0;
  };
  std::vector<OutBatch> out_;
  PeId cur_pe_ = 0;          // PE context of the task being executed
  bool clean_shutdown_ = false;
  bool fatal_ = false;
  std::chrono::steady_clock::time_point t0_;

  // Current ownership — adopted from every handoff's per-PE flags, so a
  // repartition-on-survivors needs no extra assignment frame. Starts as the
  // registration-time contiguous block; non-contiguous after a recovery.
  std::vector<std::uint8_t> owned_;  // [pe] != 0 ⇔ this worker owns pe
  std::vector<PeId> owned_list_;     // the set, ascending
  // Membership generation adopted from the last kEpochFence; kData/kSeed
  // frames stamped with any other generation are void (pre-fence traffic).
  std::uint16_t gen_ = 0;
  // Set when a handoff checksum disagreed with the replica: everything but
  // kQuiesce (answered with an empty report), clock probes and the fence
  // machinery is dropped until a full handoff checks out again.
  bool desync_ = false;
  // DGR_TEST_CORRUPT_HANDOFF="W:N": worker W corrupts its replica right
  // after its Nth handoff apply — a deterministic divergence for the
  // checksum-resync tests. 0 = disabled.
  std::uint64_t corrupt_after_ = 0;
  std::uint64_t applies_ = 0;

  // Telemetry plane: full-width registry (indexed by global PE; only owned
  // PEs are ever touched) plus the per-quiesce delta baseline. Baselines are
  // full-width too: ownership can move between quiesces.
  obs::MetricsRegistry reg_;
  std::vector<std::array<std::uint64_t, obs::kNumCounters>> prev_counters_;
  std::vector<Histogram> prev_hists_;  // num_pes × kNumHists, row-major
  // Worker-side trace ring (populated only when the controller asked for
  // it).
  std::unique_ptr<obs::TraceBuffer> trace_;
  // Worker-side message plane for worker↔worker marks (sender-side state for
  // pairs whose src this worker owns, receiver-side for its dst PEs).
  MessagePlane plane_;
};

// Parse `--connect ADDR --index N`, register with the controller and run a
// WorkerEngine over the accepted connection. The dgr_worker binary is this.
int worker_main(int argc, char** argv);

}  // namespace dgr
