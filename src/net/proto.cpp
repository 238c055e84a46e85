#include "net/proto.h"

#include <cstring>

namespace dgr {
namespace {

// Doubles cross the wire as IEEE-754 bit patterns (both ends are the same
// toolchain; the loopback cluster makes no heterogeneity promises).
std::uint64_t d2u(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}
double u2d(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

void encode_mark_plane(ByteWriter& w, const MarkPlane& m) {
  w.u64(m.epoch);
  w.u8(static_cast<std::uint8_t>(m.color));
  w.u32(m.mt_cnt);
  w.vid(m.mt_par);
  w.u8(m.prior);
}

bool decode_mark_plane(ByteReader& r, MarkPlane& m) {
  m.epoch = r.u64();
  const std::uint8_t c = r.u8();
  if (c > static_cast<std::uint8_t>(Color::kMarked)) return false;
  m.color = static_cast<Color>(c);
  m.mt_cnt = r.u32();
  m.mt_par = r.vid();
  m.prior = r.u8();
  return r.ok();
}

// Sanity ceiling on wire-declared list lengths, so a corrupted count can't
// drive a multi-gigabyte allocation before the reader notices it ran dry.
constexpr std::uint32_t kMaxWireList = 1u << 24;

}  // namespace

Bytes encode_worker_config(const WorkerConfig& c) {
  ByteWriter w;
  w.u32(c.num_pes);
  w.u32(c.pe_begin);
  w.u32(c.pe_count);
  w.u64(c.net.faults.seed);
  w.u64(d2u(c.net.faults.spec.drop));
  w.u64(d2u(c.net.faults.spec.duplicate));
  w.u64(d2u(c.net.faults.spec.reorder));
  w.u64(d2u(c.net.faults.spec.truncate));
  w.u32(c.net.faults.spec.reorder_span);
  w.u64(c.net.reliable.rto_initial_us);
  w.u64(c.net.reliable.rto_max_us);
  w.u32(c.net.reliable.max_retransmit_batch);
  w.u32(c.net.reliable.batch_bytes);
  w.u64(c.net.reliable.batch_flush_us);
  w.u8(c.trace_enabled ? 1 : 0);
  w.u32(c.trace_capacity);
  return w.take();
}

bool decode_worker_config(const Bytes& b, WorkerConfig& out) {
  ByteReader r(b);
  out.num_pes = r.u32();
  out.pe_begin = r.u32();
  out.pe_count = r.u32();
  out.net.faults.seed = r.u64();
  out.net.faults.spec.drop = u2d(r.u64());
  out.net.faults.spec.duplicate = u2d(r.u64());
  out.net.faults.spec.reorder = u2d(r.u64());
  out.net.faults.spec.truncate = u2d(r.u64());
  out.net.faults.spec.reorder_span = r.u32();
  out.net.reliable.rto_initial_us = r.u64();
  out.net.reliable.rto_max_us = r.u64();
  out.net.reliable.max_retransmit_batch = r.u32();
  out.net.reliable.batch_bytes = r.u32();
  out.net.reliable.batch_flush_us = r.u64();
  out.trace_enabled = r.u8() != 0;
  out.trace_capacity = r.u32();
  return r.done();
}

Bytes encode_register(const RegisterMsg& m) {
  ByteWriter w;
  w.u32(m.proto_version);
  w.u32(m.flags);
  w.u32(m.worker_index);
  return w.take();
}

bool decode_register(const Bytes& b, RegisterMsg& out) {
  ByteReader r(b);
  out.proto_version = r.u32();
  out.flags = r.u32();
  out.worker_index = r.u32();
  return r.done();
}

Bytes encode_register_ack(const RegisterAckMsg& m) {
  ByteWriter w;
  w.u32(m.worker_index);
  w.u32(m.num_workers);
  const Bytes cfg = encode_worker_config(m.config);
  w.u32(static_cast<std::uint32_t>(cfg.size()));
  for (std::uint8_t byte : cfg) w.u8(byte);
  return w.take();
}

bool decode_register_ack(const Bytes& b, RegisterAckMsg& out) {
  ByteReader r(b);
  out.worker_index = r.u32();
  out.num_workers = r.u32();
  const std::uint32_t len = r.u32();
  if (!r.ok() || len != r.remaining()) return false;
  Bytes cfg(b.end() - len, b.end());
  return decode_worker_config(cfg, out.config);
}

Bytes encode_reject(const RejectMsg& m) {
  ByteWriter w;
  w.u32(m.code);
  w.u32(static_cast<std::uint32_t>(m.reason.size()));
  for (char c : m.reason) w.u8(static_cast<std::uint8_t>(c));
  return w.take();
}

bool decode_reject(const Bytes& b, RejectMsg& out) {
  ByteReader r(b);
  out.code = r.u32();
  const std::uint32_t len = r.u32();
  if (!r.ok() || len != r.remaining()) return false;
  out.reason.assign(b.end() - len, b.end());
  return true;
}

Bytes encode_plane_signal(Plane plane, std::uint64_t epoch) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(plane));
  w.u64(epoch);
  return w.take();
}

bool decode_plane_signal(const Bytes& b, Plane& plane, std::uint64_t& epoch) {
  ByteReader r(b);
  const std::uint8_t p = r.u8();
  if (p > 1) return false;
  plane = static_cast<Plane>(p);
  epoch = r.u64();
  return r.done();
}

void encode_vertex_record(ByteWriter& w, std::uint32_t idx, const Vertex& v) {
  w.u32(idx);
  w.u8(static_cast<std::uint8_t>((v.live ? 1 : 0) | (v.aux ? 2 : 0)));
  w.u8(static_cast<std::uint8_t>(v.op));
  w.u32(static_cast<std::uint32_t>(v.args.size()));
  for (const ArgEdge& e : v.args) {
    w.vid(e.to);
    w.u8(static_cast<std::uint8_t>(e.req));
    w.u64(e.req_epoch);
  }
  w.u32(static_cast<std::uint32_t>(v.requested.size()));
  for (VertexId r : v.requested) w.vid(r);
  w.u32(static_cast<std::uint32_t>(v.stale_requested.size()));
  for (VertexId r : v.stale_requested) w.vid(r);
  encode_mark_plane(w, v.mark[0]);
  encode_mark_plane(w, v.mark[1]);
}

bool decode_vertex_record(ByteReader& r, std::uint32_t& idx, Vertex& v) {
  idx = r.u32();
  const std::uint8_t flags = r.u8();
  v.live = (flags & 1) != 0;
  v.aux = (flags & 2) != 0;
  v.op = static_cast<OpCode>(r.u8());
  const std::uint32_t nargs = r.u32();
  if (!r.ok() || nargs > kMaxWireList) return false;
  v.args.clear();
  v.args.reserve(nargs);
  for (std::uint32_t i = 0; i < nargs; ++i) {
    ArgEdge e;
    e.to = r.vid();
    const std::uint8_t k = r.u8();
    if (k > static_cast<std::uint8_t>(ReqKind::kVital)) return false;
    e.req = static_cast<ReqKind>(k);
    e.req_epoch = r.u64();
    v.args.push_back(e);
  }
  const std::uint32_t nreq = r.u32();
  if (!r.ok() || nreq > kMaxWireList) return false;
  v.requested.clear();
  v.requested.reserve(nreq);
  for (std::uint32_t i = 0; i < nreq; ++i) v.requested.push_back(r.vid());
  const std::uint32_t nstale = r.u32();
  if (!r.ok() || nstale > kMaxWireList) return false;
  v.stale_requested.clear();
  v.stale_requested.reserve(nstale);
  for (std::uint32_t i = 0; i < nstale; ++i)
    v.stale_requested.push_back(r.vid());
  if (!decode_mark_plane(r, v.mark[0])) return false;
  if (!decode_mark_plane(r, v.mark[1])) return false;
  return r.ok();
}

namespace {

// FNV-1a over the structural fields a handoff ships. Mark planes are
// excluded on purpose: stale epochs are semantically unmarked, so marking
// activity must not perturb fingerprints or checksums.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

std::uint64_t structural_fingerprint(const Vertex& v) {
  std::uint64_t h = kFnvOffset;
  if (!v.live) {
    fnv(h, 0);
    return h;
  }
  fnv(h, 1u | (v.aux ? 2u : 0u) |
             (static_cast<std::uint64_t>(v.op) << 8));
  fnv(h, v.args.size());
  for (const ArgEdge& e : v.args) {
    fnv(h, (static_cast<std::uint64_t>(e.to.pe) << 32) | e.to.idx);
    fnv(h, static_cast<std::uint64_t>(e.req));
    fnv(h, e.req_epoch);
  }
  fnv(h, v.requested.size());
  for (VertexId r : v.requested)
    fnv(h, (static_cast<std::uint64_t>(r.pe) << 32) | r.idx);
  fnv(h, v.stale_requested.size());
  for (VertexId r : v.stale_requested)
    fnv(h, (static_cast<std::uint64_t>(r.pe) << 32) | r.idx);
  return h;
}

}  // namespace

std::uint64_t handoff_checksum(const Graph& g,
                               const std::vector<std::uint8_t>& owned) {
  std::uint64_t h = kFnvOffset;
  for (PeId pe = 0; pe < g.num_pes(); ++pe) {
    const Store& st = g.store(pe);
    const auto cap = static_cast<std::uint32_t>(st.capacity());
    fnv(h, cap);
    const bool own = pe < owned.size() && owned[pe] != 0;
    fnv(h, own ? 1 : 0);
    for (std::uint32_t i = 0; i < cap; ++i) {
      const Vertex& v = st.at(i);
      if (own) {
        // Dead slots contribute liveness only: a replica's residual fields
        // from when the slot was live are not observable by marking.
        fnv(h, v.live ? structural_fingerprint(v) : 0);
      } else {
        fnv(h, v.live ? 1 : 0);
      }
    }
  }
  return h;
}

void HandoffTracker::scan(const Graph& g) {
  ++seq_;
  fp_.resize(g.num_pes());
  changed_.resize(g.num_pes());
  for (PeId pe = 0; pe < g.num_pes(); ++pe) {
    const Store& st = g.store(pe);
    const std::size_t cap = st.capacity();
    // New slots start at a sentinel no fingerprint produces, so a capacity
    // grow is always shipped (the replica must grow its store to match).
    fp_[pe].resize(cap, ~0ull);
    changed_[pe].resize(cap, 0);
    for (std::size_t i = 0; i < cap; ++i) {
      const std::uint64_t f = structural_fingerprint(st.at(i));
      if (f != fp_[pe][i]) {
        fp_[pe][i] = f;
        changed_[pe][i] = seq_;
      }
    }
  }
}

Bytes HandoffTracker::encode(const Graph& g,
                             const std::vector<std::uint8_t>& owned,
                             std::uint64_t since, bool force_full,
                             std::uint8_t* kind_out) const {
  const bool delta = !force_full && since > 0 && since <= seq_;
  const std::uint64_t checksum = handoff_checksum(g, owned);
  ByteWriter w;
  w.u8(delta ? kHandoffDelta : kHandoffFull);
  w.u64(seq_);
  w.u64(checksum);
  w.u32(g.num_pes());
  for (PeId pe = 0; pe < g.num_pes(); ++pe) {
    const Store& st = g.store(pe);
    const auto cap = static_cast<std::uint32_t>(st.capacity());
    const bool own = pe < owned.size() && owned[pe] != 0;
    w.u32(pe);
    w.u8(own ? 1 : 0);
    w.u32(cap);
    if (!delta) {
      if (own) {
        // Count, then records for every occupied slot (aux included:
        // taskroots and troot carry args the T wave traces).
        std::uint32_t n = 0;
        for (std::uint32_t i = 0; i < cap; ++i)
          if (st.at(i).live) ++n;
        w.u32(n);
        for (std::uint32_t i = 0; i < cap; ++i)
          if (st.at(i).live) encode_vertex_record(w, i, st.at(i));
      } else {
        // Liveness bitmap only: remote vertices are marked by their owner,
        // but mark3 skips dead stale_requested entries by liveness lookup.
        std::vector<std::uint8_t> bits((cap + 7) / 8, 0);
        for (std::uint32_t i = 0; i < cap; ++i)
          if (st.at(i).live)
            bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
        for (std::uint8_t byte : bits) w.u8(byte);
      }
    } else {
      // Slots whose structural fingerprint moved after `since`. Owned PEs
      // ship whole records (a dead record retires the replica slot);
      // unowned PEs ship liveness transitions.
      std::uint32_t n = 0;
      for (std::uint32_t i = 0; i < cap; ++i)
        if (changed_[pe][i] > since) ++n;
      w.u32(n);
      for (std::uint32_t i = 0; i < cap; ++i) {
        if (changed_[pe][i] <= since) continue;
        if (own) {
          encode_vertex_record(w, i, st.at(i));
        } else {
          w.u32(i);
          w.u8(st.at(i).live ? 1 : 0);
        }
      }
    }
  }
  if (kind_out) *kind_out = delta ? kHandoffDelta : kHandoffFull;
  return w.take();
}

bool apply_handoff(const Bytes& b, Graph& g, std::vector<std::uint8_t>& owned,
                   HandoffMsg& out) {
  ByteReader r(b);
  out.kind = r.u8();
  out.seq = r.u64();
  out.checksum = r.u64();
  const std::uint32_t num_pes = r.u32();
  if (!r.ok() || out.kind > kHandoffDelta || num_pes != g.num_pes())
    return false;
  owned.assign(num_pes, 0);
  for (std::uint32_t k = 0; k < num_pes; ++k) {
    const std::uint32_t pe = r.u32();
    const std::uint8_t own = r.u8();
    const std::uint32_t cap = r.u32();
    if (!r.ok() || pe >= num_pes || cap > kMaxWireList) return false;
    owned[pe] = own;
    Store& st = g.store(pe);
    if (out.kind == kHandoffFull) {
      st.reset_for_restore(cap);
      if (own) {
        const std::uint32_t n = r.u32();
        if (!r.ok() || n > cap) return false;
        for (std::uint32_t i = 0; i < n; ++i) {
          std::uint32_t idx = 0;
          Vertex v;
          if (!decode_vertex_record(r, idx, v) || idx >= cap) return false;
          st.at(idx) = std::move(v);
        }
      } else {
        for (std::uint32_t i = 0; i < (cap + 7) / 8; ++i) {
          const std::uint8_t byte = r.u8();
          for (std::uint32_t bit = 0; bit < 8 && i * 8 + bit < cap; ++bit)
            st.at(i * 8 + bit).live = (byte >> bit) & 1;
        }
      }
    } else {
      // Differential: the replica can only ever grow (controller stores
      // never shrink); a shrinking cap means the worlds diverged.
      if (cap < st.capacity()) return false;
      if (cap > 0 && st.capacity() < cap) st.ensure_slot(cap - 1);
      const std::uint32_t n = r.u32();
      if (!r.ok() || n > cap) return false;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (own) {
          std::uint32_t idx = 0;
          Vertex v;
          if (!decode_vertex_record(r, idx, v) || idx >= cap) return false;
          st.at(idx) = std::move(v);
        } else {
          const std::uint32_t idx = r.u32();
          const std::uint8_t alive = r.u8();
          if (!r.ok() || idx >= cap) return false;
          st.at(idx).live = alive != 0;
        }
      }
    }
  }
  return r.done();
}

Bytes encode_handoff_ack(const HandoffAckMsg& m) {
  ByteWriter w;
  w.u64(m.seq);
  w.u8(m.ok ? 1 : 0);
  return w.take();
}

bool decode_handoff_ack(const Bytes& b, HandoffAckMsg& out) {
  ByteReader r(b);
  out.seq = r.u64();
  out.ok = r.u8() != 0;
  return r.done();
}

Bytes encode_rescue_begin(Plane plane, std::uint64_t epoch, VertexId root,
                          const Vertex& v) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(plane));
  w.u64(epoch);
  w.u32(root.pe);
  encode_vertex_record(w, root.idx, v);
  return w.take();
}

bool apply_rescue_begin(const Bytes& b, Graph& g, Plane& plane,
                        std::uint64_t& epoch) {
  ByteReader r(b);
  const std::uint8_t p = r.u8();
  if (p > 1) return false;
  plane = static_cast<Plane>(p);
  epoch = r.u64();
  const std::uint32_t pe = r.u32();
  std::uint32_t idx = 0;
  Vertex v;
  if (!r.ok() || pe >= g.num_pes()) return false;
  if (!decode_vertex_record(r, idx, v) || !r.done()) return false;
  g.store(pe).ensure_slot(idx) = std::move(v);
  return true;
}

Bytes encode_mark_report(const Graph& g, Plane plane, std::uint64_t epoch,
                         const std::vector<PeId>& pes,
                         const MarkStats& stats) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(plane));
  w.u64(epoch);
  w.u64(stats.marks.load(std::memory_order_relaxed));
  w.u64(stats.returns.load(std::memory_order_relaxed));
  w.u64(stats.remarks.load(std::memory_order_relaxed));
  w.u64(stats.coop_spawns.load(std::memory_order_relaxed));
  w.u32(static_cast<std::uint32_t>(pes.size()));
  const int pl = static_cast<int>(plane);
  for (PeId pe : pes) {
    const Store& st = g.store(pe);
    const auto cap = static_cast<std::uint32_t>(st.capacity());
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < cap; ++i)
      if (st.at(i).live && st.at(i).mark[pl].epoch == epoch) ++n;
    w.u32(pe);
    w.u32(n);
    for (std::uint32_t i = 0; i < cap; ++i) {
      const Vertex& v = st.at(i);
      if (!v.live || v.mark[pl].epoch != epoch) continue;
      w.u32(i);
      w.u8(static_cast<std::uint8_t>(v.mark[pl].color));
      w.u8(v.mark[pl].prior);
    }
  }
  return w.take();
}

bool apply_mark_report(const Bytes& b, Graph& g, Plane expect_plane,
                       std::uint64_t expect_epoch, MarkStats& stats_out) {
  ByteReader r(b);
  const std::uint8_t p = r.u8();
  const std::uint64_t epoch = r.u64();
  if (!r.ok() || static_cast<Plane>(p) != expect_plane ||
      epoch != expect_epoch)
    return false;
  stats_out.marks = r.u64();
  stats_out.returns = r.u64();
  stats_out.remarks = r.u64();
  stats_out.coop_spawns = r.u64();
  const std::uint32_t npes = r.u32();
  if (!r.ok() || npes > g.num_pes()) return false;
  const int pl = static_cast<int>(expect_plane);
  for (std::uint32_t k = 0; k < npes; ++k) {
    const std::uint32_t pe = r.u32();
    const std::uint32_t n = r.u32();
    if (!r.ok() || pe >= g.num_pes() || n > kMaxWireList) return false;
    Store& st = g.store(pe);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t idx = r.u32();
      const std::uint8_t color = r.u8();
      const std::uint8_t prior = r.u8();
      if (!r.ok() || idx >= st.capacity() ||
          color > static_cast<std::uint8_t>(Color::kMarked))
        return false;
      MarkPlane& m = st.at(idx).mark[pl];
      m.epoch = epoch;
      m.color = static_cast<Color>(color);
      m.prior = prior;
      // Tree scaffolding collapsed by termination; merge it collapsed.
      m.mt_cnt = 0;
      m.mt_par = VertexId::invalid();
    }
  }
  return r.done();
}

// ---- Telemetry plane ----

Bytes encode_clock_probe(const ClockProbeMsg& m) {
  ByteWriter w;
  w.u32(m.seq);
  w.u64(m.t_controller_us);
  return w.take();
}

bool decode_clock_probe(const Bytes& b, ClockProbeMsg& out) {
  ByteReader r(b);
  out.seq = r.u32();
  out.t_controller_us = r.u64();
  return r.done();
}

Bytes encode_clock_echo(const ClockEchoMsg& m) {
  ByteWriter w;
  w.u32(m.seq);
  w.u64(m.t_controller_us);
  w.u64(m.t_worker_us);
  return w.take();
}

bool decode_clock_echo(const Bytes& b, ClockEchoMsg& out) {
  ByteReader r(b);
  out.seq = r.u32();
  out.t_controller_us = r.u64();
  out.t_worker_us = r.u64();
  return r.done();
}

Bytes encode_telemetry(const TelemetryMsg& m) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(m.plane));
  w.u64(m.epoch);
  w.u32(m.pe_begin);
  w.u32(m.pe_count);
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const TelemetryMsg::CounterDelta& c : m.counters) {
    w.u32(c.pe);
    w.u8(c.counter);
    w.u64(c.delta);
  }
  w.u32(static_cast<std::uint32_t>(m.hists.size()));
  for (const TelemetryMsg::HistDelta& h : m.hists) {
    w.u32(h.pe);
    w.u8(h.hist);
    w.u64(std::bit_cast<std::uint64_t>(h.max));
    w.u32(static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [bucket, count] : h.buckets) {
      w.u32(bucket);
      w.u64(count);
    }
  }
  w.u32(static_cast<std::uint32_t>(m.events.size()));
  for (const obs::TraceEvent& e : m.events) {
    w.u64(e.ts);
    w.u64(e.cycle);
    w.u64(e.a);
    w.u64(e.b);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.u8(static_cast<std::uint8_t>(e.plane));
    w.u32(e.pe);
  }
  w.u64(m.events_omitted);
  w.u64(m.ring_dropped);
  return w.take();
}

bool decode_telemetry(const Bytes& b, TelemetryMsg& out) {
  ByteReader r(b);
  const std::uint8_t pl = r.u8();
  if (pl > 1) return false;
  out.plane = static_cast<Plane>(pl);
  out.epoch = r.u64();
  out.pe_begin = r.u32();
  out.pe_count = r.u32();
  const std::uint32_t nc = r.u32();
  if (!r.ok() || nc > kMaxWireList) return false;
  out.counters.clear();
  out.counters.reserve(nc);
  for (std::uint32_t i = 0; i < nc; ++i) {
    TelemetryMsg::CounterDelta c;
    c.pe = r.u32();
    c.counter = r.u8();
    c.delta = r.u64();
    if (!r.ok() || c.counter >= obs::kNumCounters) return false;
    out.counters.push_back(c);
  }
  const std::uint32_t nh = r.u32();
  if (!r.ok() || nh > kMaxWireList) return false;
  out.hists.clear();
  out.hists.reserve(nh);
  for (std::uint32_t i = 0; i < nh; ++i) {
    TelemetryMsg::HistDelta h;
    h.pe = r.u32();
    h.hist = r.u8();
    h.max = std::bit_cast<double>(r.u64());
    const std::uint32_t nb = r.u32();
    if (!r.ok() || h.hist >= obs::kNumHists || nb > kMaxWireList) return false;
    h.buckets.reserve(nb);
    for (std::uint32_t j = 0; j < nb; ++j) {
      const std::uint32_t bucket = r.u32();
      const std::uint64_t count = r.u64();
      h.buckets.emplace_back(bucket, count);
    }
    out.hists.push_back(std::move(h));
  }
  const std::uint32_t ne = r.u32();
  if (!r.ok() || ne > kMaxTelemetryEvents) return false;
  out.events.clear();
  out.events.reserve(ne);
  for (std::uint32_t i = 0; i < ne; ++i) {
    obs::TraceEvent e;
    e.ts = r.u64();
    e.cycle = r.u64();
    e.a = r.u64();
    e.b = r.u64();
    const std::uint8_t type = r.u8();
    const std::uint8_t eplane = r.u8();
    const std::uint32_t pe = r.u32();
    if (!r.ok() || type >= obs::kNumEventTypes || eplane > 1) return false;
    e.type = static_cast<obs::EventType>(type);
    e.plane = static_cast<Plane>(eplane);
    e.pe = static_cast<std::uint16_t>(pe);
    out.events.push_back(e);
  }
  out.events_omitted = r.u64();
  out.ring_dropped = r.u64();
  return r.done();
}

}  // namespace dgr
