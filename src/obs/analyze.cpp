#include "obs/analyze.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "util/stats.h"

namespace dgr::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  append_u64(out, v);
  if (comma) out += ',';
}

WaveLatency summarize(const Histogram& h) {
  WaveLatency w;
  w.samples = h.count();
  w.p50 = h.p50();
  w.p99 = h.p99();
  w.max = h.max_value();
  return w;
}

// Per-cycle scratch the scanner keeps while the cycle is open: which PEs have
// already contributed a wave_front sample this cycle (first-sample latency
// and participation are both per-cycle-per-PE firsts).
struct OpenCycle {
  std::size_t index = 0;  // into TraceReport::cycles
  std::vector<bool> seen_r;
  std::vector<bool> seen_t;
  std::vector<bool> participated;
};

}  // namespace

TraceReport analyze(const std::vector<TraceEvent>& events) {
  TraceReport rep;
  rep.events = events.size();
  for (const TraceEvent& e : events)
    rep.num_pes = std::max<std::uint32_t>(rep.num_pes, e.pe + 1u);
  rep.pes.resize(rep.num_pes);
  for (std::uint32_t pe = 0; pe < rep.num_pes; ++pe)
    rep.pes[pe].pe = static_cast<std::uint16_t>(pe);

  std::unordered_map<std::uint64_t, std::size_t> cycle_index;
  auto cycle_at = [&](std::uint64_t cycle) -> CycleReport& {
    auto it = cycle_index.find(cycle);
    if (it == cycle_index.end()) {
      it = cycle_index.emplace(cycle, rep.cycles.size()).first;
      rep.cycles.emplace_back().cycle = cycle;
    }
    return rep.cycles[it->second];
  };

  // Marker- and mutator-emitted events (wave_front, rescue_queued) carry
  // cycle 0 — those layers do not know the cycle number. The scanner scopes
  // them to the cycle open at that point of the stream.
  OpenCycle open;
  bool has_open = false;
  auto ensure_pe = [&](std::uint16_t pe) -> PeLoad& { return rep.pes[pe]; };
  auto scoped_cycle = [&](const TraceEvent& e) -> CycleReport* {
    if (e.cycle != 0) return &cycle_at(e.cycle);
    if (has_open) return &rep.cycles[open.index];
    return nullptr;  // pre-cycle / post-wrap event; totals still counted
  };

  Histogram lat_r, lat_t;

  for (const TraceEvent& e : events) {
    switch (e.type) {
      case EventType::kCycleStart: {
        CycleReport& c = cycle_at(e.cycle);
        c.start_ts = e.ts;
        open = OpenCycle{};
        open.index = cycle_index[e.cycle];
        open.seen_r.assign(rep.num_pes, false);
        open.seen_t.assign(rep.num_pes, false);
        open.participated.assign(rep.num_pes, false);
        has_open = true;
        break;
      }
      case EventType::kPhaseBegin: {
        if (CycleReport* c = scoped_cycle(e)) {
          PhaseReport& p = e.plane == Plane::kT ? c->mt : c->mr;
          p.ran = true;
          p.begin_ts = e.ts;
        }
        break;
      }
      case EventType::kPhaseEnd: {
        if (CycleReport* c = scoped_cycle(e)) {
          PhaseReport& p = e.plane == Plane::kT ? c->mt : c->mr;
          p.ran = true;
          p.finished = true;
          p.end_ts = e.ts;
          p.marks = e.a;
          p.returns = e.b;
        }
        break;
      }
      case EventType::kWaveFront: {
        PeLoad& pl = ensure_pe(e.pe);
        (e.plane == Plane::kT ? pl.wave_samples_t : pl.wave_samples_r)++;
        if (!has_open) break;
        CycleReport& c = rep.cycles[open.index];
        if (!open.participated[e.pe]) {
          open.participated[e.pe] = true;
          ++pl.cycles_participated;
        }
        std::vector<bool>& seen =
            e.plane == Plane::kT ? open.seen_t : open.seen_r;
        if (!seen[e.pe]) {
          seen[e.pe] = true;
          const PhaseReport& p = e.plane == Plane::kT ? c.mt : c.mr;
          if (p.ran && e.ts >= p.begin_ts) {
            (e.plane == Plane::kT ? lat_t : lat_r)
                .add(static_cast<double>(e.ts - p.begin_ts));
          }
        }
        break;
      }
      case EventType::kRescueWave: {
        if (CycleReport* c = scoped_cycle(e)) ++c->rescue_waves;
        break;
      }
      case EventType::kRescueQueued: {
        ++ensure_pe(e.pe).rescue_queued;
        if (CycleReport* c = scoped_cycle(e)) ++c->rescue_queued;
        break;
      }
      case EventType::kCoopTaint: {
        ++ensure_pe(e.pe).coop_taints;
        if (CycleReport* c = scoped_cycle(e)) ++c->coop_taints;
        break;
      }
      case EventType::kSweep: {
        if (CycleReport* c = scoped_cycle(e)) c->swept = e.a;
        break;
      }
      case EventType::kExpunge: {
        if (CycleReport* c = scoped_cycle(e)) c->expunged = e.a;
        break;
      }
      case EventType::kReprioritize: {
        if (CycleReport* c = scoped_cycle(e)) c->reprioritized = e.a;
        break;
      }
      case EventType::kDeadlockReport: {
        if (CycleReport* c = scoped_cycle(e)) {
          c->deadlock_report = true;
          c->deadlocked_count = e.a;
        }
        if (e.a > 0) {
          DeadlockPostMortem& pm = rep.deadlocks.emplace_back();
          pm.cycle = e.cycle;
          pm.report_ts = e.ts;
          pm.count = e.a;
        }
        break;
      }
      case EventType::kDeadlockVertex: {
        // Evidence chain member: restructuring named this vertex as
        // DL'_v = R'_v − T'. Emitted right after its cycle's report.
        if (!rep.deadlocks.empty() &&
            rep.deadlocks.back().cycle == e.cycle) {
          rep.deadlocks.back().vertices.emplace_back(e.pe, e.a);
        }
        break;
      }
      case EventType::kCycleEnd: {
        CycleReport& c = cycle_at(e.cycle);
        c.complete = true;
        c.end_ts = e.ts;
        ++rep.complete_cycles;
        has_open = false;
        break;
      }
      case EventType::kAudit: {
        rep.audits += 1;
        rep.audit_violations += e.a;
        if (CycleReport* c = scoped_cycle(e)) {
          ++c->audits;
          c->audit_violations += e.a;
        }
        break;
      }
      case EventType::kHealthWarning: {
        if (e.a < kNumHealthKinds) ++rep.health_warnings[e.a];
        ++ensure_pe(e.pe).health_warnings;
        if (CycleReport* c = scoped_cycle(e)) ++c->health_warnings;
        break;
      }
      case EventType::kFaultInjected: {
        if (e.a < kNumFaultKinds) ++rep.faults_injected[e.a];
        break;
      }
      case EventType::kMsgRetransmit: {
        ++rep.retransmits;
        ++ensure_pe(e.pe).msg_retransmit;
        break;
      }
      case EventType::kMsgDupSuppressed: {
        ++rep.dup_suppressed;
        ++ensure_pe(e.pe).msg_dup_suppressed;
        break;
      }
      case EventType::kBatchFlush: {
        ++rep.batch_flushes;
        rep.msgs_batched += e.a;
        PeLoad& p = ensure_pe(e.pe);
        ++p.batch_flush;
        p.msg_batched += e.a;
        break;
      }
      case EventType::kTraceDrop: {
        rep.trace_dropped += e.a;
        rep.trace_events_omitted += e.b;
        break;
      }
      case EventType::kWorkerLost: {
        ++rep.workers_lost;
        break;
      }
      case EventType::kPartitionReassign: {
        ++rep.partition_reassigns;
        rep.pes_reassigned += e.a;
        break;
      }
      case EventType::kHandoffResync: {
        ++rep.handoff_resyncs;
        break;
      }
      case EventType::kSessionOpen:
      case EventType::kSessionChurn:
      case EventType::kSessionClose: {
        SessionSlo& s = rep.sessions;
        if (s.opened + s.churn + s.closed == 0) s.first_ts = e.ts;
        s.last_ts = e.ts;
        if (e.type == EventType::kSessionOpen) {
          ++s.opened;
          s.peak_live = std::max(s.peak_live, s.opened - s.closed);
        } else if (e.type == EventType::kSessionChurn) {
          ++s.churn;
        } else {
          ++s.closed;
        }
        break;
      }
      case EventType::kCount_:
        break;
    }
  }

  // Post-pass: work share, idle fraction, wave-latency summaries, and the
  // marks/returns evidence in each deadlock post-mortem (the phase totals
  // are only known once the cycle's phase_end events have been scanned).
  std::uint64_t total_samples = 0;
  for (const PeLoad& p : rep.pes)
    total_samples += p.wave_samples_r + p.wave_samples_t;
  const std::uint64_t denom =
      rep.complete_cycles ? rep.complete_cycles : rep.cycles.size();
  for (PeLoad& p : rep.pes) {
    if (total_samples)
      p.work_share =
          static_cast<double>(p.wave_samples_r + p.wave_samples_t) /
          static_cast<double>(total_samples);
    if (denom) {
      const std::uint64_t took = std::min<std::uint64_t>(
          p.cycles_participated, denom);
      p.idle_fraction =
          1.0 - static_cast<double>(took) / static_cast<double>(denom);
    }
  }
  rep.wave_r = summarize(lat_r);
  rep.wave_t = summarize(lat_t);
  if (rep.sessions.closed && rep.sessions.last_ts > rep.sessions.first_ts) {
    // Meaningful only when the trace clock is µs (threaded engine).
    rep.sessions.sessions_per_sec =
        static_cast<double>(rep.sessions.closed) * 1e6 /
        static_cast<double>(rep.sessions.last_ts - rep.sessions.first_ts);
  }
  for (DeadlockPostMortem& pm : rep.deadlocks) {
    auto it = cycle_index.find(pm.cycle);
    if (it == cycle_index.end()) continue;
    const CycleReport& c = rep.cycles[it->second];
    pm.mt_marks = c.mt.marks;
    pm.mt_returns = c.mt.returns;
    pm.mr_marks = c.mr.marks;
    pm.mr_returns = c.mr.returns;
  }
  return rep;
}

namespace {

// Minimal scanners for the fixed MetricsRegistry::to_json layout (flat keys,
// deterministic order — same contract from_jsonl relies on).
bool scan_u64_after(const std::string& s, std::size_t from, const char* key,
                    std::uint64_t* out) {
  const std::size_t k = s.find(key, from);
  if (k == std::string::npos) return false;
  const char* p = s.c_str() + k + std::strlen(key);
  char* end = nullptr;
  *out = std::strtoull(p, &end, 10);
  return end != p;
}

bool scan_double_after(const std::string& s, std::size_t from, const char* key,
                       double* out) {
  const std::size_t k = s.find(key, from);
  if (k == std::string::npos) return false;
  const char* p = s.c_str() + k + std::strlen(key);
  char* end = nullptr;
  *out = std::strtod(p, &end);
  return end != p;
}

bool scan_i64_after(const std::string& s, std::size_t from, const char* key,
                    std::int64_t* out) {
  const std::size_t k = s.find(key, from);
  if (k == std::string::npos) return false;
  const char* p = s.c_str() + k + std::strlen(key);
  char* end = nullptr;
  *out = std::strtoll(p, &end, 10);
  return end != p;
}

}  // namespace

bool enrich_with_metrics_json(TraceReport& report, const std::string& json) {
  std::uint64_t num_pes = 0;
  if (!scan_u64_after(json, 0, "\"num_pes\":", &num_pes) || num_pes == 0)
    return false;
  const std::size_t pes_at = json.find("\"pes\":[");
  if (pes_at == std::string::npos) return false;
  if (report.pes.size() < num_pes) {
    const std::size_t old = report.pes.size();
    report.pes.resize(num_pes);
    for (std::size_t i = old; i < num_pes; ++i)
      report.pes[i].pe = static_cast<std::uint16_t>(i);
    report.num_pes = static_cast<std::uint32_t>(num_pes);
  }
  std::size_t pos = pes_at;
  for (std::uint64_t pe = 0; pe < num_pes; ++pe) {
    char anchor[32];
    std::snprintf(anchor, sizeof(anchor), "{\"pe\":%llu,",
                  (unsigned long long)pe);
    const std::size_t at = json.find(anchor, pos);
    if (at == std::string::npos) return false;
    PeLoad& p = report.pes[pe];
    scan_u64_after(json, at, "\"mark_tasks\":", &p.mark_tasks);
    scan_u64_after(json, at, "\"return_tasks\":", &p.return_tasks);
    // Exact channel counts supersede the trace-derived approximation (the
    // ring may have dropped events; older dumps lack the keys — kept as-is).
    scan_u64_after(json, at, "\"msg_retransmit\":", &p.msg_retransmit);
    scan_u64_after(json, at, "\"msg_dup_suppressed\":", &p.msg_dup_suppressed);
    scan_u64_after(json, at, "\"msg_batched\":", &p.msg_batched);
    scan_u64_after(json, at, "\"batch_flush\":", &p.batch_flush);
    // Locality counters (older dumps lack the keys — left at zero).
    scan_u64_after(json, at, "\"remote_messages\":", &p.remote_messages);
    scan_u64_after(json, at, "\"local_messages\":", &p.local_messages);
    scan_u64_after(json, at, "\"boundary_dedup\":", &p.boundary_dedup);
    scan_u64_after(json, at, "\"steal_batches\":", &p.steal_batches);
    scan_u64_after(json, at, "\"steal_tasks\":", &p.steal_tasks);
    scan_u64_after(json, at, "\"edge_cut\":", &p.edge_cut);
    scan_u64_after(json, at, "\"edges_total\":", &p.edges_total);
    if (p.remote_messages + p.local_messages)
      p.remote_ratio =
          static_cast<double>(p.remote_messages) /
          static_cast<double>(p.remote_messages + p.local_messages);
    // The deepest mailbox/queue backlog the PE ever serviced.
    const std::size_t h = json.find("\"mark_queue_depth\":", at);
    if (h != std::string::npos) {
      double max_depth = 0.0;
      if (scan_double_after(json, h, "\"max\":", &max_depth))
        p.mailbox_high_water = static_cast<std::uint64_t>(max_depth);
    }
    // Mutator stall histogram: sum the sample counts, keep the worst
    // percentile across PEs (log-bucket percentiles don't merge exactly).
    const std::size_t st = json.find("\"mutator_stall_us\":", at);
    if (st != std::string::npos) {
      SessionSlo& s = report.sessions;
      std::uint64_t cnt = 0;
      double p50 = 0, p99 = 0, p999 = 0, mx = 0;
      if (scan_u64_after(json, st, "\"count\":", &cnt) && cnt) {
        s.stall_ops += cnt;
        if (scan_double_after(json, st, "\"p50\":", &p50))
          s.stall_p50_us = std::max(s.stall_p50_us, p50);
        if (scan_double_after(json, st, "\"p99\":", &p99))
          s.stall_p99_us = std::max(s.stall_p99_us, p99);
        if (scan_double_after(json, st, "\"p999\":", &p999))
          s.stall_p999_us = std::max(s.stall_p999_us, p999);
        if (scan_double_after(json, st, "\"max\":", &mx))
          s.stall_max_us = std::max(s.stall_max_us, mx);
      }
    }
    pos = at + 1;
  }
  // Session + stall-attribution totals (the "totals" object precedes "pes",
  // so a first-occurrence scan lands on it).
  {
    SessionSlo& s = report.sessions;
    const std::size_t tot = json.find("\"totals\":");
    if (tot != std::string::npos) {
      std::uint64_t u = 0;
      if (scan_u64_after(json, tot, "\"sessions_opened\":", &u) && u)
        s.opened = std::max(s.opened, u);
      if (scan_u64_after(json, tot, "\"sessions_closed\":", &u) && u)
        s.closed = std::max(s.closed, u);
      if (scan_u64_after(json, tot, "\"session_churn_ops\":", &u) && u)
        s.churn = std::max(s.churn, u);
      scan_u64_after(json, tot, "\"sessions_rejected\":", &s.rejected);
      scan_u64_after(json, tot, "\"mutator_stall_idle_ns\":", &s.stall_idle_ns);
      scan_u64_after(json, tot, "\"mutator_stall_mark_ns\":", &s.stall_mark_ns);
      scan_u64_after(json, tot, "\"mutator_stall_quiesce_ns\":",
                     &s.stall_quiesce_ns);
    }
  }
  // Cluster rollup: present only in ProcEngine::cluster_metrics_json dumps
  // (the "{\"worker\":N," anchor cannot collide with "{\"pe\":N," above).
  const std::size_t workers_at = json.find("\"workers\":[");
  if (workers_at != std::string::npos) {
    report.workers.clear();
    std::size_t wpos = workers_at;
    for (std::uint32_t w = 0;; ++w) {
      char anchor[32];
      std::snprintf(anchor, sizeof(anchor), "{\"worker\":%u,", w);
      const std::size_t at = json.find(anchor, wpos);
      if (at == std::string::npos) break;
      WorkerRow row;
      row.worker = w;
      std::uint64_t u = 0;
      if (scan_u64_after(json, at, "\"pe_begin\":", &u))
        row.pe_begin = static_cast<std::uint32_t>(u);
      if (scan_u64_after(json, at, "\"pe_count\":", &u))
        row.pe_count = static_cast<std::uint32_t>(u);
      // "owned_pes":[a,b,...] inside this worker's object only.
      const std::size_t next = json.find("{\"worker\":", at + 1);
      const std::size_t list = json.find("\"owned_pes\":[", at);
      if (list != std::string::npos && list < next) {
        const char* p = json.c_str() + list + std::strlen("\"owned_pes\":[");
        while (*p != ']' && *p != '\0') {
          char* end = nullptr;
          const unsigned long pe = std::strtoul(p, &end, 10);
          if (end == p) break;
          row.pes.push_back(static_cast<std::uint32_t>(pe));
          p = *end == ',' ? end + 1 : end;
        }
      } else {
        for (std::uint32_t i = 0; i < row.pe_count; ++i)
          row.pes.push_back(row.pe_begin + i);
      }
      scan_u64_after(json, at, "\"marks\":", &row.marks);
      scan_u64_after(json, at, "\"returns\":", &row.returns);
      scan_u64_after(json, at, "\"remote_messages\":", &row.remote_messages);
      scan_u64_after(json, at, "\"retransmits\":", &row.retransmits);
      scan_u64_after(json, at, "\"handoff_bytes\":", &row.handoff_bytes);
      scan_u64_after(json, at, "\"handoff_full_bytes\":",
                     &row.handoff_full_bytes);
      scan_u64_after(json, at, "\"handoff_delta_bytes\":",
                     &row.handoff_delta_bytes);
      scan_u64_after(json, at, "\"relayed_frames\":", &row.relayed_frames);
      scan_u64_after(json, at, "\"relayed_bytes\":", &row.relayed_bytes);
      scan_u64_after(json, at, "\"telemetry_msgs\":", &row.telemetry_msgs);
      scan_u64_after(json, at, "\"telemetry_dropped\":",
                     &row.telemetry_dropped);
      scan_i64_after(json, at, "\"clock_offset_us\":", &row.clock_offset_us);
      scan_u64_after(json, at, "\"clock_rtt_us\":", &row.clock_rtt_us);
      report.workers.push_back(row);
      wpos = at + 1;
    }
    // Membership summary (older dumps lack the object — left at zero).
    const std::size_t mem_at = json.find("\"membership\":{");
    if (mem_at != std::string::npos) {
      scan_u64_after(json, mem_at, "\"gen\":", &report.membership_gen);
      scan_u64_after(json, mem_at, "\"workers_live\":", &report.workers_live);
      scan_u64_after(json, mem_at, "\"workers_total\":",
                     &report.workers_total);
      std::uint64_t u = 0;
      if (scan_u64_after(json, mem_at, "\"worker_lost\":", &u))
        report.workers_lost = u;
      if (scan_u64_after(json, mem_at, "\"partition_reassigned\":", &u))
        report.pes_reassigned = u;
      if (scan_u64_after(json, mem_at, "\"handoff_resyncs\":", &u))
        report.handoff_resyncs = u;
    }
  }
  report.metrics_enriched = true;
  return true;
}

std::string report_to_json(const TraceReport& r) {
  std::string out = "{";
  append_kv(out, "events", r.events);
  append_kv(out, "num_pes", r.num_pes);
  out += "\"metrics_enriched\":";
  out += r.metrics_enriched ? "true," : "false,";
  append_kv(out, "complete_cycles", r.complete_cycles);
  append_kv(out, "audits", r.audits);
  append_kv(out, "audit_violations", r.audit_violations);
  append_kv(out, "retransmits", r.retransmits);
  append_kv(out, "dup_suppressed", r.dup_suppressed);
  append_kv(out, "msgs_batched", r.msgs_batched);
  append_kv(out, "batch_flushes", r.batch_flushes);
  append_kv(out, "trace_dropped", r.trace_dropped);
  append_kv(out, "trace_events_omitted", r.trace_events_omitted);
  append_kv(out, "workers_lost", r.workers_lost);
  append_kv(out, "partition_reassigns", r.partition_reassigns);
  append_kv(out, "pes_reassigned", r.pes_reassigned);
  append_kv(out, "handoff_resyncs", r.handoff_resyncs);
  append_kv(out, "membership_gen", r.membership_gen);
  append_kv(out, "workers_live", r.workers_live);
  append_kv(out, "workers_total", r.workers_total);
  out += "\"faults_injected\":{";
  for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
    if (i) out += ',';
    out += '"';
    out += fault_kind_name(static_cast<FaultKind>(i));
    out += "\":";
    append_u64(out, r.faults_injected[i]);
  }
  out += "},\"health_warnings\":{";
  for (std::size_t i = 0; i < kNumHealthKinds; ++i) {
    if (i) out += ',';
    out += '"';
    out += health_kind_name(static_cast<HealthKind>(i));
    out += "\":";
    append_u64(out, r.health_warnings[i]);
  }
  out += "},\"cycles\":[";
  for (std::size_t i = 0; i < r.cycles.size(); ++i) {
    const CycleReport& c = r.cycles[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "cycle", c.cycle);
    out += "\"complete\":";
    out += c.complete ? "true," : "false,";
    append_kv(out, "start_ts", c.start_ts);
    append_kv(out, "end_ts", c.end_ts);
    append_kv(out, "duration", c.duration());
    for (const auto& pr : {std::pair<const char*, const PhaseReport*>{
                               "mt", &c.mt},
                           {"mr", &c.mr}}) {
      out += '"';
      out += pr.first;
      out += "\":{\"ran\":";
      out += pr.second->ran ? "true," : "false,";
      append_kv(out, "begin_ts", pr.second->begin_ts);
      append_kv(out, "end_ts", pr.second->end_ts);
      append_kv(out, "duration", pr.second->duration());
      append_kv(out, "marks", pr.second->marks);
      append_kv(out, "returns", pr.second->returns, false);
      out += "},";
    }
    append_kv(out, "rescue_waves", c.rescue_waves);
    append_kv(out, "rescue_queued", c.rescue_queued);
    append_kv(out, "coop_taints", c.coop_taints);
    append_kv(out, "swept", c.swept);
    append_kv(out, "expunged", c.expunged);
    append_kv(out, "reprioritized", c.reprioritized);
    out += "\"deadlock_report\":";
    out += c.deadlock_report ? "true," : "false,";
    append_kv(out, "deadlocked", c.deadlocked_count);
    append_kv(out, "audits", c.audits);
    append_kv(out, "audit_violations", c.audit_violations);
    append_kv(out, "health_warnings", c.health_warnings, false);
    out += '}';
  }
  out += "],\"pes\":[";
  for (std::size_t i = 0; i < r.pes.size(); ++i) {
    const PeLoad& p = r.pes[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "pe", p.pe);
    append_kv(out, "wave_samples_r", p.wave_samples_r);
    append_kv(out, "wave_samples_t", p.wave_samples_t);
    out += "\"work_share\":";
    append_double(out, p.work_share);
    out += ',';
    append_kv(out, "cycles_participated", p.cycles_participated);
    out += "\"idle_fraction\":";
    append_double(out, p.idle_fraction);
    out += ',';
    append_kv(out, "rescue_queued", p.rescue_queued);
    append_kv(out, "coop_taints", p.coop_taints);
    append_kv(out, "health_warnings", p.health_warnings);
    append_kv(out, "msg_retransmit", p.msg_retransmit);
    append_kv(out, "msg_dup_suppressed", p.msg_dup_suppressed);
    append_kv(out, "msg_batched", p.msg_batched);
    append_kv(out, "batch_flush", p.batch_flush);
    append_kv(out, "mark_tasks", p.mark_tasks);
    append_kv(out, "return_tasks", p.return_tasks);
    append_kv(out, "mailbox_high_water", p.mailbox_high_water);
    append_kv(out, "remote_messages", p.remote_messages);
    append_kv(out, "local_messages", p.local_messages);
    out += "\"remote_ratio\":";
    append_double(out, p.remote_ratio);
    out += ',';
    append_kv(out, "boundary_dedup", p.boundary_dedup);
    append_kv(out, "steal_batches", p.steal_batches);
    append_kv(out, "steal_tasks", p.steal_tasks);
    append_kv(out, "edge_cut", p.edge_cut);
    append_kv(out, "edges_total", p.edges_total, false);
    out += '}';
  }
  out += "],";
  for (const auto& wl : {std::pair<const char*, const WaveLatency*>{
                             "wave_latency_r", &r.wave_r},
                         {"wave_latency_t", &r.wave_t}}) {
    out += '"';
    out += wl.first;
    out += "\":{";
    append_kv(out, "samples", wl.second->samples);
    out += "\"p50\":";
    append_double(out, wl.second->p50);
    out += ",\"p99\":";
    append_double(out, wl.second->p99);
    out += ",\"max\":";
    append_double(out, wl.second->max);
    out += "},";
  }
  out += "\"workers\":[";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const WorkerRow& w = r.workers[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "worker", w.worker);
    append_kv(out, "pe_begin", w.pe_begin);
    append_kv(out, "pe_count", w.pe_count);
    out += "\"owned_pes\":[";
    for (std::size_t j = 0; j < w.pes.size(); ++j) {
      if (j) out += ',';
      out += std::to_string(w.pes[j]);
    }
    out += "],";
    append_kv(out, "marks", w.marks);
    append_kv(out, "returns", w.returns);
    append_kv(out, "remote_messages", w.remote_messages);
    append_kv(out, "retransmits", w.retransmits);
    append_kv(out, "handoff_bytes", w.handoff_bytes);
    append_kv(out, "handoff_full_bytes", w.handoff_full_bytes);
    append_kv(out, "handoff_delta_bytes", w.handoff_delta_bytes);
    append_kv(out, "relayed_frames", w.relayed_frames);
    append_kv(out, "relayed_bytes", w.relayed_bytes);
    append_kv(out, "telemetry_msgs", w.telemetry_msgs);
    append_kv(out, "telemetry_dropped", w.telemetry_dropped);
    out += "\"clock_offset_us\":";
    {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld", (long long)w.clock_offset_us);
      out += buf;
    }
    out += ',';
    append_kv(out, "clock_rtt_us", w.clock_rtt_us, false);
    out += '}';
  }
  out += "],\"sessions\":{";
  {
    const SessionSlo& s = r.sessions;
    append_kv(out, "opened", s.opened);
    append_kv(out, "closed", s.closed);
    append_kv(out, "churn", s.churn);
    append_kv(out, "peak_live", s.peak_live);
    append_kv(out, "rejected", s.rejected);
    append_kv(out, "first_ts", s.first_ts);
    append_kv(out, "last_ts", s.last_ts);
    out += "\"sessions_per_sec\":";
    append_double(out, s.sessions_per_sec);
    out += ',';
    append_kv(out, "stall_ops", s.stall_ops);
    out += "\"stall_p50_us\":";
    append_double(out, s.stall_p50_us);
    out += ",\"stall_p99_us\":";
    append_double(out, s.stall_p99_us);
    out += ",\"stall_p999_us\":";
    append_double(out, s.stall_p999_us);
    out += ",\"stall_max_us\":";
    append_double(out, s.stall_max_us);
    out += ",\"stall_idle_us\":";
    append_double(out, static_cast<double>(s.stall_idle_ns) / 1e3);
    out += ",\"stall_mark_us\":";
    append_double(out, static_cast<double>(s.stall_mark_ns) / 1e3);
    out += ",\"stall_quiesce_us\":";
    append_double(out, static_cast<double>(s.stall_quiesce_ns) / 1e3);
  }
  out += "},\"deadlocks\":[";
  for (std::size_t i = 0; i < r.deadlocks.size(); ++i) {
    const DeadlockPostMortem& d = r.deadlocks[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "cycle", d.cycle);
    append_kv(out, "report_ts", d.report_ts);
    append_kv(out, "count", d.count);
    append_kv(out, "mt_marks", d.mt_marks);
    append_kv(out, "mt_returns", d.mt_returns);
    append_kv(out, "mr_marks", d.mr_marks);
    append_kv(out, "mr_returns", d.mr_returns);
    out += "\"vertices\":[";
    for (std::size_t j = 0; j < d.vertices.size(); ++j) {
      if (j) out += ',';
      out += "{\"pe\":";
      append_u64(out, d.vertices[j].first);
      out += ",\"idx\":";
      append_u64(out, d.vertices[j].second);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

namespace {

void line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
  out += '\n';
}

}  // namespace

std::string report_to_text(const TraceReport& r) {
  std::string out;
  line(out, "== trace summary ==");
  line(out, "events %llu | pes %u | cycles %zu (%llu complete)",
       (unsigned long long)r.events, r.num_pes, r.cycles.size(),
       (unsigned long long)r.complete_cycles);
  if (r.audits)
    line(out, "audits %llu (%llu violations)", (unsigned long long)r.audits,
         (unsigned long long)r.audit_violations);
  if (r.trace_dropped || r.trace_events_omitted)
    line(out,
         "TRACE LOSS: %llu ring overwrites, %llu over payload cap (counts "
         "below undercount)",
         (unsigned long long)r.trace_dropped,
         (unsigned long long)r.trace_events_omitted);

  line(out, "");
  line(out, "== cycles ==");
  line(out,
       "%6s %9s %9s | %9s %9s | %9s %9s | %7s %6s %7s %6s %5s",
       "cycle", "dur", "rescues", "mt-dur", "mt-marks", "mr-dur", "mr-marks",
       "swept", "expng", "reprio", "dlck", "note");
  for (const CycleReport& c : r.cycles) {
    std::string note;
    if (!c.complete) note = "partial";
    if (c.audit_violations) note += note.empty() ? "VIOL" : "+VIOL";
    if (c.health_warnings) note += note.empty() ? "warn" : "+warn";
    line(out,
         "%6llu %9llu %9llu | %9llu %9llu | %9llu %9llu | %7llu %6llu %7llu "
         "%6llu %5s",
         (unsigned long long)c.cycle, (unsigned long long)c.duration(),
         (unsigned long long)c.rescue_waves,
         (unsigned long long)c.mt.duration(), (unsigned long long)c.mt.marks,
         (unsigned long long)c.mr.duration(), (unsigned long long)c.mr.marks,
         (unsigned long long)c.swept, (unsigned long long)c.expunged,
         (unsigned long long)c.reprioritized,
         (unsigned long long)c.deadlocked_count, note.c_str());
  }

  line(out, "");
  line(out, "== per-PE load ==");
  if (r.metrics_enriched)
    line(out, "%4s %8s %8s %7s %7s %6s %8s %8s %8s %6s %6s %8s %6s", "pe",
         "waves", "share", "cycles", "idle", "rescq", "marks", "returns",
         "mbox-hw", "retx", "dupsup", "batched", "bflush");
  else
    line(out,
         "%4s %8s %8s %7s %7s %6s %6s %6s %8s %6s   (run with --metrics "
         "for task counts)",
         "pe", "waves", "share", "cycles", "idle", "rescq", "retx", "dupsup",
         "batched", "bflush");
  for (const PeLoad& p : r.pes) {
    if (r.metrics_enriched)
      line(out,
           "%4u %8llu %7.1f%% %7llu %6.1f%% %6llu %8llu %8llu %8llu %6llu "
           "%6llu %8llu %6llu",
           p.pe, (unsigned long long)(p.wave_samples_r + p.wave_samples_t),
           100.0 * p.work_share, (unsigned long long)p.cycles_participated,
           100.0 * p.idle_fraction, (unsigned long long)p.rescue_queued,
           (unsigned long long)p.mark_tasks, (unsigned long long)p.return_tasks,
           (unsigned long long)p.mailbox_high_water,
           (unsigned long long)p.msg_retransmit,
           (unsigned long long)p.msg_dup_suppressed,
           (unsigned long long)p.msg_batched,
           (unsigned long long)p.batch_flush);
    else
      line(out,
           "%4u %8llu %7.1f%% %7llu %6.1f%% %6llu %6llu %6llu %8llu %6llu",
           p.pe, (unsigned long long)(p.wave_samples_r + p.wave_samples_t),
           100.0 * p.work_share, (unsigned long long)p.cycles_participated,
           100.0 * p.idle_fraction, (unsigned long long)p.rescue_queued,
           (unsigned long long)p.msg_retransmit,
           (unsigned long long)p.msg_dup_suppressed,
           (unsigned long long)p.msg_batched,
           (unsigned long long)p.batch_flush);
  }

  std::uint64_t fault_total = 0;
  for (std::uint64_t f : r.faults_injected) fault_total += f;
  if (fault_total || r.retransmits || r.dup_suppressed) {
    line(out, "");
    line(out, "== reliable delivery ==");
    std::string fs = "faults injected:";
    for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %s %llu",
                    fault_kind_name(static_cast<FaultKind>(i)),
                    (unsigned long long)r.faults_injected[i]);
      fs += buf;
    }
    line(out, "%s", fs.c_str());
    line(out, "retransmits %llu | duplicates suppressed %llu",
         (unsigned long long)r.retransmits,
         (unsigned long long)r.dup_suppressed);
  }

  // Batching rollup: trace-event totals, superseded by the exact per-PE
  // registry counts when --metrics enrichment ran.
  std::uint64_t msgs = r.msgs_batched;
  std::uint64_t flushes = r.batch_flushes;
  if (r.metrics_enriched) {
    msgs = flushes = 0;
    for (const PeLoad& p : r.pes) {
      msgs += p.msg_batched;
      flushes += p.batch_flush;
    }
  }
  if (msgs || flushes) {
    line(out, "");
    line(out, "== message batching ==");
    line(out, "messages batched %llu | flushes %llu (avg %.1f msgs/flush)",
         (unsigned long long)msgs, (unsigned long long)flushes,
         flushes ? static_cast<double>(msgs) / static_cast<double>(flushes)
                 : 0.0);
  }

  // Locality rollup (per-PE counters exist only after --metrics enrichment;
  // all-zero rows mean a pre-locality dump or the SimEngine).
  std::uint64_t loc_remote = 0, loc_local = 0, loc_dedup = 0;
  std::uint64_t loc_sbatch = 0, loc_stask = 0, loc_cut = 0, loc_edges = 0;
  for (const PeLoad& p : r.pes) {
    loc_remote += p.remote_messages;
    loc_local += p.local_messages;
    loc_dedup += p.boundary_dedup;
    loc_sbatch += p.steal_batches;
    loc_stask += p.steal_tasks;
    loc_cut += p.edge_cut;
    loc_edges += p.edges_total;
  }
  if (loc_remote + loc_local + loc_dedup + loc_stask + loc_edges) {
    line(out, "");
    line(out, "== locality ==");
    line(out, "%4s %10s %10s %8s %10s %8s %10s %7s", "pe", "remote", "local",
         "remote%", "dedup", "steals", "stolen", "cut%");
    for (const PeLoad& p : r.pes) {
      const double cut_pct =
          p.edges_total ? 100.0 * static_cast<double>(p.edge_cut) /
                              static_cast<double>(p.edges_total)
                        : 0.0;
      line(out, "%4u %10llu %10llu %7.1f%% %10llu %8llu %10llu %6.1f%%", p.pe,
           (unsigned long long)p.remote_messages,
           (unsigned long long)p.local_messages, 100.0 * p.remote_ratio,
           (unsigned long long)p.boundary_dedup,
           (unsigned long long)p.steal_batches,
           (unsigned long long)p.steal_tasks, cut_pct);
    }
    std::uint64_t marks = 0;
    for (const PeLoad& p : r.pes) marks += p.mark_tasks;
    line(out,
         "total: remote %llu | local %llu (%.1f%% remote, %.2f remote msgs "
         "per mark task) | boundary dedup %llu | stolen %llu in %llu batches "
         "| edge cut %llu/%llu (%.1f%%)",
         (unsigned long long)loc_remote, (unsigned long long)loc_local,
         loc_remote + loc_local
             ? 100.0 * static_cast<double>(loc_remote) /
                   static_cast<double>(loc_remote + loc_local)
             : 0.0,
         marks ? static_cast<double>(loc_remote) / static_cast<double>(marks)
               : 0.0,
         (unsigned long long)loc_dedup, (unsigned long long)loc_stask,
         (unsigned long long)loc_sbatch, (unsigned long long)loc_cut,
         (unsigned long long)loc_edges,
         loc_edges ? 100.0 * static_cast<double>(loc_cut) /
                         static_cast<double>(loc_edges)
                   : 0.0);
  }

  if (!r.workers.empty()) {
    line(out, "");
    line(out, "== cluster ==");
    line(out, "%6s %9s %9s %9s %8s %6s %10s %8s %10s %6s %9s %9s %9s",
         "worker", "pes", "marks", "returns", "remote", "retx", "handoff-B",
         "relay", "relay-B", "tele", "tele-drop", "clk-off", "clk-rtt");
    for (const WorkerRow& w : r.workers) {
      // The owned set as {1,3}; "-" for a worker that owns none.
      std::string pes = w.pes.empty() ? "-" : "{";
      for (std::size_t j = 0; j < w.pes.size(); ++j)
        pes += std::to_string(w.pes[j]) + (j + 1 < w.pes.size() ? "," : "}");
      line(out,
           "%6u %9s %9llu %9llu %8llu %6llu %10llu %8llu %10llu %6llu %9llu "
           "%8lldus %7lluus",
           w.worker, pes.c_str(), (unsigned long long)w.marks,
           (unsigned long long)w.returns,
           (unsigned long long)w.remote_messages,
           (unsigned long long)w.retransmits,
           (unsigned long long)w.handoff_bytes,
           (unsigned long long)w.relayed_frames,
           (unsigned long long)w.relayed_bytes,
           (unsigned long long)w.telemetry_msgs,
           (unsigned long long)w.telemetry_dropped,
           (long long)w.clock_offset_us, (unsigned long long)w.clock_rtt_us);
    }
    std::uint64_t tele_drop = 0, full_b = 0, delta_b = 0;
    for (const WorkerRow& w : r.workers) {
      tele_drop += w.telemetry_dropped;
      full_b += w.handoff_full_bytes;
      delta_b += w.handoff_delta_bytes;
    }
    if (tele_drop)
      line(out, "telemetry drops %llu (worker rings or payload cap)",
           (unsigned long long)tele_drop);
    else
      line(out, "telemetry complete: no drops");
    if (full_b + delta_b)
      line(out, "handoff bytes: full %llu | delta %llu (%.1f%% of full)",
           (unsigned long long)full_b, (unsigned long long)delta_b,
           full_b ? 100.0 * static_cast<double>(delta_b) /
                        static_cast<double>(full_b)
                  : 0.0);
    if (r.membership_gen || r.workers_lost || r.handoff_resyncs ||
        (r.workers_total && r.workers_live != r.workers_total)) {
      line(out,
           "membership: gen %llu | lost %llu | PEs reassigned %llu | "
           "resyncs %llu | live %llu/%llu",
           (unsigned long long)r.membership_gen,
           (unsigned long long)r.workers_lost,
           (unsigned long long)r.pes_reassigned,
           (unsigned long long)r.handoff_resyncs,
           (unsigned long long)r.workers_live,
           (unsigned long long)r.workers_total);
    }
  }

  // Session-workload SLO rollup: trace events give the session ledger; the
  // stall histogram and phase attribution need --metrics enrichment.
  if (r.sessions.opened || r.sessions.stall_ops) {
    const SessionSlo& s = r.sessions;
    line(out, "");
    line(out, "== sessions ==");
    line(out,
         "opened %llu | closed %llu | peak live %llu | churn ops %llu | "
         "rejected %llu",
         (unsigned long long)s.opened, (unsigned long long)s.closed,
         (unsigned long long)s.peak_live, (unsigned long long)s.churn,
         (unsigned long long)s.rejected);
    if (s.sessions_per_sec > 0.0)
      line(out, "throughput %.1f sessions/s over %llu clock units",
           s.sessions_per_sec, (unsigned long long)(s.last_ts - s.first_ts));
    if (s.stall_ops) {
      line(out,
           "mutator stall: %llu ops | p50 %.4gus | p99 %.4gus | p99.9 %.4gus "
           "| max %.4gus",
           (unsigned long long)s.stall_ops, s.stall_p50_us, s.stall_p99_us,
           s.stall_p999_us, s.stall_max_us);
      const std::uint64_t total_ns =
          s.stall_idle_ns + s.stall_mark_ns + s.stall_quiesce_ns;
      const auto us = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1e3;
      };
      const auto pct = [&](std::uint64_t ns) {
        return 100.0 * static_cast<double>(ns) / static_cast<double>(total_ns);
      };
      if (total_ns)
        line(out,
             "stall attribution: idle %.1f us (%.1f%%) | marking %.1f us "
             "(%.1f%%) | quiesce %.1f us (%.1f%%)",
             us(s.stall_idle_ns), pct(s.stall_idle_ns), us(s.stall_mark_ns),
             pct(s.stall_mark_ns), us(s.stall_quiesce_ns),
             pct(s.stall_quiesce_ns));
    } else if (!r.metrics_enriched) {
      line(out, "(run with --metrics for stall percentiles and attribution)");
    }
  }

  line(out, "");
  line(out, "== wave propagation latency (phase begin -> first wave sample) ==");
  for (const auto& wl : {std::pair<const char*, const WaveLatency*>{
                             "M_R", &r.wave_r},
                         {"M_T", &r.wave_t}}) {
    line(out, "%4s: samples %llu | p50 %.0f | p99 %.0f | max %.0f", wl.first,
         (unsigned long long)wl.second->samples, wl.second->p50,
         wl.second->p99, wl.second->max);
  }

  if (!r.deadlocks.empty()) {
    line(out, "");
    line(out, "== deadlock post-mortem ==");
    for (const DeadlockPostMortem& d : r.deadlocks) {
      line(out,
           "cycle %llu (ts %llu): DL'_v = R'_v - T' named %llu vertices",
           (unsigned long long)d.cycle, (unsigned long long)d.report_ts,
           (unsigned long long)d.count);
      line(out,
           "  evidence: M_T traced the task-reachable set T' (%llu marks, "
           "%llu returns);",
           (unsigned long long)d.mt_marks, (unsigned long long)d.mt_returns);
      line(out,
           "            M_R traced the requested set R' (%llu marks, %llu "
           "returns);",
           (unsigned long long)d.mr_marks, (unsigned long long)d.mr_returns);
      line(out,
           "  each vertex below is vitally requested yet unreachable from "
           "any task (Theorem 2):");
      std::string vs = "  deadlocked:";
      for (const auto& [pe, idx] : d.vertices) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %u:%llu", pe,
                      (unsigned long long)idx);
        vs += buf;
      }
      line(out, "%s", vs.c_str());
    }
  }

  std::uint64_t warn_total = 0;
  for (std::uint64_t w : r.health_warnings) warn_total += w;
  if (warn_total || r.audits) {
    line(out, "");
    line(out, "== health ==");
    for (std::size_t i = 0; i < kNumHealthKinds; ++i)
      if (r.health_warnings[i])
        line(out, "%-18s %llu", health_kind_name(static_cast<HealthKind>(i)),
             (unsigned long long)r.health_warnings[i]);
    if (!warn_total) line(out, "no health warnings");
  }
  return out;
}

}  // namespace dgr::obs
