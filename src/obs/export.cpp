#include "obs/export.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/fault_plane.h"  // fault_kind_name (header-only; no dgr_net link)

namespace dgr::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
  out += buf;
}

const char* plane_name(Plane p) { return p == Plane::kR ? "R" : "T"; }

void append_event(std::string& out, const TraceEvent& e) {
  out += "{\"ts\":";
  append_u64(out, e.ts);
  out += ",\"type\":\"";
  out += event_name(e.type);
  out += "\",\"plane\":\"";
  out += plane_name(e.plane);
  out += "\",\"pe\":";
  append_u64(out, e.pe);
  out += ",\"cycle\":";
  append_u64(out, e.cycle);
  out += ",\"a\":";
  append_u64(out, e.a);
  out += ",\"b\":";
  append_u64(out, e.b);
  out += "}";
}

// Minimal field scanners for from_jsonl (fixed format, no nesting).
bool scan_u64(const std::string& line, const char* key, std::uint64_t* out) {
  const std::size_t k = line.find(key);
  if (k == std::string::npos) return false;
  const char* p = line.c_str() + k + std::strlen(key);
  char* end = nullptr;
  *out = std::strtoull(p, &end, 10);
  return end != p;
}

bool scan_str(const std::string& line, const char* key, std::string* out) {
  const std::size_t k = line.find(key);
  if (k == std::string::npos) return false;
  const std::size_t start = k + std::strlen(key);
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

}  // namespace

std::string to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 80);
  for (const TraceEvent& e : events) {
    append_event(out, e);
    out += '\n';
  }
  return out;
}

std::vector<TraceEvent> from_jsonl(const std::string& text) {
  std::vector<TraceEvent> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    TraceEvent e;
    std::string type, plane;
    std::uint64_t pe = 0;
    if (!scan_u64(line, "\"ts\":", &e.ts) ||
        !scan_str(line, "\"type\":\"", &type) ||
        !scan_str(line, "\"plane\":\"", &plane) ||
        !scan_u64(line, "\"pe\":", &pe) ||
        !scan_u64(line, "\"cycle\":", &e.cycle) ||
        !scan_u64(line, "\"a\":", &e.a) || !scan_u64(line, "\"b\":", &e.b))
      continue;
    bool known = false;
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      if (type == event_name(static_cast<EventType>(i))) {
        e.type = static_cast<EventType>(i);
        known = true;
        break;
      }
    }
    if (!known) continue;
    e.plane = plane == "T" ? Plane::kT : Plane::kR;
    e.pe = static_cast<std::uint16_t>(pe);
    out.push_back(e);
  }
  return out;
}

namespace {

// Chrome trace_event helpers. pid 0 is the in-process engine (or the
// cluster controller); pid w+1 is worker w. tid = PE, tid = num_pes is the
// controller/engine track within each process lane.
void chrome_process_meta(std::string& out, std::uint32_t pid,
                         const char* name) {
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  append_u64(out, pid);
  out += ",\"args\":{\"name\":\"";
  out += name;
  out += "\"}},\n";
}

void chrome_meta(std::string& out, std::uint32_t pid, std::uint32_t tid,
                 const char* name) {
  out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":";
  append_u64(out, tid);
  out += ",\"args\":{\"name\":\"";
  out += name;
  out += "\"}},\n";
}

void chrome_span(std::string& out, std::uint32_t pid, const std::string& name,
                 std::uint64_t ts, std::uint64_t dur, std::uint32_t tid,
                 const std::string& args_json) {
  out += "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"X\",\"ts\":";
  append_u64(out, ts);
  out += ",\"dur\":";
  append_u64(out, dur ? dur : 1);
  out += ",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":";
  append_u64(out, tid);
  out += ",\"args\":";
  out += args_json;
  out += "},\n";
}

void chrome_instant(std::string& out, std::uint32_t pid,
                    const std::string& name, std::uint64_t ts,
                    std::uint32_t tid, const std::string& args_json) {
  out += "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  append_u64(out, ts);
  out += ",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":";
  append_u64(out, tid);
  out += ",\"args\":";
  out += args_json;
  out += "},\n";
}

void chrome_counter(std::string& out, std::uint32_t pid,
                    const std::string& name, std::uint64_t ts,
                    std::uint64_t value) {
  out += "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"C\",\"ts\":";
  append_u64(out, ts);
  out += ",\"pid\":";
  append_u64(out, pid);
  out += ",\"args\":{\"marks\":";
  append_u64(out, value);
  out += "}},\n";
}

std::string one_arg(const char* key, std::uint64_t v) {
  std::string s = "{\"";
  s += key;
  s += "\":";
  append_u64(s, v);
  s += "}";
  return s;
}

// One process lane's events: pair begin/end events into spans, render the
// rest as instants/counters, close anything a truncated trace left open.
void chrome_emit_events(std::string& out, const std::vector<TraceEvent>& events,
                        std::uint32_t num_pes, std::uint32_t pid) {
  const std::uint32_t ctl = num_pes;  // controller track id

  // Pair begin/end events into spans; everything else becomes instants.
  std::uint64_t cycle_ts = 0, cycle_no = 0, last_ts = 0;
  bool cycle_open = false;
  std::uint64_t phase_ts[2] = {0, 0};
  bool phase_open[2] = {false, false};

  for (const TraceEvent& e : events) {
    last_ts = e.ts;
    const int pl = static_cast<int>(e.plane);
    switch (e.type) {
      case EventType::kCycleStart:
        cycle_ts = e.ts;
        cycle_no = e.cycle;
        cycle_open = true;
        break;
      case EventType::kCycleEnd: {
        char name[32];
        std::snprintf(name, sizeof(name), "cycle %llu",
                      (unsigned long long)e.cycle);
        std::string args = "{\"swept\":";
        append_u64(args, e.a);
        args += ",\"expunged\":";
        append_u64(args, e.b);
        args += "}";
        chrome_span(out, pid, name, cycle_open ? cycle_ts : e.ts,
                    cycle_open ? e.ts - cycle_ts : 0, ctl, args);
        cycle_open = false;
        break;
      }
      case EventType::kPhaseBegin:
        phase_ts[pl] = e.ts;
        phase_open[pl] = true;
        break;
      case EventType::kPhaseEnd: {
        const std::string name =
            e.plane == Plane::kR ? "M_R" : "M_T";
        std::string args = "{\"marks\":";
        append_u64(args, e.a);
        args += ",\"returns\":";
        append_u64(args, e.b);
        args += "}";
        chrome_span(out, pid, name, phase_open[pl] ? phase_ts[pl] : e.ts,
                    phase_open[pl] ? e.ts - phase_ts[pl] : 0, ctl, args);
        phase_open[pl] = false;
        break;
      }
      case EventType::kWaveFront: {
        char cname[32];
        std::snprintf(cname, sizeof(cname), "marks[%s] PE %u",
                      plane_name(e.plane), e.pe);
        chrome_counter(out, pid, cname, e.ts, e.a);
        break;
      }
      case EventType::kRescueWave:
        chrome_instant(out, pid, std::string("rescue_wave ") + plane_name(e.plane),
                       e.ts, ctl, one_arg("seeds", e.a));
        break;
      case EventType::kRescueQueued:
        chrome_instant(out, pid,
                       std::string("rescue_queued ") + plane_name(e.plane),
                       e.ts, e.pe, one_arg("vertex", e.a));
        break;
      case EventType::kCoopTaint:
        chrome_instant(out, pid, std::string("coop_taint ") + plane_name(e.plane),
                       e.ts, e.pe, "{}");
        break;
      case EventType::kSweep:
        chrome_instant(out, pid, "sweep", e.ts, ctl, one_arg("freed", e.a));
        break;
      case EventType::kExpunge:
        chrome_instant(out, pid, "expunge", e.ts, ctl, one_arg("tasks", e.a));
        break;
      case EventType::kReprioritize:
        chrome_instant(out, pid, "reprioritize", e.ts, ctl, one_arg("tasks", e.a));
        break;
      case EventType::kDeadlockReport:
        chrome_instant(out, pid, "deadlock_report", e.ts, ctl,
                       one_arg("deadlocked", e.a));
        break;
      case EventType::kDeadlockVertex: {
        char name[48];
        std::snprintf(name, sizeof(name), "deadlocked %u:%llu", e.pe,
                      (unsigned long long)e.a);
        chrome_instant(out, pid, name, e.ts, e.pe, one_arg("idx", e.a));
        break;
      }
      case EventType::kAudit:
        chrome_instant(out, pid, "audit", e.ts, ctl, one_arg("violations", e.a));
        break;
      case EventType::kHealthWarning:
        chrome_instant(
            out, pid,
            std::string("health: ") +
                health_kind_name(static_cast<HealthKind>(
                    e.a < kNumHealthKinds ? e.a : kNumHealthKinds)),
            e.ts, e.pe, one_arg("detail", e.b));
        break;
      case EventType::kFaultInjected:
        chrome_instant(
            out, pid,
            std::string("fault: ") +
                fault_kind_name(static_cast<FaultKind>(
                    e.a < kNumFaultKinds ? e.a : kNumFaultKinds)),
            e.ts, e.pe, one_arg("bytes", e.b));
        break;
      case EventType::kMsgRetransmit:
        chrome_instant(out, pid, "retransmit", e.ts, e.pe, one_arg("seq", e.a));
        break;
      case EventType::kMsgDupSuppressed:
        chrome_instant(out, pid, "dup_suppressed", e.ts, e.pe,
                       one_arg("seq", e.a));
        break;
      case EventType::kBatchFlush: {
        std::string args = "{\"messages\":";
        append_u64(args, e.a);
        args += ",\"bytes\":";
        append_u64(args, e.b);
        args += "}";
        chrome_instant(out, pid, "batch_flush", e.ts, e.pe, args);
        break;
      }
      case EventType::kTraceDrop: {
        std::string args = "{\"ring_dropped\":";
        append_u64(args, e.a);
        args += ",\"omitted\":";
        append_u64(args, e.b);
        args += "}";
        chrome_instant(out, pid, "trace_drop", e.ts, e.pe, args);
        break;
      }
      case EventType::kWorkerLost: {
        std::string args = "{\"worker\":";
        append_u64(args, e.a);
        args += ",\"gen\":";
        append_u64(args, e.b);
        args += "}";
        chrome_instant(out, pid, "worker_lost", e.ts, e.pe, args);
        break;
      }
      case EventType::kPartitionReassign: {
        std::string args = "{\"pes_moved\":";
        append_u64(args, e.a);
        args += ",\"survivors\":";
        append_u64(args, e.b);
        args += "}";
        chrome_instant(out, pid, "partition_reassign", e.ts, e.pe, args);
        break;
      }
      case EventType::kHandoffResync: {
        std::string args = "{\"worker\":";
        append_u64(args, e.a);
        args += ",\"seq\":";
        append_u64(args, e.b);
        args += "}";
        chrome_instant(out, pid, "handoff_resync", e.ts, e.pe, args);
        break;
      }
      case EventType::kSessionOpen: {
        std::string args = "{\"session\":";
        append_u64(args, e.a);
        args += ",\"size\":";
        append_u64(args, e.b);
        args += "}";
        chrome_instant(out, pid, "session_open", e.ts, e.pe, args);
        break;
      }
      case EventType::kSessionChurn: {
        std::string args = "{\"session\":";
        append_u64(args, e.a);
        args += ",\"op\":";
        append_u64(args, e.b >> 32);
        args += ",\"hot\":";
        append_u64(args, e.b & 0xffffffffull);
        args += "}";
        chrome_instant(out, pid, "session_churn", e.ts, e.pe, args);
        break;
      }
      case EventType::kSessionClose: {
        std::string args = "{\"session\":";
        append_u64(args, e.a);
        args += ",\"ticks_lived\":";
        append_u64(args, e.b);
        args += "}";
        chrome_instant(out, pid, "session_close", e.ts, e.pe, args);
        break;
      }
      case EventType::kCount_:
        break;
    }
  }
  // Close any span left open by a truncated trace.
  for (int pl = 0; pl < 2; ++pl) {
    if (!phase_open[pl]) continue;
    chrome_span(out, pid, pl == 0 ? "M_R (unfinished)" : "M_T (unfinished)",
                phase_ts[pl], last_ts - phase_ts[pl], ctl, "{}");
  }
  if (cycle_open) {
    char name[48];
    std::snprintf(name, sizeof(name), "cycle %llu (unfinished)",
                  (unsigned long long)cycle_no);
    chrome_span(out, pid, name, cycle_ts, last_ts - cycle_ts, ctl, "{}");
  }
}

// PE + controller thread metas for one process lane. When `only_used` is set
// only tids that actually appear in `events` get a name (worker lanes own a
// PE slice; naming every PE in every lane would clutter the timeline).
void chrome_thread_metas(std::string& out, const std::vector<TraceEvent>& events,
                         std::uint32_t num_pes, std::uint32_t pid,
                         bool only_used) {
  std::vector<bool> used(num_pes, !only_used);
  if (only_used) {
    for (const TraceEvent& e : events)
      if (e.pe < num_pes) used[e.pe] = true;
  }
  for (std::uint32_t pe = 0; pe < num_pes; ++pe) {
    if (!used[pe]) continue;
    char name[16];
    std::snprintf(name, sizeof(name), "PE %u", pe);
    chrome_meta(out, pid, pe, name);
  }
  chrome_meta(out, pid, num_pes, "controller");
}

void chrome_close(std::string& out) {
  // Strip the trailing ",\n" so the array is valid JSON.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::uint32_t num_pes) {
  std::string out = "{\"traceEvents\":[\n";
  chrome_process_meta(out, 0, "dgr");
  chrome_thread_metas(out, events, num_pes, 0, /*only_used=*/false);
  chrome_emit_events(out, events, num_pes, 0);
  chrome_close(out);
  return out;
}

std::string to_chrome_trace_cluster(
    const std::vector<TraceEvent>& controller_events,
    const std::vector<std::vector<TraceEvent>>& worker_events,
    std::uint32_t num_pes) {
  std::string out = "{\"traceEvents\":[\n";
  chrome_process_meta(out, 0, "controller");
  chrome_thread_metas(out, controller_events, num_pes, 0, /*only_used=*/false);
  chrome_emit_events(out, controller_events, num_pes, 0);
  for (std::uint32_t w = 0; w < worker_events.size(); ++w) {
    const std::uint32_t pid = w + 1;
    char name[24];
    std::snprintf(name, sizeof(name), "worker %u", w);
    chrome_process_meta(out, pid, name);
    chrome_thread_metas(out, worker_events[w], num_pes, pid,
                        /*only_used=*/true);
    chrome_emit_events(out, worker_events[w], num_pes, pid);
  }
  chrome_close(out);
  return out;
}

}  // namespace dgr::obs
