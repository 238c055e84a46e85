// Trace exporters: JSONL (one event object per line, deterministic field
// order — byte-reproducible for a fixed sim seed) and Chrome trace_event
// JSON (load in chrome://tracing or https://ui.perfetto.dev; one track per
// PE plus a "controller" track carrying cycle/phase spans).
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"

namespace dgr::obs {

// One line per event:
//   {"ts":12,"type":"sweep","plane":"R","pe":0,"cycle":3,"a":17,"b":0}
std::string to_jsonl(const std::vector<TraceEvent>& events);

// Inverse of to_jsonl (accepts exactly that format; used by tests and
// offline tooling). Unparseable lines are skipped.
std::vector<TraceEvent> from_jsonl(const std::string& text);

// Chrome trace_event "JSON Object Format": {"traceEvents":[...]}.
//   - metadata names tid 0..num_pes-1 "PE n" and tid num_pes "controller";
//   - cycle and M_T/M_R phases become duration ("X") events on the
//     controller track;
//   - restructuring actions and deadlock reports become instant events on
//     the controller track; wave fronts / rescues / taints land on the
//     emitting PE's track;
//   - wave fronts additionally emit counter ("C") events, one counter
//     series per PE and plane, charting the wave's advance.
// Timestamps are exported as microseconds (sim: 1 step = 1 µs).
std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::uint32_t num_pes);

// Cluster form of the same: pid 0 is the controller process, pid w+1 is
// worker w (so a 4-worker run opens as one timeline with five process
// lanes in chrome://tracing). Worker event timestamps must already be
// rebased onto the controller clock (net/clock_sync.h); within each worker
// lane only the PEs that emitted events get named tracks.
std::string to_chrome_trace_cluster(
    const std::vector<TraceEvent>& controller_events,
    const std::vector<std::vector<TraceEvent>>& worker_events,
    std::uint32_t num_pes);

}  // namespace dgr::obs
