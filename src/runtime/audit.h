// Safe-point auditing, shared by the threaded and multi-process engines:
// marking invariants 1–3 (§5.4.1) on every terminated plane, Property 1
// accounting (GAR = V − R − F, R ∩ F = ∅), and the cross-check that the
// sweep which follows frees exactly GAR′.
//
// The audit runs at the one globally consistent state each engine reaches:
// inside the restructuring quiesce window, after both planes have terminated
// but before restructuring consumes their marks. ThreadEngine gets there by
// parking every PE thread; ProcEngine by merging every worker's kMarkReport
// into the authoritative graph. Violations are counted, logged and handed
// to the violation hook; they never abort (CI decides via dgr_soak's exit
// code).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/controller.h"
#include "core/marker.h"
#include "graph/graph.h"
#include "obs/trace.h"

namespace dgr {

struct AuditOptions {
  std::uint32_t period = 1;  // audit every Nth cycle (0 disables)
};

struct AuditStats {
  std::uint64_t audits = 0;      // safe-point audits executed
  std::uint64_t violations = 0;  // failed checks (invariant or accounting)
  std::string last_what;         // human-readable description of the latest
};

class Auditor {
 public:
  Auditor(const Graph& g, const Marker& marker) : g_(g), marker_(marker) {}

  void enable(AuditOptions opt = {}) { opt_ = opt; }
  // Called once per violation, after it is counted and logged.
  void set_violation_hook(std::function<void()> fn) {
    on_violation_ = std::move(fn);
  }
  // Each audit emits one kAudit event (cycle, violations, GAR′) here.
  void set_trace(obs::TraceBuffer* t) { trace_ = t; }
  const AuditStats& stats() const { return stats_; }

  // At the safe point of `cycle` (1-based): run the checks if the period
  // selects this cycle.
  void at_safe_point(std::uint64_t cycle);
  // After restructuring: the sweep must have freed the GAR′ the safe point
  // measured (Property 1).
  void on_cycle_complete(const CycleResult& res);
  // Count, log and report one violation (also an engine's own checks').
  void fail(std::uint64_t cycle, std::string what);

 private:
  const Graph& g_;
  const Marker& marker_;
  AuditOptions opt_{0};
  AuditStats stats_;
  std::function<void()> on_violation_;
  obs::TraceBuffer* trace_ = nullptr;
  bool swept_check_ = false;  // cross-check swept vs GAR′ this cycle
  std::size_t expected_gar_ = 0;
};

}  // namespace dgr
