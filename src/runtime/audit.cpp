#include "runtime/audit.h"

#include "core/invariants.h"
#include "util/log.h"

namespace dgr {

void Auditor::at_safe_point(std::uint64_t cycle) {
  swept_check_ = false;
  if (opt_.period == 0 || cycle % opt_.period != 0) return;
  ++stats_.audits;
  const std::uint64_t before = stats_.violations;
  // Both planes have terminated with marks intact and no marking task is in
  // flight, so the pending-task multiset is empty.
  for (const Plane plane : {Plane::kR, Plane::kT}) {
    if (!marker_.active(plane) || !marker_.done(plane)) continue;
    if (marker_.cycle_tainted(plane)) continue;
    const InvariantReport rep =
        check_marking_invariants(g_, marker_, plane, {});
    if (!rep.ok) fail(cycle, rep.what);
  }
  const AccountingReport acc = check_heap_accounting(g_, marker_);
  if (!acc.ok) {
    fail(cycle, acc.what);
  } else if (marker_.active(Plane::kR) && marker_.done(Plane::kR)) {
    // GAR′ is frozen until the sweep (mutators are excluded): the
    // restructure about to run must free exactly this many vertices.
    expected_gar_ = acc.gar;
    swept_check_ = true;
  }
  DGR_TRACE_EVENT(trace_, obs::EventType::kAudit, Plane::kR, 0, cycle,
                  stats_.violations - before,
                  static_cast<std::uint64_t>(acc.gar));
}

void Auditor::on_cycle_complete(const CycleResult& res) {
  if (!swept_check_) return;
  swept_check_ = false;
  if (res.swept != expected_gar_)
    fail(res.cycle, "Property 1 violated: swept " + std::to_string(res.swept) +
                        " != GAR' " + std::to_string(expected_gar_));
}

void Auditor::fail(std::uint64_t cycle, std::string what) {
  ++stats_.violations;
  stats_.last_what = std::move(what);
  DGR_ERROR("audit violation (cycle %llu): %s", (unsigned long long)cycle,
            stats_.last_what.c_str());
  if (on_violation_) on_violation_();
}

}  // namespace dgr
