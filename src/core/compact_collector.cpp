#include "core/compact_collector.h"

namespace dgr {

CompactCollector::CompactCollector(Graph& g, CompactMarker& marker,
                                   EngineHooks& hooks, VertexId root)
    : g_(g), marker_(marker), hooks_(hooks), root_(root) {
  marker_.set_done_callback([this] { on_wave_done(); });
}

void CompactCollector::start_cycle() {
  DGR_CHECK_MSG(idle_, "compact cycle already in progress");
  DGR_CHECK(root_.valid());
  idle_ = false;
  marker_.begin(root_, 3);
}

void CompactCollector::on_wave_done() {
  // Mutations during the wave may have queued uncovered vertices; keep
  // launching supplementary waves until the queue drains (multi-pass
  // two-color marking).
  if (marker_.launch_pending_wave()) return;
  restructure();
}

void CompactCollector::restructure() {
  CompactCycleResult res;
  res.cycle = cycles_ + 1;

  auto in_gar = [&](VertexId v) {
    if (!v.valid()) return false;
    const Vertex& vx = g_.at(v);
    return vx.live && !vx.aux && !marker_.is_marked(v);
  };

  const TaskRestructure tr =
      hooks_.restructure_tasks(in_gar, [&](VertexId d) {
        const std::uint8_t p = marker_.prior(d);
        return p ? p : std::uint8_t{1};
      });
  res.expunged = tr.expunged;
  res.reprioritized = tr.reprioritized;

  std::vector<VertexId> garbage;
  g_.for_each_live([&](VertexId v) {
    if (in_gar(v)) garbage.push_back(v);
  });
  for (VertexId w : garbage) {
    for (const ArgEdge& e : g_.at(w).args) {
      if (e.req == ReqKind::kNone || !e.to.valid()) continue;
      g_.at(e.to).drop_requester(w);
    }
  }
  for (VertexId w : garbage) g_.store(w.pe).release(w.idx);
  res.swept = garbage.size();

  res.stats = marker_.stats();
  marker_.end();
  ++cycles_;
  total_swept_ += res.swept;
  last_ = res;
  idle_ = true;
}

}  // namespace dgr
