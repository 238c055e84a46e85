// Per-PE task pools with dynamic priorities (Hudak §3.2, §5.2).
//
// "each [PE] maintains a list taskpool(i) of all reduction tasks whose
// destination resides on that PE". Tasks are held in three priority buckets
// (3 = vital, 2 = eager, 1 = reserve). The restructuring phase deletes
// irrelevant tasks (expunge) and moves the rest between buckets
// (reprioritize) in one pass.
//
// Two forms, because their needs conflict:
//   TaskPool  — the executing pool (SimEngine): whole tasks, popped from the
//               highest non-empty bucket in a seeded order, which is how
//               vital tasks outcompete eager ones when resources are limited.
//   TaskIndex — the inert pool (ThreadEngine, ProcEngine, which never execute
//               reduction tasks): tasks grouped by destination. Both
//               restructuring decisions depend on the destination alone
//               (IRR' and the vital/eager/reserve classes, Properties 3-6),
//               so a cycle's work grows with the destinations and distinct
//               endpoints pooled, not with the tasks.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/task.h"
#include "graph/task_ref.h"
#include "util/assert.h"
#include "util/rng.h"

namespace dgr {

// The bucket a pool priority lands in: 0 = reserve (0, 1), 1 = eager (2),
// 2 = vital (3 and up).
inline int pool_bucket(std::uint8_t prior) {
  if (prior >= 3) return 2;
  if (prior == 2) return 1;
  return 0;
}

class TaskPool {
 public:
  void push(Task t) {
    const int b = pool_bucket(t.pool_prior);
    buckets_[b].push_back(std::move(t));
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Pop from the highest-priority non-empty bucket. `rng`, when provided,
  // picks a random element within the bucket (interleaving coverage in the
  // simulator); otherwise FIFO.
  Task pop(Rng* rng = nullptr) {
    DGR_CHECK(size_ > 0);
    for (int b = 2; b >= 0; --b) {
      auto& q = buckets_[b];
      if (q.empty()) continue;
      std::size_t i = 0;
      if (rng && q.size() > 1) i = rng->below(q.size());
      Task t = std::move(q[i]);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      --size_;
      return t;
    }
    DGR_CHECK(false);
    return Task{};
  }

  // The restructuring phase over this pool, one stable pass per bucket:
  // delete every task for which kill(task) holds, give each survivor the
  // priority prio(task), and append the survivors that change bucket to
  // their new bucket in scan order (reserve, eager, vital; FIFO within each).
  // `reprioritized` counts the tasks that changed bucket.
  TaskRestructure restructure(
      const std::function<bool(const Task&)>& kill,
      const std::function<std::uint8_t(const Task&)>& prio) {
    TaskRestructure r;
    std::vector<Task> moving;
    for (int b = 0; b < 3; ++b) {
      auto& q = buckets_[b];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < q.size(); ++i) {
        Task& t = q[i];
        if (kill(t)) {
          ++r.expunged;
          continue;
        }
        t.pool_prior = prio(t);
        if (pool_bucket(t.pool_prior) != b) {
          moving.push_back(std::move(t));
          ++r.reprioritized;
          continue;
        }
        if (keep != i) q[keep] = std::move(t);
        ++keep;
      }
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(keep), q.end());
    }
    for (Task& t : moving)
      buckets_[pool_bucket(t.pool_prior)].push_back(std::move(t));
    size_ -= r.expunged;
    return r;
  }

  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& q : buckets_)
      for (const Task& t : q) fn(t);
  }

 private:
  std::deque<Task> buckets_[3];
  std::size_t size_ = 0;
};

// The inert pool, indexed by destination. Each group holds its per-bucket
// task counts and its tasks' sources (one entry per task, so duplicate
// <s,d> tasks and source-less <-,d> tasks keep their multiplicity); a source
// census counts the pool's tasks per distinct valid source, so the §5.2
// endpoint set is listed without visiting tasks. A task's own priority
// within a bucket is not kept: nothing pops these pools.
class TaskIndex {
 public:
  void push(const Task& t) {
    const auto [it, fresh] = slot_.try_emplace(t.d, groups_.size());
    if (fresh) groups_.push_back(Group{t.d, {}, {}});
    Group& g = groups_[it->second];
    ++g.count[pool_bucket(t.pool_prior)];
    g.sources.push_back(t.s);
    if (t.s.valid()) ++census_[t.s];
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Tasks whose priority lands in pool_prior's bucket.
  std::size_t bucket_size(std::uint8_t pool_prior) const {
    std::size_t n = 0;
    for (const Group& g : groups_) n += g.count[pool_bucket(pool_prior)];
    return n;
  }

  // The restructuring phase, decided once per destination d: kill(d)
  // deletes all of d's tasks; otherwise they all take priority prio(d), and
  // each bucket's count moves whole. The result counts tasks, exactly as
  // TaskPool::restructure does. Cost: one step per group plus one per
  // deleted task.
  template <typename Kill, typename Prio>
  TaskRestructure restructure(Kill&& kill, Prio&& prio) {
    TaskRestructure r;
    for (std::size_t i = 0; i < groups_.size();) {
      Group& g = groups_[i];
      if (kill(g.d)) {
        r.expunged += g.sources.size();
        size_ -= g.sources.size();
        for (const VertexId s : g.sources)
          if (s.valid()) drop_census(s);
        slot_.erase(g.d);
        if (i + 1 != groups_.size()) {
          g = std::move(groups_.back());
          slot_[g.d] = i;
        }
        groups_.pop_back();
        continue;  // re-examine slot i
      }
      const int to = pool_bucket(prio(g.d));
      for (int b = 0; b < 3; ++b) {
        if (b == to || g.count[b] == 0) continue;
        r.reprioritized += g.count[b];
        g.count[to] += g.count[b];
        g.count[b] = 0;
      }
      ++i;
    }
    return r;
  }

  // One <s,d> per pooled task.
  template <typename F>
  void for_each_ref(F&& fn) const {
    for (const Group& g : groups_)
      for (const VertexId s : g.sources) fn(TaskRef{s, g.d});
  }

  // Every endpoint of a pooled task: each destination once, then each
  // distinct valid source once (a vertex that is both comes twice).
  template <typename F>
  void for_each_endpoint(F&& fn) const {
    for (const Group& g : groups_) fn(g.d);
    for (const auto& [s, n] : census_) fn(s);
  }

 private:
  struct Group {
    VertexId d;
    std::array<std::size_t, 3> count;  // tasks per bucket
    std::vector<VertexId> sources;     // one per task, invalid() allowed
  };

  void drop_census(VertexId s) {
    const auto it = census_.find(s);
    DGR_CHECK(it != census_.end());
    if (--it->second == 0) census_.erase(it);
  }

  std::vector<Group> groups_;
  std::unordered_map<VertexId, std::size_t, VertexIdHash> slot_;  // d → group
  std::unordered_map<VertexId, std::size_t, VertexIdHash> census_;  // s → tasks
  std::size_t size_ = 0;
};

}  // namespace dgr
