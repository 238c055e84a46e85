// Per-PE task pool with dynamic priorities (Hudak §3.2, §5.2).
//
// "each [PE] maintains a list taskpool(i) of all reduction tasks whose
// destination resides on that PE". Tasks are held in three priority buckets
// (3 = vital, 2 = eager, 1 = reserve); the PE always serves the highest
// non-empty bucket, which is how vital tasks outcompete eager ones when
// resources are limited. The restructuring phase deletes irrelevant tasks
// (expunge) and moves the rest between buckets (reprioritize) in one pass.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/task.h"
#include "util/assert.h"
#include "util/rng.h"

namespace dgr {

class TaskPool {
 public:
  void push(Task t) {
    const int b = bucket(t.pool_prior);
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
        if (bucket(t.pool_prior) != b) {
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
      buckets_[bucket(t.pool_prior)].push_back(std::move(t));
    size_ -= r.expunged;
    return r;
  }

  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& q : buckets_)
      for (const Task& t : q) fn(t);
  }

 private:
  static int bucket(std::uint8_t prior) {
    if (prior >= 3) return 2;
    if (prior == 2) return 1;
    return 0;
  }
  std::deque<Task> buckets_[3];
  std::size_t size_ = 0;
};

}  // namespace dgr
