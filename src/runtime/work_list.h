// One PE's pending marking work, in the order it runs.
//
// M_R marks wait in three FIFO buckets, drained highest priority first
// (3 vital, 2 eager, 1 reserve). Everything else (returns, M_T marks,
// priority-free marks) shares one FIFO that drains after them, so it keeps
// its arrival order.
//
// mark2 (Fig 5-1) re-marks a vertex, and re-traces all its children, when a
// stronger priority reaches it after a weaker one. Priorities propagate as a
// max-min (bottleneck) path problem over three levels, so draining the
// strongest pending mark first is Dijkstra for bottleneck paths: on one PE a
// vertex is first marked at its final priority and no upgrade happens. Which
// pending task runs next is the only thing this changes; mark2 is correct
// under any order, and the marker, the Oracle and the result are the same.
//
// Single-owner: only the PE's own executor touches its list.
#pragma once

#include <cstddef>
#include <vector>

#include "core/task.h"
#include "util/assert.h"

namespace dgr {

class WorkList {
 public:
  void push(const Task& t) {
    buckets_[bucket(t)].push(t);
    ++size_;
  }

  // The next task: the oldest M_R mark of the highest priority pending,
  // else the oldest of the rest.
  Task pop() {
    DGR_CHECK(size_ > 0);
    --size_;
    for (Fifo& f : buckets_)
      if (!f.empty()) return f.pop();
    DGR_CHECK(false);
    return Task{};
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void clear() {
    for (Fifo& f : buckets_) f.clear();
    size_ = 0;
  }

 private:
  // A vector with a moving head; storage is reused once the FIFO empties,
  // and the consumed prefix is dropped once it is the larger half.
  class Fifo {
   public:
    void push(const Task& t) { v_.push_back(t); }
    bool empty() const { return head_ == v_.size(); }
    Task pop() {
      const Task t = v_[head_++];
      if (head_ == v_.size()) {
        clear();
      } else if (head_ >= 1024 && head_ * 2 >= v_.size()) {
        v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      return t;
    }
    void clear() {
      v_.clear();
      head_ = 0;
    }

   private:
    std::vector<Task> v_;
    std::size_t head_ = 0;
  };

  // Buckets in drain order: M_R marks at priority 3, 2, 1, then the rest.
  static std::size_t bucket(const Task& t) {
    if (t.kind != TaskKind::kMark || t.plane != Plane::kR || t.prior == 0)
      return 3;
    return t.prior >= 3 ? 0 : 3 - t.prior;
  }

  Fifo buckets_[4];
  std::size_t size_ = 0;
};

}  // namespace dgr
