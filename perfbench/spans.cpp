#include <fstream>

#include "bench.h"

namespace perfbench {

std::int32_t Spans::open(const char* name) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.start_ns = ns_since(t0_, Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.cycle = cycle_;
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Spans::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = ns_since(t0_, Clock::now());
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Spans::add(const char* name, Clock::time_point a, Clock::time_point b) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.start_ns = ns_since(t0_, a);
  s.end_ns = ns_since(t0_, b);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.cycle = cycle_;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  // Children of one span never overlap (one recording thread), so the part
  // of the parent they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

bool Spans::write_jsonl(const std::string& path,
                        const std::string& run_id) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << ",\"run\":\"" << run_id
      << "\",\"cycle\":" << s.cycle << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
