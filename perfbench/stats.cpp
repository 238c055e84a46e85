#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

// Nearest rank: the smallest value with at least p% of samples at or below
// it. The rank is 1-based; n must be positive.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

double value_at_rank(std::vector<double>& v, std::size_t rank) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

}  // namespace

std::optional<double> percentile(std::vector<double> v, double p) {
  if (v.empty() || p <= 0 || p > 100) return std::nullopt;
  const std::size_t rank = nearest_rank(v.size(), p);
  if (p < 100 && v.size() - rank < 10) return std::nullopt;  // < 10 beyond
  return value_at_rank(v, rank);
}

double must_percentile(const std::vector<double>& v, double p,
                       const std::string& what) {
  const std::optional<double> r = percentile(v, p);
  if (!r)
    throw std::runtime_error(what + ": p" + std::to_string(p) + " of " +
                             std::to_string(v.size()) +
                             " samples has fewer than ten beyond it");
  return *r;
}

double median(std::vector<double> v) {
  return v.empty() ? 0 : value_at_rank(v, nearest_rank(v.size(), 50));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<std::vector<double>> tenths(const std::vector<TickSample>& s,
                                        std::uint32_t horizon) {
  std::vector<std::vector<double>> out(10);
  for (std::uint64_t d = 0; d < 10; ++d) {
    const std::uint64_t lo = d * horizon / 10, hi = (d + 1) * horizon / 10;
    for (const TickSample& x : s)
      if (x.tick >= lo && x.tick < hi) out[d].push_back(x.value);
  }
  return out;
}

std::string median_by_tenth(const std::vector<TickSample>& s,
                            std::uint32_t horizon) {
  std::string out;
  for (const std::vector<double>& part : tenths(s, horizon)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : ",",
                  median(part));
    out += buf;
  }
  return out;
}

}  // namespace perfbench
