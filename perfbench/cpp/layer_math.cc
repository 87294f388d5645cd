#include "layer_math.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace steghide::perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Uniform(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

void Rng::Fill(uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t v = Next();
    std::memcpy(out + i, &v, 8);
  }
  if (i < n) {
    const uint64_t v = Next();
    std::memcpy(out + i, &v, n - i);
  }
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : kept_(capacity, 0.0), rng_(seed) {}

void Reservoir::Add(double value) {
  ++seen_;
  if (seen_ <= kept_.size()) {
    kept_[seen_ - 1] = value;
    return;
  }
  const uint64_t slot = rng_.Uniform(seen_);
  if (slot < kept_.size()) kept_[slot] = value;
}

std::vector<double> Reservoir::samples() const {
  const size_t n = static_cast<size_t>(std::min<uint64_t>(seen_, kept_.size()));
  return std::vector<double>(kept_.begin(), kept_.begin() + n);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double MeanPercentile(const std::vector<std::vector<double>>& sets,
                      double q) {
  double sum = 0.0;
  size_t n = 0;
  for (const std::vector<double>& set : sets) {
    if (set.empty()) continue;
    sum += Percentile(set, q);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<size_t> LeastDisturbed(const std::vector<double>& disturbance,
                                   double q) {
  const double limit = Percentile(disturbance, q);
  std::vector<size_t> chosen;
  for (size_t i = 0; i < disturbance.size(); ++i) {
    if (disturbance[i] <= limit) chosen.push_back(i);
  }
  return chosen;
}

std::vector<Interval> Union(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (!out.empty() && iv.start <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double UncoveredLength(std::vector<Interval> window,
                       std::vector<Interval> cover) {
  const std::vector<Interval> w = Union(std::move(window));
  const std::vector<Interval> c = Union(std::move(cover));
  double uncovered = 0.0;
  size_t j = 0;
  for (const Interval& iv : w) {
    double cursor = iv.start;
    while (j < c.size() && c[j].end <= cursor) ++j;
    for (size_t k = j; k < c.size() && c[k].start < iv.end; ++k) {
      if (c[k].start > cursor) uncovered += c[k].start - cursor;
      cursor = std::max(cursor, c[k].end);
      if (cursor >= iv.end) break;
    }
    if (cursor < iv.end) uncovered += iv.end - cursor;
  }
  return uncovered;
}

namespace {

// Span indices in nesting order: by lane, then start ascending, then the
// longer (enclosing) span first.
std::vector<size_t> NestingOrder(const std::vector<LaneSpan>& spans) {
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const LaneSpan& x = spans[a];
    const LaneSpan& y = spans[b];
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.start != y.start) return x.start < y.start;
    return x.end > y.end;
  });
  return order;
}

// Walks the spans in nesting order, calling visit(span, parent) with the
// innermost enclosing span of the same lane (or SIZE_MAX at top level).
template <typename Visit>
void WalkNesting(const std::vector<LaneSpan>& spans, size_t* anomalies,
                 Visit visit) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> stack;
  for (const size_t i : NestingOrder(spans)) {
    const LaneSpan& s = spans[i];
    while (!stack.empty() && (spans[stack.back()].lane != s.lane ||
                              spans[stack.back()].end <= s.start)) {
      stack.pop_back();
    }
    size_t parent = kNone;
    if (!stack.empty()) {
      if (s.end <= spans[stack.back()].end) {
        parent = stack.back();
      } else {
        // Overlap without nesting: not one thread's call tree.
        if (anomalies != nullptr) ++*anomalies;
        stack.clear();
      }
    }
    visit(i, parent);
    stack.push_back(i);
  }
}

}  // namespace

std::vector<double> SelfTimes(const std::vector<LaneSpan>& spans,
                              size_t* anomalies) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  WalkNesting(spans, anomalies, [&](size_t i, size_t parent) {
    if (parent != static_cast<size_t>(-1)) {
      self[parent] -= spans[i].end - spans[i].start;
    }
  });
  return self;
}

std::vector<size_t> TopLevel(const std::vector<LaneSpan>& spans) {
  std::vector<size_t> top;
  WalkNesting(spans, nullptr, [&](size_t i, size_t parent) {
    if (parent == static_cast<size_t>(-1)) top.push_back(i);
  });
  std::sort(top.begin(), top.end());
  return top;
}

}  // namespace steghide::perfbench
