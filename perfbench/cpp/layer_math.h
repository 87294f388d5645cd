#ifndef STEGHIDE_PERFBENCH_LAYER_MATH_H_
#define STEGHIDE_PERFBENCH_LAYER_MATH_H_

// Arithmetic behind the benchmark's reported figures, kept free of any
// system type so layer_math_test can pin it on hand-made inputs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace steghide::perfbench {

/// splitmix64: the client's only randomness, so a seed fixes every input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n), n > 0.
  uint64_t Uniform(uint64_t n);
  /// Uniform in [0, 1).
  double Unit();
  void Fill(uint8_t* out, size_t n);

 private:
  uint64_t state_;
};

/// Fixed-memory uniform sample of a stream of values (Algorithm R): the
/// first `capacity` values are kept, and each later one replaces a random
/// kept value with probability capacity / seen. The storage is allocated
/// and written up front, so what the client holds does not grow with the
/// number of requests a run serves (and does not show in peak RSS).
class Reservoir {
 public:
  Reservoir() : Reservoir(0, 0) {}
  Reservoir(size_t capacity, uint64_t seed);
  void Add(double value);
  /// The kept values (all of them while seen() <= capacity).
  std::vector<double> samples() const;
  uint64_t seen() const { return seen_; }

 private:
  std::vector<double> kept_;
  uint64_t seen_ = 0;
  Rng rng_;
};

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it (q in (0, 100]). 0 for an empty set.
double Percentile(std::vector<double> samples, double q);

/// Median of `samples` (mean of the two middle values for an even
/// count). 0 for an empty set.
double Median(std::vector<double> samples);

/// Mean over the non-empty sets of each set's q-th percentile (nearest
/// rank). 0 when every set is empty.
double MeanPercentile(const std::vector<std::vector<double>>& sets, double q);

/// Indices of the windows whose disturbance is at most the q-th
/// percentile (nearest rank) of all of them, in order. Equal disturbance
/// everywhere (for instance none measured) selects every window.
std::vector<size_t> LeastDisturbed(const std::vector<double>& disturbance,
                                   double q);

/// Half-open wall-clock interval [start, end), in ms.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Sorted, disjoint union of `intervals` (empty ones dropped).
std::vector<Interval> Union(std::vector<Interval> intervals);

/// Total length of `window` not covered by `cover`; both may overlap
/// themselves (each is unioned first).
double UncoveredLength(std::vector<Interval> window,
                       std::vector<Interval> cover);

/// One recorded span on one thread ("lane").
struct LaneSpan {
  size_t lane = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Self time of every span: its duration minus the time its direct child
/// spans on the same lane cover. A child is a span of the same lane that
/// starts and ends inside the parent; spans of one thread nest properly,
/// so direct children never overlap each other. Result i belongs to
/// spans[i]. `anomalies` (optional) counts spans that overlap their
/// predecessor without nesting, which only a lane mixing two threads
/// produces; they are treated as top level.
std::vector<double> SelfTimes(const std::vector<LaneSpan>& spans,
                              size_t* anomalies = nullptr);

/// Indices of the spans no other span of the same lane contains.
std::vector<size_t> TopLevel(const std::vector<LaneSpan>& spans);

}  // namespace steghide::perfbench

#endif  // STEGHIDE_PERFBENCH_LAYER_MATH_H_
