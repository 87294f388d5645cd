// Pins the benchmark's percentile, interval and self-time arithmetic on
// hand-made inputs. Exits non-zero on the first mismatch.

#include <cmath>
#include <cstdio>
#include <vector>

#include "layer_math.h"

namespace {

using steghide::perfbench::Interval;
using steghide::perfbench::LaneSpan;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using steghide::perfbench::Percentile;
  // Nearest rank over 1..100: p50 is the 50th value, p99 the 99th.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 50), 50), "p50 of 1..100");
  Expect(Near(Percentile(hundred, 99), 99), "p99 of 1..100");
  Expect(Near(Percentile(hundred, 100), 100), "p100 of 1..100");
  Expect(Near(Percentile(hundred, 0.5), 1), "p0.5 of 1..100");
  // Ten samples: p99 needs rank ceil(9.9) = 10, the maximum.
  Expect(Near(Percentile({3, 1, 2, 9, 4, 8, 5, 7, 6, 10}, 99), 10),
         "p99 of ten samples");
  Expect(Near(Percentile({3, 1, 2, 9, 4, 8, 5, 7, 6, 10}, 50), 5),
         "p50 of ten samples");
  Expect(Near(Percentile({7}, 99), 7), "single sample");
  Expect(Near(Percentile({}, 50), 0), "empty set");
}

void TestMedian() {
  using steghide::perfbench::Median;
  Expect(Near(Median({5, 1, 3}), 3), "odd median");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "even median");
  Expect(Near(Median({}), 0), "empty median");
}

void TestMeanPercentile() {
  using steghide::perfbench::MeanPercentile;
  // Medians 2 and 10; the empty set is skipped.
  Expect(Near(MeanPercentile({{4, 1, 3, 2}, {10}, {}}, 50), 6),
         "mean of window medians");
  // p99 of 1..100 is 99, of {7} is 7.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(MeanPercentile({hundred, {7}}, 99), 53), "mean of window p99s");
  Expect(Near(MeanPercentile({{}, {}}, 50), 0), "no samples");
}

void TestReservoir() {
  using steghide::perfbench::Reservoir;
  Reservoir small(8, 1);
  for (int i = 0; i < 5; ++i) small.Add(i);
  Expect(small.samples() == std::vector<double>({0, 1, 2, 3, 4}),
         "under capacity every value is kept in order");
  Expect(small.seen() == 5, "seen counts every value");

  // 0..99999 through a 2000-slot reservoir: 2000 kept, and the sample is
  // spread over the whole stream (mean near 50000, p99 near 99000).
  Reservoir big(2000, 7);
  for (int i = 0; i < 100000; ++i) big.Add(i);
  const std::vector<double> kept = big.samples();
  Expect(kept.size() == 2000 && big.seen() == 100000, "capacity respected");
  double mean = 0;
  for (const double v : kept) mean += v / static_cast<double>(kept.size());
  Expect(mean > 47000 && mean < 53000, "sample mean near the stream mean");
  const double p99 = steghide::perfbench::Percentile(kept, 99);
  Expect(p99 > 98000 && p99 < 99800, "sample p99 near the stream p99");
  Reservoir again(2000, 7);
  for (int i = 0; i < 100000; ++i) again.Add(i);
  Expect(again.samples() == kept, "same seed, same sample");
}

void TestLeastDisturbed() {
  using steghide::perfbench::LeastDisturbed;
  // p50 (nearest rank) of {0, 9, 2, 0, 5} is 2: windows 0, 2 and 3.
  Expect(LeastDisturbed({0, 9, 2, 0, 5}, 50) ==
             std::vector<size_t>({0, 2, 3}),
         "windows at or below the median disturbance");
  // p25 of eight windows is the 2nd smallest, 1: windows 1, 4 and 6.
  Expect(LeastDisturbed({4, 1, 3, 2, 0, 7, 1, 5}, 25) ==
             std::vector<size_t>({1, 4, 6}),
         "least disturbed quarter, ties included");
  Expect(LeastDisturbed({0, 0, 0}, 25) == std::vector<size_t>({0, 1, 2}),
         "nothing measured selects every window");
  Expect(LeastDisturbed({}, 25).empty(), "no windows");
}

void TestUnion() {
  using steghide::perfbench::Union;
  const std::vector<Interval> u =
      Union({{5, 7}, {0, 2}, {1, 3}, {3, 4}, {6, 6}, {10, 11}});
  Expect(u.size() == 3, "union merges touching and overlapping");
  Expect(u.size() == 3 && Near(u[0].start, 0) && Near(u[0].end, 4),
         "first merged run");
  Expect(u.size() == 3 && Near(u[1].start, 5) && Near(u[1].end, 7),
         "second run");
}

void TestUncovered() {
  using steghide::perfbench::UncoveredLength;
  // Window [0,10) and [20,30); cover [2,4), [3,6), [8,22), [25,26).
  const double gap = UncoveredLength({{0, 10}, {20, 30}},
                                     {{2, 4}, {3, 6}, {8, 22}, {25, 26}});
  // Uncovered: [0,2) + [6,8) + [22,25) + [26,30) = 2 + 2 + 3 + 4.
  Expect(Near(gap, 11), "uncovered length");
  Expect(Near(UncoveredLength({{0, 5}}, {}), 5), "nothing covered");
  Expect(Near(UncoveredLength({{0, 5}}, {{-1, 9}}), 0), "fully covered");
}

void TestSelfTimes() {
  using steghide::perfbench::SelfTimes;
  using steghide::perfbench::TopLevel;
  // Lane 0: commit [0,10) holds group [1,8), which holds scan [2,5) and
  // drain [5,7); pump [12,15) stands alone. Lane 1 (another thread)
  // overlaps lane 0 in time but must not be nested into it.
  const std::vector<LaneSpan> spans = {
      {0, 0, 10},   // 0 commit
      {0, 1, 8},    // 1 group
      {0, 2, 5},    // 2 scan
      {0, 5, 7},    // 3 drain (starts where scan ends)
      {0, 12, 15},  // 4 pump
      {1, 3, 9},    // 5 shard drain on another thread
      {1, 4, 6},    // 6 device call under it
  };
  size_t anomalies = 0;
  const std::vector<double> self = SelfTimes(spans, &anomalies);
  Expect(anomalies == 0, "no anomalies");
  Expect(Near(self[0], 3), "commit self = 10 - 7");
  Expect(Near(self[1], 2), "group self = 7 - 3 - 2");
  Expect(Near(self[2], 3), "scan self");
  Expect(Near(self[3], 2), "drain self");
  Expect(Near(self[4], 3), "pump self");
  Expect(Near(self[5], 4), "shard drain self = 6 - 2");
  Expect(Near(self[6], 2), "device self");
  const std::vector<size_t> top = TopLevel(spans);
  Expect(top == std::vector<size_t>({0, 4, 5}), "top-level spans");

  // Two spans on one lane that overlap without nesting are flagged.
  size_t bad = 0;
  const std::vector<double> mixed = SelfTimes({{0, 0, 4}, {0, 2, 6}}, &bad);
  Expect(bad == 1, "overlap flagged");
  Expect(Near(mixed[0], 4) && Near(mixed[1], 4), "overlap kept whole");
}

}  // namespace

int main() {
  TestPercentile();
  TestMedian();
  TestMeanPercentile();
  TestReservoir();
  TestLeastDisturbed();
  TestUnion();
  TestUncovered();
  TestSelfTimes();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("layer_math_test: all checks passed\n");
  return 0;
}
