#ifndef STEGHIDE_PERFBENCH_LAYERS_H_
#define STEGHIDE_PERFBENCH_LAYERS_H_

// Per-layer figures of a traced run: self times from the spans the
// program and the benchmark record, plus counter deltas from the stats
// views over the same serving window.

#include <string>
#include <vector>

#include "obs/trace_log.h"
#include "workload.h"

namespace steghide::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Wall time and count per span name, for the layer JSON.
struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<SpanTotals> spans;
  /// Spans overlapping without nesting on one lane (0 unless the lane
  /// map mixes threads), and events the log dropped at capacity.
  size_t anomalies = 0;
  uint64_t dropped_events = 0;
  /// Events the log holds.
  size_t events = 0;
  /// Rebuilds of the deepest level in the traced window.
  uint64_t deepest_rebuilds = 0;
};

/// `log` must run on WallMs() and hold exactly the traced serving window
/// of `run`. `untraced_ops_per_s` is the twin run's throughput on the same
/// system and request stream.
LayerReport ComputeLayers(const obs::TraceLog& log, const ServeResult& run,
                          double untraced_ops_per_s);

/// Chrome trace_event JSON of the first `max_events` events (Perfetto
/// loads it); one tid per track, timestamps in wall microseconds.
bool WriteTimeline(const obs::TraceLog& log, const std::string& path,
                   size_t max_events);

}  // namespace steghide::perfbench

#endif  // STEGHIDE_PERFBENCH_LAYERS_H_
