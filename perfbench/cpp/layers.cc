#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "layer_math.h"

namespace steghide::perfbench {

namespace {

constexpr size_t kDispatcherLane = 0;
constexpr size_t kClientLane = 1000;

// Which thread records on a track. Everything the program traces runs
// on the dispatcher's I/O thread, except the per-shard scheduler drains,
// RPC clients and device wrappers ("<name>/shard<k>"), which run on
// shard k's pool thread, and the client's own spans.
size_t LaneOf(const std::string& track) {
  if (track == "client") return kClientLane;
  const size_t at = track.rfind("/shard");
  if (at == std::string::npos) return kDispatcherLane;
  return 1 + static_cast<size_t>(std::stoul(track.substr(at + 6)));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

LayerReport ComputeLayers(const obs::TraceLog& log, const ServeResult& run,
                          double untraced_ops_per_s) {
  LayerReport report;
  const std::vector<obs::TraceEvent> events = log.events();
  const std::vector<std::string> tracks = log.tracks();
  report.dropped_events = log.dropped();
  report.events = events.size();

  std::vector<size_t> lane_of_track(tracks.size());
  for (size_t t = 0; t < tracks.size(); ++t) lane_of_track[t] = LaneOf(tracks[t]);

  // Spans, and request intervals from the dispatcher's async events.
  std::vector<LaneSpan> spans;
  std::vector<const char*> names;
  std::unordered_map<uint64_t, double> submitted;
  std::vector<std::pair<double, double>> requests;  // submit, complete
  // Rebuilds of the deepest level: chain installs, or blocking re-orders.
  auto targets_deepest = [&](const obs::TraceEvent& e) {
    return e.num_args > 0 && std::string_view(e.args[0].key) == "level" &&
           e.args[0].value == static_cast<int64_t>(run.levels);
  };
  for (const obs::TraceEvent& e : events) {
    const std::string_view label = e.label();
    if ((label == "store.install" || label == "store.reorder") &&
        targets_deepest(e)) {
      ++report.deepest_rebuilds;
    }
    if (e.kind == obs::TraceEvent::Kind::kSpan) {
      spans.push_back({lane_of_track[e.track], e.ts_ms, e.ts_ms + e.dur_ms});
      names.push_back(e.label());
    } else if (e.kind == obs::TraceEvent::Kind::kAsyncBegin) {
      submitted[e.id] = e.ts_ms;
    } else if (e.kind == obs::TraceEvent::Kind::kAsyncEnd) {
      const auto it = submitted.find(e.id);
      if (it != submitted.end()) {
        requests.emplace_back(it->second, e.ts_ms);
        submitted.erase(it);
      }
    }
  }
  const std::vector<double> self = SelfTimes(spans, &report.anomalies);

  std::map<std::string, SpanTotals> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = by_name[names[i]];
    t.name = names[i];
    ++t.count;
    t.total_ms += spans[i].end - spans[i].start;
    t.self_ms += self[i];
  }
  for (const auto& [name, totals] : by_name) report.spans.push_back(totals);
  auto self_of = [&](std::initializer_list<const char*> keys) {
    double ms = 0.0;
    for (const char* key : keys) {
      const auto it = by_name.find(key);
      if (it != by_name.end()) ms += it->second.self_ms;
    }
    return ms;
  };
  auto total_of = [&](const char* key) {
    const auto it = by_name.find(key);
    return it == by_name.end() ? 0.0 : it->second.total_ms;
  };
  auto count_of = [&](const char* key) {
    const auto it = by_name.find(key);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  double rpc_self_ms = 0.0;
  for (const auto& [name, totals] : by_name) {
    if (name.rfind("remote.", 0) == 0) rpc_self_ms += totals.self_ms;
  }

  // Queue wait: from submission to the start of the commit that served
  // the request (the one whose span holds its completion stamp).
  std::vector<LaneSpan> commits;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(names[i]) == "dispatch.commit") {
      commits.push_back(spans[i]);
    }
  }
  std::sort(commits.begin(), commits.end(),
            [](const LaneSpan& a, const LaneSpan& b) { return a.start < b.start; });
  std::vector<double> waits;
  std::vector<Interval> outstanding;
  for (const auto& [submit, complete] : requests) {
    outstanding.push_back({submit, complete});
    auto it = std::upper_bound(
        commits.begin(), commits.end(), complete,
        [](double t, const LaneSpan& c) { return t < c.start; });
    if (it == commits.begin()) continue;
    --it;
    if (complete <= it->end) waits.push_back(std::max(0.0, it->start - submit));
  }

  // Unattributed: time some request was outstanding while no span of the
  // dispatcher thread was open.
  std::vector<Interval> covered;
  for (const size_t i : TopLevel(spans)) {
    if (spans[i].lane == kDispatcherLane) {
      covered.push_back({spans[i].start, spans[i].end});
    }
  }
  const double unattributed_ms = UncoveredLength(outstanding, covered);

  const CounterSnapshot& a = run.after;
  const CounterSnapshot& b = run.before;
  const double reqs = static_cast<double>(run.requests);
  const double traced_ops_per_s = Ratio(reqs, run.wall_s);
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double store_requests =
      d(a.store.user_reads, b.store.user_reads) +
      d(a.store.user_writes, b.store.user_writes) +
      d(a.store.dummy_reads, b.store.dummy_reads);
  const double store_io =
      d(a.store.TotalIo(), b.store.TotalIo());
  const double updates =
      d(a.update.data_updates + a.update.allocations,
        b.update.data_updates + b.update.allocations);
  const double codec_blocks = d(a.crypto.blocks, b.crypto.blocks);
  const double codec_batches = d(a.crypto.batches, b.crypto.batches);

  report.metrics = {
      {"dispatch.commits", static_cast<double>(run.commits), "count"},
      {"dispatch.commit_fill", Ratio(reqs, static_cast<double>(run.commits)),
       "req/commit"},
      {"dispatch.queue_wait_p50_ms", Percentile(waits, 50), "ms"},
      {"dispatch.commit_self_ms", self_of({"dispatch.commit"}), "ms"},
      {"dispatch.pump_ms", total_of("dispatch.pump"), "ms"},
      {"dispatch.pumps", count_of("dispatch.pump"), "count"},
      {"agent.read_group_self_ms", self_of({"agent.read_group"}), "ms"},
      {"agent.write_group_self_ms", self_of({"agent.write_group"}), "ms"},
      {"agent.update_iterations_mean",
       Ratio(d(a.update.loop_iterations, b.update.loop_iterations), updates),
       "iter/update"},
      {"agent.update_io",
       d(a.update.io_reads + a.update.io_writes,
         b.update.io_reads + b.update.io_writes),
       "count"},
      {"store.scan_self_ms", self_of({"store.scan"}), "ms"},
      {"store.group_self_ms",
       self_of({"store.read_group", "store.write_group"}), "ms"},
      {"store.scan_passes", d(a.store.scan_passes, b.store.scan_passes),
       "count"},
      {"store.probes_per_request",
       Ratio(d(a.store.level_probe_reads, b.store.level_probe_reads),
             store_requests),
       "probes/req"},
      {"store.overhead_factor", Ratio(store_io, store_requests), "io/req"},
      {"store.reorder_self_ms",
       self_of({"store.flush", "store.reorder", "store.reorder_step"}), "ms"},
      {"store.reorder_blocks",
       d(a.store.reorder_reads + a.store.reorder_writes,
         b.store.reorder_reads + b.store.reorder_writes),
       "count"},
      {"store.stall_vms", a.store.stall_ms - b.store.stall_ms, "vms"},
      {"store.max_stall_vms", a.store.max_stall_ms, "vms"},
      {"store.deepest_rebuilds", static_cast<double>(report.deepest_rebuilds),
       "count"},
      {"reader.real_fetches", d(a.reader.real_fetches, b.reader.real_fetches),
       "count"},
      {"reader.decoy_reads", d(a.reader.decoy_reads, b.reader.decoy_reads),
       "count"},
      {"codec.blocks", codec_blocks, "count"},
      {"codec.batches", codec_batches, "count"},
      {"codec.blocks_per_batch", Ratio(codec_blocks, codec_batches),
       "blocks/batch"},
      {"crypto.scan_open_ms",
       a.store.crypto_wall_ms - b.store.crypto_wall_ms, "ms"},
      {"io.drains", d(a.io.drains, b.io.drains), "count"},
      {"io.drain_self_ms", self_of({"io.drain", "io.drain_all"}), "ms"},
      {"io.physical_reads", d(a.io.physical_reads, b.io.physical_reads),
       "count"},
      {"io.physical_writes", d(a.io.physical_writes, b.io.physical_writes),
       "count"},
      {"dev.cache.busy_ms", total_of("dev.cache"), "ms"},
      {"dev.cache.blocks", d(a.dev_cache_blocks, b.dev_cache_blocks), "count"},
      {"dev.steg.busy_ms", total_of("dev.steg"), "ms"},
      {"dev.steg.blocks", d(a.dev_steg_blocks, b.dev_steg_blocks), "count"},
      {"vdisk.cache_ms", a.vdisk_cache_ms - b.vdisk_cache_ms, "vms"},
      {"vdisk.steg_ms", a.vdisk_steg_ms - b.vdisk_steg_ms, "vms"},
      {"rpc.calls", d(a.rpc_calls, b.rpc_calls), "count"},
      {"rpc.bytes", d(a.rpc_bytes, b.rpc_bytes), "bytes"},
      {"rpc.self_ms", rpc_self_ms, "ms"},
      {"mirror.reads", d(a.mirror_reads, b.mirror_reads), "count"},
      {"mirror.writes", d(a.mirror_writes, b.mirror_writes), "count"},
      {"trace.unattributed_ms", unattributed_ms, "ms"},
      {"trace.overhead_pct",
       100.0 * Ratio(untraced_ops_per_s - traced_ops_per_s,
                     untraced_ops_per_s),
       "%"},
  };
  return report;
}

namespace {

void JsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

bool WriteTimeline(const obs::TraceLog& log, const std::string& path,
                   size_t max_events) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<obs::TraceEvent> events = log.events();
  const std::vector<std::string> tracks = log.tracks();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (size_t t = 0; t < tracks.size(); ++t) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"name\":";
    JsonString(out, tracks[t]);
    out << "}}";
  }
  char num[64];
  auto us = [&](double ms) {
    std::snprintf(num, sizeof(num), "%.3f", ms * 1000.0);
    return num;
  };
  const size_t n = std::min(max_events, events.size());
  for (size_t i = 0; i < n; ++i) {
    const obs::TraceEvent& e = events[i];
    sep();
    out << "{\"name\":";
    JsonString(out, e.label());
    out << ",\"pid\":1,\"tid\":" << e.track << ",\"ts\":" << us(e.ts_ms);
    switch (e.kind) {
      case obs::TraceEvent::Kind::kSpan:
        out << ",\"ph\":\"X\",\"dur\":" << us(e.dur_ms);
        break;
      case obs::TraceEvent::Kind::kInstant:
        out << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case obs::TraceEvent::Kind::kAsyncBegin:
        out << ",\"ph\":\"b\",\"cat\":\"request\",\"id\":" << e.id;
        break;
      case obs::TraceEvent::Kind::kAsyncEnd:
        out << ",\"ph\":\"e\",\"cat\":\"request\",\"id\":" << e.id;
        break;
      case obs::TraceEvent::Kind::kCounter:
        out << ",\"ph\":\"C\",\"args\":{\"value\":" << e.value << "}";
        break;
    }
    if (e.num_args > 0 && e.kind != obs::TraceEvent::Kind::kCounter) {
      out << ",\"args\":{";
      for (uint8_t a = 0; a < e.num_args; ++a) {
        if (a > 0) out << ",";
        JsonString(out, e.args[a].key);
        out << ":" << e.args[a].value;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace steghide::perfbench
