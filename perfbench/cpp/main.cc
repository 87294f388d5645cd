// Serving benchmark: command-line entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--tiny] [--charge-index-io]
//
// --trace 0: builds the workload's system kSetups times (once with --tiny;
// set-up time is the median), serves a closed loop for --seconds on the
// last one, checks every read and the final sweep, and prints the
// end-to-end metrics.
// --trace 1: serves a fixed request count twice on identically built
// systems, untraced and then traced, and prints the per-layer metrics;
// the timeline and a per-layer JSON go to --out.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when the run was correct.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "layer_math.h"
#include "layers.h"
#include "workload.h"

namespace {

using namespace steghide::perfbench;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  bool tiny = false;
  bool charge_index_io = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--tiny] "
               "[--charge-index-io]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--out") {
      args.out_dir = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--charge-index-io") {
      args.charge_index_io = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

// Peak resident set of this process, from /proc/self/status (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 11;
// The traced run keeps every event in memory until it ends; the
// timeline file gets the first kTimelineEvents of them.
constexpr size_t kTraceCapacity = size_t{8} << 20;
constexpr size_t kTimelineEvents = 100000;
// Share (percent) of the serving windows, the least stolen from, that the
// wall figures use; windows tied with the last one chosen are used too, so
// on a calm host (no steal reported) every window counts.
constexpr double kQuietShare = 10;

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

bool WriteLayersJson(const WorkloadSpec& spec, const Args& args,
                     const LayerReport& report, const std::string& path) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << Number(args.seconds)
      << ", \"events\": " << report.events
      << ",\n \"metrics\": " << MetricsJson(report.metrics)
      << ",\n \"spans\": {";
  for (size_t i = 0; i < report.spans.size(); ++i) {
    const SpanTotals& s = report.spans[i];
    out << (i == 0 ? "\n" : ",\n") << "  \"" << s.name
        << "\": {\"count\": " << s.count
        << ", \"total_ms\": " << Number(s.total_ms)
        << ", \"self_ms\": " << Number(s.self_ms) << "}";
  }
  out << "\n }}\n";
  return out.good();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

// Checks a finished run and logs what went wrong, if anything.
bool Verify(const WorkloadSpec& spec, const ServeResult& run) {
  bool ok = true;
  if (run.failed != 0 || run.sweep_failed != 0) {
    std::fprintf(stderr,
                 "perfbench: %s: %llu of %llu requests and %llu of %llu "
                 "sweep reads failed; first: %s\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(run.failed),
                 static_cast<unsigned long long>(run.requests),
                 static_cast<unsigned long long>(run.sweep_failed),
                 static_cast<unsigned long long>(run.sweep_reads),
                 run.first_error.c_str());
    ok = false;
  }
  if (!run.fill_ok) {
    std::fprintf(stderr,
                 "perfbench: %s: %llu commits for %llu requests; every commit "
                 "should serve exactly %llu\n",
                 spec.name.c_str(), static_cast<unsigned long long>(run.commits),
                 static_cast<unsigned long long>(run.requests),
                 static_cast<unsigned long long>(
                     spec.group ? spec.buffer_blocks : 1));
    ok = false;
  }
  return ok;
}

std::unique_ptr<System> BuildOrDie(const WorkloadSpec& spec, const Args& args,
                                   const ReferenceModel& model,
                                   steghide::obs::TraceLog* trace) {
  std::unique_ptr<System> system =
      System::Build(spec, args.seed, args.charge_index_io, model, trace);
  if (system == nullptr) {
    std::fprintf(stderr, "perfbench: %s: building the system failed\n",
                 spec.name.c_str());
    std::exit(1);
  }
  return system;
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  ReferenceModel model(spec.files * spec.file_blocks, PayloadSize(),
                       args.seed);
  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  const int setups = args.tiny ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    system.reset();
    const double t0 = WallMs();
    system = BuildOrDie(spec, args, model, nullptr);
    setup_s.push_back((WallMs() - t0) / 1000.0);
  }
  ServeOptions options;
  options.seconds = args.seconds;
  const ServeResult run = Serve(*system, spec, args.seed, model, options);
  const bool correct = Verify(spec, run);

  // The wall figures come from the tenth of the whole windows in which
  // the hypervisor took the least CPU time from the (virtual) machine: on
  // a shared host, stolen time is what moves them most from run to run,
  // and it is not the program's. Each figure is the mean over those
  // windows of the window's own figure. The host also has slow spells
  // that no steal count shows, lasting seconds, in which every latency
  // of a window rises together; a mean moves smoothly with the share of
  // such windows, where a median or a pooled percentile jumps from one
  // speed to the other when the share is near its rank.
  const size_t whole = run.windows.size() - 1;
  std::vector<double> steal;
  for (size_t w = 0; w < whole; ++w) {
    steal.push_back(static_cast<double>(run.windows[w].steal_ticks));
  }
  const std::vector<size_t> chosen = LeastDisturbed(steal, kQuietShare);
  uint64_t chosen_requests = 0;
  std::vector<std::vector<double>> read_ms, write_ms;
  for (const size_t w : chosen) {
    const ServeWindow& window = run.windows[w];
    chosen_requests += window.requests;
    read_ms.push_back(window.read_ms.samples());
    write_ms.push_back(window.write_ms.samples());
  }
  std::fprintf(stderr, "perfbench: requests/s (steal ticks) per %.1f s window:",
               kWindowS);
  for (size_t w = 0; w < whole; ++w) {
    std::fprintf(stderr, " %.0f(%llu)",
                 static_cast<double>(run.windows[w].requests) / kWindowS,
                 static_cast<unsigned long long>(run.windows[w].steal_ticks));
  }
  std::fprintf(stderr, "; %zu of %zu windows used\n", chosen.size(), whole);
  const double ops_per_s =
      chosen.empty() ? run.requests / run.wall_s
                     : chosen_requests / (kWindowS * chosen.size());
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"read_p50_ms", MeanPercentile(read_ms, 50), "ms"},
      {"read_p99_ms", MeanPercentile(read_ms, 99), "ms"},
      {"write_p50_ms", MeanPercentile(write_ms, 50), "ms"},
      {"write_p99_ms", MeanPercentile(write_ms, 99), "ms"},
      {"vdisk_ops_per_s", run.requests / (run.virtual_ms / 1000.0), "1/vs"},
      {"vdisk_p99_ms", Percentile(run.virtual_latency_ms.samples(), 99),
       "vms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu requests (%llu reads, %llu "
               "writes) in %.2f s, %llu commits\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(run.requests),
               static_cast<unsigned long long>(run.reads),
               static_cast<unsigned long long>(run.writes), run.wall_s,
               static_cast<unsigned long long>(run.commits));
  PrintResult(correct, run.requests + run.sweep_reads,
              run.failed + run.sweep_failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  // Fixed work, so counts repeat from run to run: whole rounds only.
  const uint64_t group = spec.group ? spec.buffer_blocks : 1;
  uint64_t requests = static_cast<uint64_t>(
      std::llround(spec.traced_requests_per_second * args.seconds));
  requests = std::max<uint64_t>(group, requests / group * group);
  ServeOptions options;
  options.fixed_requests = requests;

  // Untraced twin: same seed, same system, same request stream.
  ServeResult twin;
  {
    ReferenceModel model(spec.files * spec.file_blocks, PayloadSize(),
                         args.seed);
    std::unique_ptr<System> system = BuildOrDie(spec, args, model, nullptr);
    twin = Serve(*system, spec, args.seed, model, options);
  }
  const bool twin_ok = Verify(spec, twin);

  steghide::obs::TraceLog log(kTraceCapacity);
  log.set_clock_fn(WallMs);
  ReferenceModel model(spec.files * spec.file_blocks, PayloadSize(),
                       args.seed);
  std::unique_ptr<System> system = BuildOrDie(spec, args, model, &log);
  options.trace = &log;
  const ServeResult run = Serve(*system, spec, args.seed, model, options);
  const bool run_ok = Verify(spec, run);

  const double twin_ops_per_s = twin.requests / twin.wall_s;
  std::fprintf(stderr,
               "perfbench: %s: %llu requests, untraced %.0f/s, traced %.0f/s\n",
               spec.name.c_str(), static_cast<unsigned long long>(requests),
               twin_ops_per_s, run.requests / run.wall_s);
  const LayerReport report = ComputeLayers(log, run, twin_ops_per_s);
  if (report.anomalies != 0 || report.dropped_events != 0) {
    std::fprintf(stderr,
                 "perfbench: %s: trace has %zu non-nesting spans and %llu "
                 "dropped events\n",
                 spec.name.c_str(), report.anomalies,
                 static_cast<unsigned long long>(report.dropped_events));
  }
  // A double-buffered store must see its deepest level rebuilt at least
  // twice, or the run never exercised a full re-order cycle.
  const bool cycled = !run.deamortized || report.deepest_rebuilds >= 2;
  if (!cycled) {
    std::fprintf(stderr,
                 "perfbench: %s: the deepest level was rebuilt %llu time(s), "
                 "fewer than two\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(report.deepest_rebuilds));
  }
  if (!args.out_dir.empty()) {
    std::filesystem::create_directories(args.out_dir);
    const std::string timeline = args.out_dir + "/timeline.json";
    const std::string layers = args.out_dir + "/layers.json";
    if (!WriteTimeline(log, timeline, kTimelineEvents) ||
        !WriteLayersJson(spec, args, report, layers)) {
      std::fprintf(stderr, "perfbench: writing %s failed\n",
                   args.out_dir.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %s and %s\n", timeline.c_str(),
                 layers.c_str());
  }
  const bool correct = twin_ok && run_ok && cycled &&
                       report.anomalies == 0 && report.dropped_events == 0;
  PrintResult(correct,
              twin.requests + twin.sweep_reads + run.requests + run.sweep_reads,
              twin.failed + twin.sweep_failed + run.failed + run.sweep_failed,
              report.metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, args.tiny, &spec)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  return args.trace ? RunTraced(spec, args) : RunEndToEnd(spec, args);
}
