#ifndef STEGHIDE_PERFBENCH_WORKLOAD_H_
#define STEGHIDE_PERFBENCH_WORKLOAD_H_

// The benchmark's systems and its closed-loop client.
//
// Each workload builds its own system — a formatted StegFS partition on
// a SimBlockDevice plus an oblivious cache volume — with the oblivious
// store's default in-memory index, populates a seeded hidden set, and
// serves hidden reads and writes through agent::RequestDispatcher from
// one client thread. Every read is checked against a reference model the
// client keeps of every hidden block, apart from the program.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "agent/oblivious_agent.h"
#include "agent/update_engine.h"
#include "obs/trace_log.h"
#include "oblivious/oblivious_store.h"
#include "oblivious/steg_partition_reader.h"
#include "stegfs/block_codec.h"
#include "stegfs/stegfs_core.h"
#include "storage/async/io_scheduler.h"
#include "storage/mem_block_device.h"
#include "storage/remote/block_server.h"
#include "storage/remote/remote_device.h"
#include "storage/replicated_device.h"
#include "storage/sim_device.h"
#include "storage/volume_set.h"
#include "layer_math.h"
#include "timed_device.h"

namespace steghide::perfbench {

/// Shape of one workload. The request mix is drawn from the run's seed;
/// everything here is fixed per workload name.
struct WorkloadSpec {
  std::string name;
  uint64_t files = 0;
  uint64_t file_blocks = 0;
  /// Oblivious store buffer B, which is also the dispatcher group size.
  uint64_t buffer_blocks = 32;
  /// Keep one full group of B requests on distinct blocks outstanding;
  /// otherwise one request at a time from one session.
  bool group = false;
  /// Share of requests that are writes.
  double write_share = 0.0;
  /// Writes cover a random sub-block byte range (read-modify-write)
  /// instead of a whole block.
  bool partial_writes = false;
  /// Read every hidden block once during set-up (warm cache).
  bool prewarm = false;
  /// Cache volume striped over this many shards, each mirrored twice with
  /// the second mirror served over the loopback block-RPC transport.
  /// 0 = one local simulated disk.
  size_t mirrored_shards = 0;
  /// Requests the traced run serves per second of --seconds; the traced
  /// run is fixed work, so its counts repeat from run to run.
  uint64_t traced_requests_per_second = 0;
};

/// The named workload; `tiny` shrinks it for the self-check.
bool FindWorkload(const std::string& name, bool tiny, WorkloadSpec* out);
std::vector<std::string> WorkloadNames();

/// Payload bytes of one hidden block on the 4 KB devices used here.
size_t PayloadSize();

/// Wall clock in ms since a process-wide epoch; the trace log's clock.
double WallMs();

/// What the client believes every hidden block holds. Built from the
/// seed, updated on each acknowledged write, never read from the system.
class ReferenceModel {
 public:
  ReferenceModel(uint64_t blocks, size_t payload, uint64_t seed);
  size_t payload() const { return payload_; }
  uint64_t blocks() const { return blocks_; }
  const uint8_t* block(uint64_t b) const { return data_.data() + b * payload_; }
  uint8_t* mutable_block(uint64_t b) { return data_.data() + b * payload_; }

 private:
  uint64_t blocks_;
  size_t payload_;
  std::vector<uint8_t> data_;
};

/// Counters read from the program's stats views at the edges of the
/// serving window.
struct CounterSnapshot {
  oblivious::ObliviousStats store;
  storage::IoSchedulerStats io;
  oblivious::StegPartitionReader::Stats reader;
  agent::UpdateStats update;
  stegfs::CryptoTrafficSnapshot crypto;
  uint64_t dev_cache_blocks = 0;
  uint64_t dev_steg_blocks = 0;
  double vdisk_cache_ms = 0.0;
  double vdisk_steg_ms = 0.0;
  uint64_t rpc_calls = 0;
  uint64_t rpc_bytes = 0;
  uint64_t mirror_reads = 0;
  uint64_t mirror_writes = 0;
};

/// One fully built system: devices, StegFS partition, oblivious agent
/// and the populated hidden set.
class System {
 public:
  /// Formats, populates the hidden set with `model`'s content and, if the
  /// spec asks, prewarms the cache. `trace` (optional) wires the store,
  /// agent, scheduler, RPC clients and the benchmark's device wrappers to
  /// one log; recording still needs the log enabled. `charge_index_io`
  /// selects the store's spilled-index variant (fault demonstration only).
  static std::unique_ptr<System> Build(const WorkloadSpec& spec,
                                       uint64_t seed, bool charge_index_io,
                                       const ReferenceModel& model,
                                       obs::TraceLog* trace);

  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  agent::ObliviousAgent& agent() { return *agent_; }
  const std::vector<agent::ObliviousAgent::FileId>& files() const {
    return files_;
  }
  /// Summed virtual clocks of the StegFS disk and the cache volume (one
  /// issuing thread, so the sum is the busy time of a one-disk layout).
  double VirtualClockMs() const;
  CounterSnapshot Snapshot() const;

 private:
  System() = default;

  // Declaration order is construction order; teardown runs in reverse,
  // so the agent goes first and every device outlives its users.
  std::unique_ptr<storage::MemBlockDevice> steg_mem_;
  std::unique_ptr<storage::SimBlockDevice> steg_sim_;
  std::unique_ptr<TimedBlockDevice> steg_timed_;
  std::unique_ptr<storage::MemBlockDevice> cache_mem_;
  std::unique_ptr<storage::SimBlockDevice> cache_sim_;
  std::unique_ptr<TimedBlockDevice> cache_timed_;
  std::vector<std::unique_ptr<storage::MemBlockDevice>> replica_mems_;
  std::vector<std::unique_ptr<storage::SimBlockDevice>> replica_sims_;
  std::vector<std::unique_ptr<storage::remote::LoopbackEndpoint>> endpoints_;
  std::vector<std::unique_ptr<storage::remote::RemoteBlockDevice>> remotes_;
  std::vector<std::unique_ptr<storage::ReplicatedBlockDevice>> mirrors_;
  std::vector<std::unique_ptr<TimedBlockDevice>> shard_timed_;
  std::unique_ptr<storage::ShardedBlockDevice> sharded_;
  std::unique_ptr<stegfs::StegFsCore> core_;
  std::unique_ptr<agent::ObliviousAgent> agent_;
  std::vector<agent::ObliviousAgent::FileId> files_;
};

/// The serving phase is accounted in windows of this many seconds.
inline constexpr double kWindowS = 0.5;

/// One kWindowS window of a serving phase.
struct ServeWindow {
  /// Requests whose round ended in the window.
  uint64_t requests = 0;
  /// CPU time the hypervisor took from the (virtual) machine during the
  /// window (the "steal" column of /proc/stat, in clock ticks; 0 where
  /// the kernel does not report it).
  uint64_t steal_ticks = 0;
  /// Wall latency (submit -> result / ack, ms) of the reads and writes
  /// that completed in the window.
  Reservoir read_ms;
  Reservoir write_ms;
};

struct ServeOptions {
  /// Time-bounded run: serve whole rounds until this many seconds passed.
  double seconds = 10.0;
  /// Fixed-work run when non-zero: serve exactly this many requests.
  uint64_t fixed_requests = 0;
  /// Log to enable for the serving window only (the system must have
  /// been built with it). Null = untraced.
  obs::TraceLog* trace = nullptr;
};

struct ServeResult {
  // Serving window.
  uint64_t requests = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double virtual_ms = 0.0;
  /// The whole kWindowS windows of --seconds, then one that collects
  /// everything later.
  std::vector<ServeWindow> windows;
  /// Per request, submission to the end of its commit on the virtual disk
  /// clock (what the dispatcher's latency histogram buckets), unbucketed.
  Reservoir virtual_latency_ms;
  agent::DispatcherStats dispatcher;
  uint64_t commits = 0;
  /// Every commit served exactly the group size (B, or 1 for one
  /// outstanding request).
  bool fill_ok = false;
  /// Store shape: level count, and whether re-orders ran as
  /// double-buffered chains (else blocking).
  uint64_t levels = 0;
  bool deamortized = false;
  CounterSnapshot before;
  CounterSnapshot after;
  // Final sweep: each hidden block read through the dispatcher and
  // straight from the StegFS partition.
  uint64_t sweep_reads = 0;
  uint64_t sweep_failed = 0;
  /// First mismatch or error seen, for the log; empty when none.
  std::string first_error;
};

/// Runs the closed loop on `system` (request stream drawn from `seed`),
/// then the final sweep. `model` must hold the system's current content;
/// it is updated with every acknowledged write.
ServeResult Serve(System& system, const WorkloadSpec& spec, uint64_t seed,
                  ReferenceModel& model, const ServeOptions& options);

}  // namespace steghide::perfbench

#endif  // STEGHIDE_PERFBENCH_WORKLOAD_H_
