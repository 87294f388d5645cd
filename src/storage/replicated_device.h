#ifndef STEGHIDE_STORAGE_REPLICATED_DEVICE_H_
#define STEGHIDE_STORAGE_REPLICATED_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "storage/block_device.h"

namespace steghide::storage {

/// Mirroring policy knobs.
struct ReplicationOptions {
  /// Consecutive failed *reads* after which a replica is quarantined
  /// instead of merely failed over (transient hiccups stay in rotation).
  /// The same threshold applies to consecutive failed writes/flushes,
  /// which first demote the replica to lagging.
  int quarantine_after = 3;
  /// Acks (from healthy or lagging replicas) required for a write or
  /// flush to succeed. Clamped to [1, R].
  size_t write_quorum = 1;
  /// Replicas consulted per read before the search is counted as
  /// "widened" beyond the quorum. Clamped to [1, R].
  size_t read_quorum = 1;
};

enum class ReplicaState : uint8_t {
  kHealthy,
  kQuarantined,
  kRepairing,
  /// Reachable but missing some writes (a replica that failed a write,
  /// or the far side of a healed partition). Still serves reads for
  /// blocks it holds at the latest version, receives all new writes, and
  /// re-converges via read-repair or a repair sweep.
  kLagging,
};

/// Counter snapshot of the mirror's life so far.
struct ReplicationStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  /// Reads answered by a replica other than the first one tried.
  uint64_t failovers = 0;
  uint64_t quarantines = 0;
  uint64_t repairs_completed = 0;
  uint64_t repair_blocks = 0;
  /// Stale blocks pushed back to lagging replicas on the read path.
  uint64_t read_repairs = 0;
  /// Reads that had to consult replicas beyond the first read_quorum
  /// rotation candidates.
  uint64_t quorum_widened = 0;
  /// Blocks served from a replica whose stamp is behind the latest
  /// version — this is data loss and must never happen while a
  /// write-quorum's worth of current replicas exists (hard-gated to zero
  /// in the benches).
  uint64_t quorum_stale_reads = 0;
  /// Writes that could not collect write_quorum acks.
  uint64_t write_quorum_failures = 0;
  size_t healthy_replicas = 0;
  size_t lagging_replicas = 0;
  /// Failover latency distribution (virtual ms), all quantiles from the
  /// same registry HistogramCell the metrics export reads.
  double failover_ms_max = 0.0;
  double failover_ms_mean = 0.0;
  double failover_ms_p50 = 0.0;
  double failover_ms_p99 = 0.0;
};

/// R-way mirrored block device with failover, quarantine, degraded-mode
/// serving, and incremental repair. Every block carries a version stamp
/// (client-side, per mirror). Writes go to every serviceable replica and
/// succeed on W acks; a replica that misses a write is demoted to
/// *lagging* and only ever serves blocks it holds at the latest stamp,
/// so reads can never return stale data; after `quarantine_after`
/// consecutive failed writes it is quarantined until a repair sweep
/// re-mirrors it. Reads consult up to R rotation candidates and fall
/// back per-block to any replica that is current for that block; fresh
/// data is pushed back to reachable lagging replicas (read-repair). This
/// is what lets a failing spindle or a partitioned or crashed *remote*
/// replica degrade service instead of failing it, and re-converge
/// byte-identically after it comes back. While no write is missed this
/// is plain write-all / read-one.
///
/// *Oblivious replication*: every choice this layer makes is
/// data-independent. The serving replica for a read is picked by a
/// rotation counter over the serving set (a function of the op count
/// and the fault history, never of block contents); version stamps are
/// functions of the (public) write pattern and fault schedule; writes
/// go to every serviceable replica in index order; repair copies blocks
/// in plain ascending order from a per-block version-current source. An
/// attacker tracing any single replica therefore sees a stream whose
/// shape depends only on the request pattern and the (data-independent)
/// fault schedule — pinned by the per-replica distinguisher suites.
///
/// Threading: I/O entry points and RepairStep follow the single-issuer
/// contract (in the VolumeSet they all run on the owning shard's pool
/// thread); replica_state()/healthy_count()/stats() are thread-safe
/// snapshots.
class ReplicatedBlockDevice : public BlockDevice {
 public:
  /// Does not take ownership of `replicas`, which must share one block
  /// size and outlive this object. All replicas start healthy and
  /// version-current.
  explicit ReplicatedBlockDevice(std::vector<BlockDevice*> replicas,
                                 ReplicationOptions options = {});

  using BlockDevice::ReadBlock;
  using BlockDevice::WriteBlock;

  Status ReadBlock(uint64_t block_id, uint8_t* out) override;
  Status WriteBlock(uint64_t block_id, const uint8_t* data) override;
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override;
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override;
  uint64_t num_blocks() const override { return num_blocks_; }
  size_t block_size() const override { return block_size_; }
  Status Flush() override;

  size_t replica_count() const { return replicas_.size(); }
  BlockDevice* replica(size_t r) { return replicas_[r]; }
  ReplicaState replica_state(size_t r) const {
    return static_cast<ReplicaState>(
        states_[r].load(std::memory_order_relaxed));
  }
  size_t healthy_count() const;
  size_t lagging_count() const;

  /// Manual quarantine (tests; an external health checker).
  void Quarantine(size_t r);

  /// Re-admits a quarantined or lagging replica for repair: it
  /// immediately receives all new writes (so the repaired prefix can
  /// never go stale) and a full sequential copy pass re-mirrors it. The
  /// caller must have revived/replaced the underlying device first.
  Status StartRepair(size_t r);
  /// Copies up to `budget_blocks` blocks into every repairing replica;
  /// *more = work remains. Completing the sweep promotes the replicas to
  /// healthy only once every block is verifiably at the latest stamp — a
  /// sweep raced by failed live writes restarts.
  /// Fixed ascending scrub order: repair traffic is data-independent by
  /// construction.
  Status RepairStep(uint64_t budget_blocks, bool* more);
  bool repair_pending() const;
  /// Next block the repair sweep will copy (progress indicator).
  uint64_t repair_cursor() const { return repair_cursor_; }

  /// Number of blocks replica `r` holds at a stale stamp. Issuer-thread
  /// only (like the version bookkeeping it reads).
  uint64_t stale_blocks(size_t r) const { return stale_count_[r]; }

  /// Virtual-clock sampler for the failover latency histogram.
  void set_clock_fn(std::function<double()> fn) { clock_fn_ = std::move(fn); }

  ReplicationStats stats() const;
  void RegisterMetrics(obs::Registry* registry, const std::string& prefix);

 private:
  struct Cells {
    obs::CounterCell reads;
    obs::CounterCell writes;
    obs::CounterCell failovers;
    obs::CounterCell quarantines;
    obs::CounterCell repairs_completed;
    obs::CounterCell repair_blocks;
    obs::CounterCell read_repairs;
    obs::CounterCell quorum_widened;
    obs::CounterCell quorum_stale_reads;
    obs::CounterCell write_quorum_failures;
    obs::GaugeCell healthy_replicas;
    obs::GaugeCell lagging_replicas;
    obs::HistogramCell failover_ms;
  };

  /// Immediate same-replica attempts per write before the replica is
  /// counted as having missed it.
  static constexpr int kWriteAttempts = 2;

  void SetState(size_t r, ReplicaState state);
  void QuarantineLocked(size_t r);
  /// Serving (healthy and lagging) replicas in rotation order starting
  /// at the rr counter; the per-block stamps gate what a lagging one
  /// serves. Returns false when the set is empty.
  bool ServingOrder(std::vector<size_t>* order);

  bool CurrentForAll(size_t r, std::span<const uint64_t> ids) const;
  /// Marks `id` written at the latest stamp on replica `r`.
  void MarkCurrent(size_t r, uint64_t id);
  /// Bumps the latest stamp of every id and accounts the new staleness.
  void BumpVersions(std::span<const uint64_t> ids);
  /// Demotion ladder for a failed write/flush on replica `r`.
  void NoteWriteFailure(size_t r);
  void MaybePromote(size_t r);
  Status ReadFrom(std::span<const uint64_t> ids, uint8_t* out);
  Status WriteTo(std::span<const uint64_t> ids, const uint8_t* data);
  /// Pushes the (version-current) blocks just read back to reachable
  /// lagging replicas. `served_current[i]` guards against propagating a
  /// stale fallback.
  void ReadRepair(std::span<const uint64_t> ids, const uint8_t* out,
                  const std::vector<bool>& served_current);

  std::vector<BlockDevice*> replicas_;
  ReplicationOptions options_;
  uint64_t num_blocks_;
  size_t block_size_;
  size_t write_quorum_ = 1;
  size_t read_quorum_ = 1;
  /// Atomic so a bench thread can poll degraded state mid-run.
  std::vector<std::atomic<uint8_t>> states_;
  /// Issuer-thread-only serving state.
  uint64_t rr_ = 0;
  std::vector<int> consecutive_read_errors_;
  std::vector<int> consecutive_write_errors_;
  uint64_t repair_cursor_ = 0;
  std::vector<uint8_t> repair_buf_;
  /// Version bookkeeping (issuer-thread only).
  std::vector<uint64_t> latest_ver_;                // [num_blocks]
  std::vector<std::vector<uint64_t>> replica_ver_;  // [R][num_blocks]
  std::vector<uint64_t> stale_count_;               // [R]
  std::function<double()> clock_fn_;
  Cells cells_;
  obs::Registration registration_;
};

}  // namespace steghide::storage

#endif  // STEGHIDE_STORAGE_REPLICATED_DEVICE_H_
