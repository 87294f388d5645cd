// Fault-matrix suite for the mirrored shard layer: ReplicatedBlockDevice's
// one protocol (per-block version stamps, W/R quorums, lagging replicas,
// read-repair; plain write-all / read-one while no write is missed) with
// rotation, failover, quarantine, degraded mode and incremental repair;
// VolumeSet kill/revive/repair plumbing; a crash-consistency scenario
// (one replica of one shard dies mid flush-cascade, serving continues,
// repair re-mirrors it); a golden of the fault-free replica streams; and
// the oblivious-replication pin — per-replica traces, including failover and
// repair traffic, depend on the request pattern and fault schedule only,
// never on record contents.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "agent/oblivious_agent.h"
#include "storage/fault_device.h"
#include "storage/mem_block_device.h"
#include "storage/replicated_device.h"
#include "storage/trace_device.h"
#include "storage/volume_set.h"
#include "testing/golden.h"
#include "util/random.h"

namespace steghide::storage {
namespace {

using steghide::testing::FillGolden;
using steghide::testing::GoldenBlock;

/// R mem replicas, each behind a killable fault layer and a trace layer:
/// Mem -> Fault -> Trace, mirrored by a ReplicatedBlockDevice — the unit
/// twin of one VolumeSet shard.
struct MirrorFixture {
  explicit MirrorFixture(size_t replicas, uint64_t blocks,
                         ReplicationOptions options = {},
                         size_t block_size = 512) {
    std::vector<BlockDevice*> tops;
    for (size_t r = 0; r < replicas; ++r) {
      mems.push_back(std::make_unique<MemBlockDevice>(blocks, block_size));
      faults.push_back(
          std::make_unique<FaultInjectionBlockDevice>(mems.back().get()));
      traces.push_back(
          std::make_unique<TraceBlockDevice>(faults.back().get()));
      tops.push_back(traces.back().get());
    }
    rep = std::make_unique<ReplicatedBlockDevice>(std::move(tops), options);
  }

  size_t ReadCount(size_t r) const {
    size_t n = 0;
    for (const TraceEvent& ev : traces[r]->trace()) {
      if (ev.kind == TraceEvent::Kind::kRead) ++n;
    }
    return n;
  }

  std::vector<std::unique_ptr<MemBlockDevice>> mems;
  std::vector<std::unique_ptr<FaultInjectionBlockDevice>> faults;
  std::vector<std::unique_ptr<TraceBlockDevice>> traces;
  std::unique_ptr<ReplicatedBlockDevice> rep;
};

TEST(ReplicatedDeviceTest, WritesReachEveryReplicaReadsRotate) {
  MirrorFixture fx(2, 8);
  const Bytes image = GoldenBlock(1, 3, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(3, image.data()).ok());
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[0], 3, image));
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[1], 3, image));

  Bytes out(512);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(3, out.data()).ok());
    EXPECT_EQ(out, image);
  }
  // Read-one with rotation: the four reads alternate replicas — a
  // data-independent choice (a counter, not contents).
  EXPECT_EQ(fx.ReadCount(0), 2u);
  EXPECT_EQ(fx.ReadCount(1), 2u);
  const ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.reads, 4u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.healthy_replicas, 2u);
}

TEST(ReplicatedDeviceTest, ReadFailoverThenQuarantineAfterThreshold) {
  MirrorFixture fx(2, 8);
  ASSERT_TRUE(FillGolden(*fx.rep, 6).ok());
  fx.faults[0]->Kill();

  // Every read still succeeds. Rotation makes every second read start
  // at the dead replica (a failover); after quarantine_after = 3
  // consecutive failures replica 0 is benched and failovers stop.
  Bytes out(512);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(2, out.data()).ok()) << "read " << i;
    EXPECT_EQ(out, GoldenBlock(6, 2, 512));
  }
  const ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.healthy_replicas, 1u);
  EXPECT_EQ(fx.rep->replica_state(0), ReplicaState::kQuarantined);

  // Degraded mode: writes keep succeeding on the surviving replica.
  const Bytes image = GoldenBlock(9, 0, 512);
  EXPECT_TRUE(fx.rep->WriteBlock(0, image.data()).ok());
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[1], 0, image));
}

TEST(ReplicatedDeviceTest, MissedWriteLeavesReplicaLaggingUntilCurrent) {
  MirrorFixture fx(2, 8);
  ASSERT_TRUE(FillGolden(*fx.rep, 3).ok());
  fx.faults[1]->Kill();
  const Bytes image = GoldenBlock(4, 5, 512);
  // The write succeeds (replica 0 has it); replica 1 missed it, so its
  // stamp for block 5 is stale and it drops to lagging, not quarantine.
  ASSERT_TRUE(fx.rep->WriteBlock(5, image.data()).ok());
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kLagging);
  EXPECT_EQ(fx.rep->stale_blocks(1), 1u);
  ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.write_quorum_failures, 0u);

  fx.faults[1]->Revive();
  // Still lagging after revival: health is a mirror property, not a
  // device property. The lagging replica keeps serving the blocks it
  // holds at the latest stamp...
  const auto reads_of = [&](size_t r, uint64_t block) {
    size_t n = 0;
    for (const TraceEvent& ev : fx.traces[r]->trace()) {
      if (ev.kind == TraceEvent::Kind::kRead && ev.block_id == block) ++n;
    }
    return n;
  };
  Bytes out(512);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(2, out.data()).ok());
    EXPECT_EQ(out, GoldenBlock(3, 2, 512));
  }
  EXPECT_EQ(reads_of(1, 2), 1u);
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kLagging);
  EXPECT_FALSE(steghide::testing::BlockEquals(*fx.mems[1], 5, image));

  // ...but never the block it missed, even when rotation puts it first:
  // replica 0 serves it, and read-repair pushes the fresh image back,
  // which makes replica 1 current again and promotes it.
  ASSERT_TRUE(fx.rep->ReadBlock(5, out.data()).ok());
  EXPECT_EQ(out, image);
  EXPECT_EQ(reads_of(1, 5), 0u);
  EXPECT_EQ(fx.rep->stats().read_repairs, 1u);
  EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[1], 5, image));
  EXPECT_EQ(fx.rep->stale_blocks(1), 0u);
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kHealthy);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(5, out.data()).ok());
    EXPECT_EQ(out, image);
  }
  EXPECT_EQ(reads_of(1, 5), 2u);

  // quarantine_after = 3 consecutive missed writes bench the replica;
  // every one of them still succeeds on replica 0.
  fx.faults[1]->Kill();
  for (uint64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(fx.rep->replica_state(1), b == 0 ? ReplicaState::kHealthy
                                               : ReplicaState::kLagging);
    const Bytes update = GoldenBlock(5, b, 512);
    ASSERT_TRUE(fx.rep->WriteBlock(b, update.data()).ok()) << "block " << b;
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kQuarantined);
  stats = fx.rep->stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.write_quorum_failures, 0u);

  // Only a repair sweep makes it current (and serving) again.
  fx.faults[1]->Revive();
  ASSERT_TRUE(fx.rep->StartRepair(1).ok());
  bool more = true;
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kHealthy);
  EXPECT_EQ(fx.rep->stale_blocks(1), 0u);
  for (uint64_t b = 0; b < 8; ++b) {
    Bytes a(512), c(512);
    ASSERT_TRUE(fx.mems[0]->ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(fx.mems[1]->ReadBlock(b, c.data()).ok());
    EXPECT_EQ(a, c) << "block " << b;
  }
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);
}

TEST(ReplicatedDeviceTest, NoHealthyReplicasSurfacesIoError) {
  MirrorFixture fx(2, 8);
  fx.faults[0]->Kill();
  fx.faults[1]->Kill();
  const Bytes image = GoldenBlock(2, 0, 512);
  EXPECT_EQ(fx.rep->WriteBlock(0, image.data()).code(),
            StatusCode::kIoError);
  Bytes out(512);
  EXPECT_EQ(fx.rep->ReadBlock(0, out.data()).code(), StatusCode::kIoError);
  EXPECT_EQ(fx.rep->stats().healthy_replicas, 0u);
}

TEST(ReplicatedDeviceTest, RepairReMirrorsAndPromotes) {
  MirrorFixture fx(2, 16);
  ASSERT_TRUE(FillGolden(*fx.rep, 8).ok());

  // Replica 1 dies, misses a round of updates, comes back.
  fx.faults[1]->Kill();
  for (uint64_t b = 0; b < 16; b += 2) {
    const Bytes image = GoldenBlock(77, b, 512);
    ASSERT_TRUE(fx.rep->WriteBlock(b, image.data()).ok());
  }
  ASSERT_EQ(fx.rep->replica_state(1), ReplicaState::kQuarantined);
  fx.faults[1]->Revive();

  ASSERT_TRUE(fx.rep->StartRepair(1).ok());
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kRepairing);
  EXPECT_TRUE(fx.rep->repair_pending());

  // Writes during repair reach the repairing replica too, so the copied
  // prefix can never go stale behind the sweep.
  const Bytes live = GoldenBlock(123, 1, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(1, live.data()).ok());

  bool more = true;
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kHealthy);
  EXPECT_FALSE(fx.rep->repair_pending());
  const ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.repairs_completed, 1u);
  EXPECT_EQ(stats.repair_blocks, 16u);

  // Byte-for-byte mirror again.
  for (uint64_t b = 0; b < 16; ++b) {
    Bytes a(512), c(512);
    ASSERT_TRUE(fx.mems[0]->ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(fx.mems[1]->ReadBlock(b, c.data()).ok());
    EXPECT_EQ(a, c) << "block " << b;
  }
}

TEST(ReplicatedDeviceTest, RepairTrafficIsAFixedPublicSchedule) {
  MirrorFixture fx(2, 8);
  ASSERT_TRUE(FillGolden(*fx.rep, 31).ok());
  fx.rep->Quarantine(1);
  ASSERT_TRUE(fx.rep->StartRepair(1).ok());
  fx.traces[1]->ClearTrace();

  bool more = true;
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(3, &more).ok());
  }
  // The repaired replica sees exactly one ascending full-device write
  // sweep — block ids 0..N-1 in order, independent of which blocks
  // actually changed while it was out.
  const IoTrace& trace = fx.traces[1]->trace();
  ASSERT_EQ(trace.size(), 8u);
  for (uint64_t b = 0; b < 8; ++b) {
    EXPECT_EQ(trace[b].kind, TraceEvent::Kind::kWrite);
    EXPECT_EQ(trace[b].block_id, b);
  }
}

// ---- Golden oracle: the default mirror's per-replica streams ------------
//
// A default-constructed mirror over traced replicas runs a seeded mixed
// ReadBlocks / WriteBlocks / Flush schedule, then a manual quarantine,
// live writes while the replicas are out, StartRepair and a RepairStep
// sweep interleaved with more traffic. No write is ever missed, so the
// mirror runs as plain write-all / read-one and the stream every replica
// sees is pinned by one hash per shape: a change that moves it moved the
// mirror's replica choice, fan-out or scrub order.

struct MirrorGoldenShape {
  size_t replicas;
  /// Replicas quarantined by hand, in order; repair starts on them in
  /// the same order, the second one joining a sweep already in flight.
  std::vector<size_t> quarantined;
  uint64_t hash;
};

void PrintTo(const MirrorGoldenShape& shape, std::ostream* os) {
  *os << "R=" << shape.replicas;
}

class MirrorGoldenTest : public ::testing::TestWithParam<MirrorGoldenShape> {
};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST_P(MirrorGoldenTest, ReplicaStreamsMatchGolden) {
  const MirrorGoldenShape shape = GetParam();
  constexpr uint64_t kBlocks = 64;
  constexpr size_t kBs = 512;
  MirrorFixture fx(shape.replicas, kBlocks);
  Rng rng(0x3141 + shape.replicas);
  std::vector<Bytes> model(kBlocks, Bytes(kBs, 0));
  uint64_t op = 0;

  // One seeded op: a vectored read (checked against the model), a
  // vectored write of 1..8 random blocks, or a flush.
  const auto step = [&] {
    ++op;
    const uint64_t action = rng.Uniform(10);
    if (action == 9) {
      ASSERT_TRUE(fx.rep->Flush().ok()) << "op " << op;
      return;
    }
    std::vector<uint64_t> ids(1 + rng.Uniform(8));
    for (uint64_t& id : ids) id = rng.Uniform(kBlocks);
    Bytes buf(ids.size() * kBs);
    if (action < 4) {
      ASSERT_TRUE(fx.rep->ReadBlocks(ids, buf.data()).ok()) << "op " << op;
      for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(Bytes(buf.begin() + i * kBs, buf.begin() + (i + 1) * kBs),
                  model[ids[i]])
            << "op " << op << " block " << ids[i];
      }
      return;
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      const Bytes image = GoldenBlock(op, ids[i], kBs);
      std::copy(image.begin(), image.end(), buf.begin() + i * kBs);
      model[ids[i]] = image;
    }
    ASSERT_TRUE(fx.rep->WriteBlocks(ids, buf.data()).ok()) << "op " << op;
  };

  for (int i = 0; i < 300; ++i) ASSERT_NO_FATAL_FAILURE(step());
  for (size_t r : shape.quarantined) fx.rep->Quarantine(r);
  for (int i = 0; i < 60; ++i) ASSERT_NO_FATAL_FAILURE(step());
  for (size_t j = 0; j < shape.quarantined.size(); ++j) {
    ASSERT_TRUE(fx.rep->StartRepair(shape.quarantined[j]).ok());
    bool more = true;
    // The first repair is cut short by the second joining it; the last
    // one runs to completion.
    for (int s = 0; more && (j + 1 == shape.quarantined.size() || s < 3);
         ++s) {
      ASSERT_TRUE(fx.rep->RepairStep(5, &more).ok());
      ASSERT_NO_FATAL_FAILURE(step());
    }
  }
  EXPECT_FALSE(fx.rep->repair_pending());
  for (int i = 0; i < 60; ++i) ASSERT_NO_FATAL_FAILURE(step());

  for (size_t r = 0; r < shape.replicas; ++r) {
    EXPECT_EQ(fx.rep->replica_state(r), ReplicaState::kHealthy);
    for (uint64_t b = 0; b < kBlocks; ++b) {
      EXPECT_TRUE(steghide::testing::BlockEquals(*fx.mems[r], b, model[b]))
          << "replica " << r << " block " << b;
    }
  }
  const ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.repairs_completed, shape.quarantined.size());

  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t r = 0; r < shape.replicas; ++r) {
    const IoTrace& trace = fx.traces[r]->trace();
    hash = Fnv1a(hash, trace.size());
    for (const TraceEvent& ev : trace) {
      hash = Fnv1a(hash, ev.kind == TraceEvent::Kind::kRead ? 0 : 1);
      hash = Fnv1a(hash, ev.block_id);
    }
  }
  EXPECT_EQ(hash, shape.hash)
      << std::hex << "golden 0x" << hash << std::dec << " (replica 0 saw "
      << fx.traces[0]->trace().size() << " events)";
}

// R = 2 repairs replica 0, so the sweep copies from replica 1; R = 3
// repairs replica 1 from the lowest-index of two sources (replica 0),
// and replicas 0 and 2 in one restarted sweep sourced from replica 1.
INSTANTIATE_TEST_SUITE_P(
    Shapes, MirrorGoldenTest,
    ::testing::Values(MirrorGoldenShape{2, {0}, 0x57d7b405a9a01e77},
                      MirrorGoldenShape{3, {1}, 0x1669d4e84739a2cc},
                      MirrorGoldenShape{3, {0, 2}, 0xa179c1b36835e294}),
    [](const ::testing::TestParamInfo<MirrorGoldenShape>& info) {
      std::string name = "R" + std::to_string(info.param.replicas) + "Repair";
      for (size_t r : info.param.quarantined) name += std::to_string(r);
      return name;
    });

// ---- Quorums (R = 3): W/R windows, concurrent quarantines, --------------
// ---- repair racing live writes ------------------------------------------

ReplicationOptions QuorumOptions(size_t w, size_t r, int quarantine_after) {
  ReplicationOptions options;
  options.write_quorum = w;
  options.read_quorum = r;
  options.quarantine_after = quarantine_after;
  return options;
}

TEST(QuorumReplicationTest, TwoConcurrentQuarantinesServeAndRepair) {
  // W = 1 survives the loss of two of three replicas: writes keep
  // succeeding on the lone survivor, both casualties walk the
  // lagging -> quarantined ladder independently, and one repair sweep
  // re-mirrors them together.
  MirrorFixture fx(3, 16, QuorumOptions(1, 1, /*quarantine_after=*/2));
  ASSERT_TRUE(FillGolden(*fx.rep, 21).ok());
  fx.faults[1]->Kill();
  fx.faults[2]->Kill();

  for (uint64_t b = 0; b < 8; ++b) {
    const Bytes image = GoldenBlock(22, b, 512);
    ASSERT_TRUE(fx.rep->WriteBlock(b, image.data()).ok()) << "block " << b;
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kQuarantined);
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kQuarantined);
  ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.quarantines, 2u);
  EXPECT_EQ(stats.write_quorum_failures, 0u);
  EXPECT_EQ(stats.healthy_replicas, 1u);

  Bytes out(512);
  for (uint64_t b = 0; b < 16; ++b) {
    ASSERT_TRUE(fx.rep->ReadBlock(b, out.data()).ok());
    EXPECT_EQ(out, GoldenBlock(b < 8 ? 22 : 21, b, 512)) << "block " << b;
  }
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);

  // Both replicas repair in the same sweep and come back byte-identical.
  fx.faults[1]->Revive();
  fx.faults[2]->Revive();
  ASSERT_TRUE(fx.rep->StartRepair(1).ok());
  ASSERT_TRUE(fx.rep->StartRepair(2).ok());
  bool more = true;
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  }
  EXPECT_EQ(fx.rep->replica_state(1), ReplicaState::kHealthy);
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kHealthy);
  for (uint64_t b = 0; b < 16; ++b) {
    Bytes a(512), c(512), d(512);
    ASSERT_TRUE(fx.mems[0]->ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(fx.mems[1]->ReadBlock(b, c.data()).ok());
    ASSERT_TRUE(fx.mems[2]->ReadBlock(b, d.data()).ok());
    EXPECT_EQ(a, c) << "block " << b;
    EXPECT_EQ(a, d) << "block " << b;
  }
}

TEST(QuorumReplicationTest, RepairSweepRestartsWhenRacedByAFailedWrite) {
  MirrorFixture fx(3, 8, QuorumOptions(1, 1, /*quarantine_after=*/3));
  ASSERT_TRUE(FillGolden(*fx.rep, 30).ok());

  // Replica 2 misses one write, comes back, and starts repairing.
  fx.faults[2]->Kill();
  const Bytes missed = GoldenBlock(31, 3, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(3, missed.data()).ok());
  ASSERT_EQ(fx.rep->replica_state(2), ReplicaState::kLagging);
  fx.faults[2]->Revive();
  ASSERT_TRUE(fx.rep->StartRepair(2).ok());

  // The sweep copies blocks 0..3, then a live write to block 1 — already
  // behind the cursor — fails on the repairing replica. The completed
  // sweep may not promote: it restarts until every stamp is current.
  bool more = true;
  ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  ASSERT_TRUE(more);
  ASSERT_EQ(fx.rep->repair_cursor(), 4u);
  fx.faults[2]->Kill();
  const Bytes behind = GoldenBlock(32, 1, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(1, behind.data()).ok());
  fx.faults[2]->Revive();
  // A racing write *ahead* of the cursor lands directly and needs no
  // second pass.
  const Bytes ahead = GoldenBlock(32, 6, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(6, ahead.data()).ok());

  ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  EXPECT_TRUE(more) << "sweep must restart: block 1 is stale again";
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kRepairing);
  while (more) {
    ASSERT_TRUE(fx.rep->RepairStep(4, &more).ok());
  }
  EXPECT_EQ(fx.rep->replica_state(2), ReplicaState::kHealthy);
  EXPECT_EQ(fx.rep->stale_blocks(2), 0u);

  Bytes out(512);
  ASSERT_TRUE(fx.rep->ReadBlock(1, out.data()).ok());
  EXPECT_EQ(out, behind);
  for (uint64_t b = 0; b < 8; ++b) {
    Bytes a(512), c(512);
    ASSERT_TRUE(fx.mems[0]->ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(fx.mems[2]->ReadBlock(b, c.data()).ok());
    EXPECT_EQ(a, c) << "block " << b;
  }
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);
}

TEST(QuorumReplicationTest, ReadWindowAtTheIntersectionBoundary) {
  // W + R = R_total + 1 (2 + 2 = 3 + 1): any read window of two rotation
  // candidates intersects every write quorum, so with one lagging
  // replica no read ever widens beyond the window — and none is stale.
  MirrorFixture fx(3, 8, QuorumOptions(2, 2, /*quarantine_after=*/100));
  ASSERT_TRUE(FillGolden(*fx.rep, 33).ok());
  fx.faults[2]->Kill();
  const Bytes fresh = GoldenBlock(34, 4, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(4, fresh.data()).ok());  // two acks = W
  ASSERT_EQ(fx.rep->replica_state(2), ReplicaState::kLagging);

  Bytes out(512);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(4, out.data()).ok());
    EXPECT_EQ(out, fresh) << "read " << i;
  }
  ReplicationStats stats = fx.rep->stats();
  EXPECT_EQ(stats.quorum_widened, 0u);
  EXPECT_EQ(stats.quorum_stale_reads, 0u);
}

TEST(QuorumReplicationTest, BelowTheBoundaryReadsWidenButNeverGoStale) {
  // W + R = R_total (1 + 2 = 3): two laggards can hold stale copies, so
  // a window of two rotation candidates sometimes contains no current
  // replica. The search widens (and says so) rather than serve a stale
  // stamp.
  MirrorFixture fx(3, 8, QuorumOptions(1, 2, /*quarantine_after=*/100));
  ASSERT_TRUE(FillGolden(*fx.rep, 35).ok());
  fx.faults[1]->Kill();
  fx.faults[2]->Kill();
  const Bytes fresh = GoldenBlock(36, 4, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(4, fresh.data()).ok());  // one ack = W

  Bytes out(512);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.rep->ReadBlock(4, out.data()).ok());
    EXPECT_EQ(out, fresh) << "read " << i;
  }
  ReplicationStats stats = fx.rep->stats();
  EXPECT_GT(stats.quorum_widened, 0u);
  EXPECT_EQ(stats.quorum_stale_reads, 0u);
}

TEST(QuorumReplicationTest, StaleFallbackOnlyWhenNoCurrentReplicaRemains) {
  MirrorFixture fx(3, 8, QuorumOptions(1, 2, /*quarantine_after=*/2));
  ASSERT_TRUE(FillGolden(*fx.rep, 37).ok());

  // Replicas 1 and 2 miss the update to block 4, then come back
  // reachable (but still stale). The only current copy — replica 0 —
  // dies.
  fx.faults[1]->Kill();
  fx.faults[2]->Kill();
  const Bytes fresh = GoldenBlock(38, 4, 512);
  ASSERT_TRUE(fx.rep->WriteBlock(4, fresh.data()).ok());
  fx.faults[1]->Revive();
  fx.faults[2]->Revive();
  fx.faults[0]->Kill();

  // While replica 0 is still in rotation the read refuses to serve a
  // stale stamp: it fails instead (and the repeated errors bench the
  // dead replica).
  Bytes out(512);
  ASSERT_FALSE(fx.rep->ReadBlock(4, out.data()).ok());
  EXPECT_EQ(fx.rep->replica_state(0), ReplicaState::kQuarantined);
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 0u);

  // With no current replica left at all, degraded mode serves the
  // newest reachable stamp — and counts the loss.
  ASSERT_TRUE(fx.rep->ReadBlock(4, out.data()).ok());
  EXPECT_EQ(out, GoldenBlock(37, 4, 512));
  EXPECT_EQ(fx.rep->stats().quorum_stale_reads, 1u);
}

// ---- VolumeSet kill / revive / repair -----------------------------------

TEST(VolumeSetReplicationTest, KillReviveRepairRoundTrip) {
  VolumeSet::Options options;
  options.shards = 2;
  options.replicas = 2;
  options.total_blocks = 64;
  options.block_size = 512;
  options.fault_plan = [](size_t, size_t) { return FaultPlan{}; };
  VolumeSet volumes(options);
  ASSERT_EQ(volumes.replica_count(), 2u);
  ASSERT_NE(volumes.replicated(0), nullptr);

  ASSERT_TRUE(FillGolden(volumes.device(), 51).ok());
  volumes.KillReplica(0, 1);

  // Serving continues degraded: every global block, including shard 0's,
  // still reads and writes.
  Bytes out(512);
  for (uint64_t g = 0; g < 64; ++g) {
    ASSERT_TRUE(volumes.device().ReadBlock(g, out.data()).ok());
    EXPECT_EQ(out, GoldenBlock(51, g, 512));
  }
  for (uint64_t g = 0; g < 64; g += 4) {
    const Bytes image = GoldenBlock(52, g, 512);
    ASSERT_TRUE(volumes.device().WriteBlock(g, image.data()).ok());
  }
  EXPECT_EQ(volumes.replicated(0)->replica_state(1),
            ReplicaState::kQuarantined);

  ASSERT_TRUE(volumes.ReviveAndRepair(0, 1).ok());
  EXPECT_TRUE(volumes.repair_pending());
  for (;;) {
    auto pending = volumes.PumpRepair(8);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    if (!*pending) break;
  }
  EXPECT_FALSE(volumes.repair_pending());
  EXPECT_EQ(volumes.replicated(0)->replica_state(1), ReplicaState::kHealthy);

  // Shard 0's replicas are byte-identical again.
  for (uint64_t local = 0; local < volumes.mem(0, 0).num_blocks(); ++local) {
    Bytes a(512), b(512);
    ASSERT_TRUE(volumes.mem(0, 0).ReadBlock(local, a.data()).ok());
    ASSERT_TRUE(volumes.mem(0, 1).ReadBlock(local, b.data()).ok());
    EXPECT_EQ(a, b) << "local block " << local;
  }
}

TEST(VolumeSetReplicationTest, ReviveAndRepairRequiresReplication) {
  VolumeSet::Options options;
  options.shards = 2;
  options.total_blocks = 16;
  options.block_size = 512;
  VolumeSet volumes(options);
  EXPECT_EQ(volumes.ReviveAndRepair(0, 0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(volumes.repair_pending());
  auto pending = volumes.PumpRepair(8);
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(*pending);
}

TEST(VolumeSetReplicationTest, ReviveAndRepairRejectsUnknownReplica) {
  VolumeSet::Options options;
  options.shards = 2;
  options.replicas = 2;
  options.total_blocks = 16;
  options.block_size = 512;
  options.fault_plan = [](size_t, size_t) { return FaultPlan{}; };
  VolumeSet volumes(options);
  EXPECT_EQ(volumes.ReviveAndRepair(2, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(volumes.ReviveAndRepair(0, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(volumes.ReviveAndRepair(7, 9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(volumes.repair_pending());
  for (size_t k = 0; k < 2; ++k) {
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(volumes.replicated(k)->replica_state(r),
                ReplicaState::kHealthy);
    }
  }
}

}  // namespace
}  // namespace steghide::storage

// ---- Full-stack crash consistency and per-replica obliviousness ---------

namespace steghide::agent {
namespace {

using storage::FaultPlan;
using storage::IoTrace;
using storage::ReplicaState;
using storage::VolumeSet;

oblivious::ObliviousStoreOptions ReplicatedStoreOptions() {
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = 8;
  opts.capacity_blocks = 128;  // levels 16, 32, 64, 128
  opts.partition_base = 0;
  opts.scratch_base = 2 * 128 - 2 * 8;  // 240
  opts.drbg_seed = 41;
  opts.deamortize_reorders = true;
  opts.shadow_base = 240 + 128;
  opts.reorder_step_blocks = 1;
  return opts;
}

/// Agent over a K=2, R=2 replicated + traced VolumeSet cache. Two
/// instances with the same seed issue identical op streams until their
/// inputs diverge; `salt` varies record *contents* only.
struct ReplicatedSystem {
  explicit ReplicatedSystem(uint64_t seed)
      : steg_mem(4096, 4096), core(&steg_mem, stegfs::StegFsOptions{seed, true}) {
    VolumeSet::Options options;
    options.shards = 2;
    options.replicas = 2;
    options.total_blocks = 768;
    options.block_size = 4096;
    options.traced = true;
    options.fault_plan = [](size_t, size_t) { return FaultPlan{}; };
    volumes = std::make_unique<VolumeSet>(options);
    EXPECT_TRUE(core.Format().ok());
    auto created = ObliviousAgent::Create(&core, &volumes->device(),
                                          ReplicatedStoreOptions());
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    agent = std::move(created).value();
    EXPECT_TRUE(agent->CreateDummyFile("u", 600).ok());
  }

  Bytes FileBlock(uint64_t salt, size_t file_index, size_t block) {
    return Bytes(core.payload_size(),
                 static_cast<uint8_t>(salt * 101 + file_index * 37 + block));
  }

  std::vector<ObliviousAgent::FileId> Populate(uint64_t salt, size_t files,
                                               size_t blocks) {
    std::vector<ObliviousAgent::FileId> ids;
    const size_t payload = core.payload_size();
    for (size_t f = 0; f < files; ++f) {
      auto id = agent->CreateHiddenFile("u");
      EXPECT_TRUE(id.ok());
      Bytes data(blocks * payload);
      for (size_t b = 0; b < blocks; ++b) {
        const Bytes block = FileBlock(salt, f, b);
        std::copy(block.begin(), block.end(), data.begin() + b * payload);
      }
      EXPECT_TRUE(agent->Write(*id, 0, data).ok());
      ids.push_back(*id);
    }
    return ids;
  }

  /// Re-stages a small store-layer working set until an incremental
  /// re-order chain is left mid-flight. Agent requests pay serving taxes
  /// op by op, which drains shallow chains before the call returns; raw
  /// MultiInsert bursts stop paying the moment the call ends, so a
  /// cascade reliably outlives the burst that triggered it.
  void BuildReorderBacklog() {
    auto& store = agent->store();
    Bytes payloads(16 * store.payload_size(), 0x5a);
    std::vector<oblivious::RecordId> rids(16);
    for (size_t i = 0; i < rids.size(); ++i) rids[i] = (1u << 20) + i;
    for (int round = 0; round < 32 && !store.reorder_pending(); ++round) {
      ASSERT_TRUE(store.MultiInsert(rids, payloads.data()).ok());
    }
    ASSERT_TRUE(store.reorder_pending()) << "no chain ever went pending";
  }

  void DrainReorders() {
    while (agent->store().reorder_pending()) {
      bool more = false;
      ASSERT_TRUE(agent->store().StepReorder(1 << 20, &more).ok());
    }
  }

  void RepairReplica(size_t k, size_t r) {
    ASSERT_TRUE(volumes->ReviveAndRepair(k, r).ok());
    for (;;) {
      auto pending = volumes->PumpRepair(32);
      ASSERT_TRUE(pending.ok()) << pending.status().ToString();
      if (!*pending) break;
    }
  }

  storage::MemBlockDevice steg_mem;
  std::unique_ptr<VolumeSet> volumes;
  stegfs::StegFsCore core;
  std::unique_ptr<ObliviousAgent> agent;
};

TEST(ReplicatedCrashConsistencyTest, ShardReplicaDiesMidCascade) {
  ReplicatedSystem sys(3001);
  constexpr size_t kFiles = 6, kBlocks = 4;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(/*salt=*/0, kFiles, kBlocks);

  // Update every file's first block, park a flush cascade mid-flight,
  // then kill one replica of shard 0 under it.
  for (size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(sys.agent
                    ->Write(ids[f], 0,
                            Bytes(payload, static_cast<uint8_t>(0xc0 + f)))
                    .ok());
  }
  sys.BuildReorderBacklog();
  ASSERT_TRUE(sys.agent->store().reorder_pending());
  sys.volumes->KillReplica(0, 1);

  // Zero failed requests: every read and write after the kill succeeds
  // via failover / degraded writes, while the cascade finishes.
  for (size_t f = 0; f < kFiles; ++f) {
    auto back = sys.agent->Read(ids[f], 0, kBlocks * payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
  }
  ASSERT_TRUE(sys.agent
                  ->Write(ids[0], payload, Bytes(payload, 0xee))
                  .ok());
  sys.DrainReorders();
  EXPECT_EQ(sys.volumes->replicated(0)->replica_state(1),
            ReplicaState::kQuarantined);

  // Fail back: revive + repair, then verify every record — the ones from
  // before the kill, the mid-cascade updates, and the degraded-mode
  // write — plus the level hierarchy serving them.
  sys.RepairReplica(0, 1);
  EXPECT_EQ(sys.volumes->replicated(0)->stats().repairs_completed, 1u);

  for (size_t f = 0; f < kFiles; ++f) {
    auto back = sys.agent->Read(ids[f], 0, kBlocks * payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    for (size_t b = 0; b < kBlocks; ++b) {
      Bytes expected;
      if (b == 0) {
        expected = Bytes(payload, static_cast<uint8_t>(0xc0 + f));
      } else if (b == 1 && f == 0) {
        expected = Bytes(payload, 0xee);
      } else {
        expected = sys.FileBlock(0, f, b);
      }
      EXPECT_EQ(Bytes(back->begin() + b * payload,
                      back->begin() + (b + 1) * payload),
                expected)
          << "file " << f << " block " << b;
    }
  }

  // The repaired mirror is byte-identical to its twin.
  auto& mem0 = sys.volumes->mem(0, 0);
  auto& mem1 = sys.volumes->mem(0, 1);
  for (uint64_t local = 0; local < mem0.num_blocks(); ++local) {
    Bytes a(4096), b(4096);
    ASSERT_TRUE(mem0.ReadBlock(local, a.data()).ok());
    ASSERT_TRUE(mem1.ReadBlock(local, b.data()).ok());
    ASSERT_EQ(a, b) << "shard 0 local block " << local;
  }
}

TEST(ReplicatedTraceEquivalenceTest, ReplicaTracesAreContentIndependent) {
  // Twin systems, identical op sequence — kill, degraded serving, and
  // repair included — but different record contents. Every replica's
  // observed stream (reads from rotation/failover, write-all fan-out,
  // the repair sweep) must be identical: replica choice, scrub order and
  // repair traffic are functions of the pattern and the fault schedule,
  // never of the data.
  ReplicatedSystem a(4004), b(4004);
  constexpr size_t kFiles = 4, kBlocks = 4;
  const size_t payload = a.core.payload_size();

  const auto ids_a = a.Populate(/*salt=*/1, kFiles, kBlocks);
  const auto ids_b = b.Populate(/*salt=*/2, kFiles, kBlocks);

  a.volumes->KillReplica(1, 0);
  b.volumes->KillReplica(1, 0);

  for (size_t round = 0; round < 2; ++round) {
    for (size_t f = 0; f < kFiles; ++f) {
      ASSERT_TRUE(a.agent->Read(ids_a[f], 0, kBlocks * payload).ok());
      ASSERT_TRUE(b.agent->Read(ids_b[f], 0, kBlocks * payload).ok());
    }
    ASSERT_TRUE(
        a.agent->Write(ids_a[round], 0, Bytes(payload, 0x11)).ok());
    ASSERT_TRUE(
        b.agent->Write(ids_b[round], 0, Bytes(payload, 0x99)).ok());
  }
  a.DrainReorders();
  b.DrainReorders();
  a.RepairReplica(1, 0);
  b.RepairReplica(1, 0);

  for (size_t k = 0; k < 2; ++k) {
    for (size_t r = 0; r < 2; ++r) {
      const IoTrace& ta = a.volumes->trace(k, r)->trace();
      const IoTrace& tb = b.volumes->trace(k, r)->trace();
      EXPECT_EQ(ta, tb) << "replica (" << k << ", " << r << ")";
    }
  }
  // Sanity: the dead replica really was detected (the first op to reach
  // it after the kill may be a write, which quarantines without a
  // read-path failover — both detection paths are content-independent,
  // so the counters must agree across the twins either way).
  EXPECT_EQ(a.volumes->replicated(1)->stats().quarantines, 1u);
  EXPECT_EQ(a.volumes->replicated(1)->stats().failovers,
            b.volumes->replicated(1)->stats().failovers);
  EXPECT_EQ(a.volumes->replicated(1)->stats().repairs_completed, 1u);
}

}  // namespace
}  // namespace steghide::agent
