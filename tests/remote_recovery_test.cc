// Remote-matrix crash/recovery suite: a VolumeSet with one remote
// (loopback block-RPC) replica per shard running in quorum mode. Kills
// the server mid-write-burst, partitions the link mid-write-quorum via
// a scripted transport fault, crashes it again mid-repair — and pins
// that quorum reads never serve stale data, degraded service never
// fails a request, and the mirror re-converges byte-identically after
// reconnect. Ends with the RPC-stream distinguisher: per-replica block
// traces AND per-replica delivered-frame logs must be identical across
// content-differing twin runs with the same request pattern and fault
// schedule.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "agent/oblivious_agent.h"
#include "storage/fault_device.h"
#include "storage/remote/transport.h"
#include "storage/volume_set.h"
#include "testing/golden.h"
#include "util/bytes.h"

namespace steghide::storage {
namespace {

using steghide::testing::FillGolden;
using steghide::testing::GoldenBlock;

/// K=2 shards, R=2 replicas, replica 1 of every shard behind a loopback
/// RPC endpoint; quorum mode with W=1 so a lost remote degrades writes
/// instead of failing them.
VolumeSet::Options RemoteQuorumOptions(int quarantine_after,
                                       uint64_t total_blocks = 64) {
  VolumeSet::Options options;
  options.shards = 2;
  options.replicas = 2;
  options.total_blocks = total_blocks;
  options.block_size = 512;
  options.fault_plan = [](size_t, size_t) { return FaultPlan{}; };
  options.replication.write_quorum = 1;
  options.replication.read_quorum = 1;
  options.replication.quarantine_after = quarantine_after;
  options.remote = [](size_t, size_t r) { return r == 1; };
  options.remote_options.rpc_deadline_ms = 5000.0;
  options.remote_options.retry.max_attempts = 2;
  return options;
}

void ExpectShardMirrorsIdentical(VolumeSet& volumes, size_t k) {
  auto& local = volumes.mem(k, 0);
  auto& remote_backing = volumes.mem(k, 1);
  for (uint64_t b = 0; b < local.num_blocks(); ++b) {
    Bytes a(local.block_size()), c(local.block_size());
    ASSERT_TRUE(local.ReadBlock(b, a.data()).ok());
    ASSERT_TRUE(remote_backing.ReadBlock(b, c.data()).ok());
    ASSERT_EQ(a, c) << "shard " << k << " local block " << b;
  }
}

TEST(RemoteQuorumTest, ScriptedPartitionMidWriteQuorumThenReadRepair) {
  // The transport schedule black-holes shard 0's remote link on its
  // 21st client frame — mid way through the fill burst, between the
  // local ack and the remote ack of one quorum write.
  VolumeSet::Options options = RemoteQuorumOptions(/*quarantine_after=*/1000);
  options.transport_fault_plan = [](size_t k, size_t) {
    FaultPlan plan;
    if (k == 0) {
      FaultSpec spec;
      spec.kind = FaultSpec::Kind::kPartition;
      spec.start_after = 20;
      spec.max_fires = 1;  // one partition event; the latch does the rest
      plan.faults.push_back(spec);
    }
    return plan;
  };
  VolumeSet volumes(options);

  // Every write of the burst succeeds: before the partition via both
  // acks, after it via the local W=1 quorum.
  ASSERT_TRUE(FillGolden(volumes.device(), 13).ok());
  ASSERT_TRUE(volumes.transport_fault(0, 1)->partitioned());
  EXPECT_EQ(volumes.replicated(0)->replica_state(1), ReplicaState::kLagging);
  EXPECT_GT(volumes.replicated(0)->stale_blocks(1), 0u);
  EXPECT_EQ(volumes.replicated(0)->stats().write_quorum_failures, 0u);

  // Degraded reads: every block comes back fresh — the lagging remote
  // only ever serves blocks it holds at the latest stamp.
  Bytes out(512);
  for (uint64_t g = 0; g < 64; ++g) {
    ASSERT_TRUE(volumes.device().ReadBlock(g, out.data()).ok());
    ASSERT_EQ(out, GoldenBlock(13, g, 512)) << "block " << g;
  }
  EXPECT_EQ(volumes.replicated(0)->stats().quorum_stale_reads, 0u);

  // Heal the link and read everything once more: read-repair pushes
  // each stale block back to the remote, which re-converges and is
  // promoted without ever needing a full sweep.
  volumes.HealReplica(0, 1);
  for (uint64_t g = 0; g < 64; ++g) {
    ASSERT_TRUE(volumes.device().ReadBlock(g, out.data()).ok());
    ASSERT_EQ(out, GoldenBlock(13, g, 512)) << "block " << g;
  }
  EXPECT_EQ(volumes.replicated(0)->stale_blocks(1), 0u);
  EXPECT_EQ(volumes.replicated(0)->replica_state(1), ReplicaState::kHealthy);
  EXPECT_GT(volumes.replicated(0)->stats().read_repairs, 0u);
  EXPECT_EQ(volumes.replicated(0)->stats().quorum_stale_reads, 0u);
  ExpectShardMirrorsIdentical(volumes, 0);
  ExpectShardMirrorsIdentical(volumes, 1);
}

TEST(RemoteQuorumTest, ServerCrashMidBurstDegradesThenRepairs) {
  VolumeSet::Options options = RemoteQuorumOptions(/*quarantine_after=*/2);
  VolumeSet volumes(options);
  ASSERT_TRUE(FillGolden(volumes.device(), 40).ok());

  // The remote host behind shard 0's replica 1 dies between two quorum
  // writes of an update burst. Every subsequent write still succeeds on
  // the local replica; after two consecutive remote misses the replica
  // is benched so serving stops paying its fail-fast RPC errors.
  volumes.CrashReplica(0, 1);
  for (uint64_t g = 0; g < 64; g += 2) {  // shard 0's blocks
    const Bytes image = GoldenBlock(41, g, 512);
    ASSERT_TRUE(volumes.device().WriteBlock(g, image.data()).ok())
        << "block " << g;
  }
  EXPECT_EQ(volumes.replicated(0)->replica_state(1),
            ReplicaState::kQuarantined);

  // No stale quorum reads while degraded.
  Bytes out(512);
  for (uint64_t g = 0; g < 64; ++g) {
    ASSERT_TRUE(volumes.device().ReadBlock(g, out.data()).ok());
    const uint64_t salt = g % 2 == 0 ? 41 : 40;
    ASSERT_EQ(out, GoldenBlock(salt, g, 512)) << "block " << g;
  }
  EXPECT_EQ(volumes.replicated(0)->stats().quorum_stale_reads, 0u);

  // The host comes back with its durable volume intact; revive runs the
  // restart + repair sweep, with a live write racing the sweep.
  ASSERT_TRUE(volumes.ReviveAndRepair(0, 1).ok());
  const Bytes live = GoldenBlock(42, 0, 512);
  ASSERT_TRUE(volumes.device().WriteBlock(0, live.data()).ok());
  for (;;) {
    auto pending = volumes.PumpRepair(8);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    if (!*pending) break;
  }
  EXPECT_EQ(volumes.replicated(0)->replica_state(1), ReplicaState::kHealthy);
  EXPECT_EQ(volumes.replicated(0)->stale_blocks(1), 0u);
  ExpectShardMirrorsIdentical(volumes, 0);
  ASSERT_TRUE(volumes.device().ReadBlock(0, out.data()).ok());
  EXPECT_EQ(out, live);
  EXPECT_EQ(volumes.replicated(0)->stats().quorum_stale_reads, 0u);
}

TEST(RemoteQuorumTest, ServerCrashMidRepairRestartsAndConverges) {
  VolumeSet::Options options = RemoteQuorumOptions(/*quarantine_after=*/2);
  VolumeSet volumes(options);
  ASSERT_TRUE(FillGolden(volumes.device(), 50).ok());

  // Stale the remote, then start repairing it.
  volumes.CrashReplica(0, 1);
  for (uint64_t g = 0; g < 64; g += 2) {
    const Bytes image = GoldenBlock(51, g, 512);
    ASSERT_TRUE(volumes.device().WriteBlock(g, image.data()).ok());
  }
  ASSERT_EQ(volumes.replicated(0)->replica_state(1),
            ReplicaState::kQuarantined);
  ASSERT_TRUE(volumes.ReviveAndRepair(0, 1).ok());

  // The host dies again mid-sweep. The next repair write fails and the
  // replica drops back to quarantined — degraded serving continues.
  auto pending = volumes.PumpRepair(4);
  ASSERT_TRUE(pending.ok());
  ASSERT_TRUE(*pending);
  volumes.CrashReplica(0, 1);
  for (;;) {
    pending = volumes.PumpRepair(4);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    if (!*pending) break;
  }
  EXPECT_EQ(volumes.replicated(0)->replica_state(1),
            ReplicaState::kQuarantined);
  Bytes out(512);
  for (uint64_t g = 0; g < 64; ++g) {
    ASSERT_TRUE(volumes.device().ReadBlock(g, out.data()).ok());
  }
  EXPECT_EQ(volumes.replicated(0)->stats().quorum_stale_reads, 0u);

  // Second restart completes the sweep; the mirror is byte-identical.
  ASSERT_TRUE(volumes.ReviveAndRepair(0, 1).ok());
  for (;;) {
    pending = volumes.PumpRepair(8);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    if (!*pending) break;
  }
  EXPECT_EQ(volumes.replicated(0)->replica_state(1), ReplicaState::kHealthy);
  ExpectShardMirrorsIdentical(volumes, 0);
  EXPECT_EQ(volumes.replicated(0)->stats().quorum_stale_reads, 0u);
}

TEST(RemoteQuorumTest, RpcStreamAndReplicaTracesAreContentIndependent) {
  // Twin volume sets, identical request pattern and fault schedule
  // (partition mid-burst, heal, crash, restart + repair), different
  // block contents. Every replica's block trace and every remote
  // replica's delivered-frame log must match: RPC frame types, sizes,
  // and order are functions of the request pattern and fault schedule,
  // never of the data.
  auto run = [](uint64_t salt, std::vector<remote::FrameRecord>* log0,
                std::vector<remote::FrameRecord>* log1,
                std::vector<IoTrace>* traces_out) {
    VolumeSet::Options options =
        RemoteQuorumOptions(/*quarantine_after=*/1000, /*total_blocks=*/32);
    options.traced = true;
    auto volumes = std::make_unique<VolumeSet>(options);
    volumes->transport_fault(0, 1)->set_frame_log(log0);
    volumes->transport_fault(1, 1)->set_frame_log(log1);

    Bytes out(512);
    for (uint64_t g = 0; g < 32; ++g) {
      const Bytes image = GoldenBlock(salt, g, 512);
      ASSERT_TRUE(volumes->device().WriteBlock(g, image.data()).ok());
    }
    volumes->PartitionReplica(0, 1);
    for (uint64_t g = 0; g < 32; g += 4) {
      const Bytes image = GoldenBlock(salt + 1, g, 512);
      ASSERT_TRUE(volumes->device().WriteBlock(g, image.data()).ok());
      ASSERT_TRUE(volumes->device().ReadBlock(g + 1, out.data()).ok());
    }
    volumes->HealReplica(0, 1);
    for (uint64_t g = 0; g < 32; ++g) {
      ASSERT_TRUE(volumes->device().ReadBlock(g, out.data()).ok());
    }
    volumes->CrashReplica(1, 1);
    for (uint64_t g = 1; g < 32; g += 4) {  // shard 1's blocks
      const Bytes image = GoldenBlock(salt + 2, g, 512);
      ASSERT_TRUE(volumes->device().WriteBlock(g, image.data()).ok());
    }
    ASSERT_TRUE(volumes->ReviveAndRepair(1, 1).ok());
    for (;;) {
      auto pending = volumes->PumpRepair(8);
      ASSERT_TRUE(pending.ok()) << pending.status().ToString();
      if (!*pending) break;
    }
    EXPECT_EQ(volumes->replicated(0)->stats().quorum_stale_reads, 0u);
    EXPECT_EQ(volumes->replicated(1)->stats().quorum_stale_reads, 0u);

    // Snapshot the per-replica block traces before teardown.
    for (size_t k = 0; k < 2; ++k) {
      for (size_t r = 0; r < 2; ++r) {
        traces_out->push_back(volumes->trace(k, r)->trace());
      }
    }
    // The frame logs are appended to by the endpoint threads; destroy
    // the volume set (joining them) before the caller compares.
    volumes.reset();
  };

  std::vector<remote::FrameRecord> a0, a1, b0, b1;
  std::vector<IoTrace> traces_a, traces_b;
  run(60, &a0, &a1, &traces_a);
  run(90, &b0, &b1, &traces_b);
  ASSERT_EQ(traces_a.size(), traces_b.size());
  for (size_t i = 0; i < traces_a.size(); ++i) {
    EXPECT_EQ(traces_a[i], traces_b[i]) << "replica slot " << i;
  }
  ASSERT_FALSE(a0.empty());
  ASSERT_FALSE(a1.empty());
  EXPECT_EQ(a0, b0);
  EXPECT_EQ(a1, b1);
}

}  // namespace
}  // namespace steghide::storage

// ---- Full agent stack over a remote quorum mirror ------------------------

namespace steghide::agent {
namespace {

using storage::FaultPlan;
using storage::ReplicaState;
using storage::VolumeSet;

oblivious::ObliviousStoreOptions RemoteStoreOptions() {
  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = 8;
  opts.capacity_blocks = 128;  // levels 16, 32, 64, 128
  opts.partition_base = 0;
  opts.scratch_base = 2 * 128 - 2 * 8;  // 240
  opts.drbg_seed = 43;
  opts.deamortize_reorders = true;
  opts.shadow_base = 240 + 128;
  opts.reorder_step_blocks = 1;
  return opts;
}

/// The ReplicatedSystem of replication_test.cc with replica 1 of every
/// shard behind the loopback RPC transport, in quorum mode.
struct RemoteReplicatedSystem {
  explicit RemoteReplicatedSystem(uint64_t seed)
      : steg_mem(4096, 4096),
        core(&steg_mem, stegfs::StegFsOptions{seed, true}) {
    VolumeSet::Options options;
    options.shards = 2;
    options.replicas = 2;
    options.total_blocks = 768;
    options.block_size = 4096;
    options.fault_plan = [](size_t, size_t) { return FaultPlan{}; };
    options.replication.write_quorum = 1;
    options.replication.read_quorum = 1;
    options.remote = [](size_t, size_t r) { return r == 1; };
    options.remote_options.rpc_deadline_ms = 5000.0;
    options.remote_options.retry.max_attempts = 2;
    volumes = std::make_unique<VolumeSet>(options);
    EXPECT_TRUE(core.Format().ok());
    auto created = ObliviousAgent::Create(&core, &volumes->device(),
                                          RemoteStoreOptions());
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

TEST(RemoteCrashConsistencyTest, RemoteReplicaDiesMidCascade) {
  RemoteReplicatedSystem sys(7001);
  constexpr size_t kFiles = 6, kBlocks = 4;
  const size_t payload = sys.core.payload_size();
  const auto ids = sys.Populate(/*salt=*/0, kFiles, kBlocks);

  // Update every file's first block, park a flush cascade mid-flight,
  // then kill the remote host behind shard 0's replica 1 under it.
  for (size_t f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(sys.agent
                    ->Write(ids[f], 0,
                            Bytes(payload, static_cast<uint8_t>(0xc0 + f)))
                    .ok());
  }
  sys.BuildReorderBacklog();
  ASSERT_TRUE(sys.agent->store().reorder_pending());
  sys.volumes->CrashReplica(0, 1);

  // Zero failed requests while degraded: quorum writes land on the
  // local replica, quorum reads never serve a stale stamp.
  for (size_t f = 0; f < kFiles; ++f) {
    auto back = sys.agent->Read(ids[f], 0, kBlocks * payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
  }
  ASSERT_TRUE(sys.agent
                  ->Write(ids[0], payload, Bytes(payload, 0xee))
                  .ok());
  sys.DrainReorders();
  EXPECT_NE(sys.volumes->replicated(0)->replica_state(1),
            ReplicaState::kHealthy);
  EXPECT_EQ(sys.volumes->replicated(0)->stats().quorum_stale_reads, 0u);

  // The host restarts with its volume intact; repair re-converges it.
  sys.RepairReplica(0, 1);
  EXPECT_EQ(sys.volumes->replicated(0)->replica_state(1),
            ReplicaState::kHealthy);

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

  // The repaired remote mirror is byte-identical to its local twin.
  auto& mem0 = sys.volumes->mem(0, 0);
  auto& mem1 = sys.volumes->mem(0, 1);
  for (uint64_t local = 0; local < mem0.num_blocks(); ++local) {
    Bytes a(4096), b(4096);
    ASSERT_TRUE(mem0.ReadBlock(local, a.data()).ok());
    ASSERT_TRUE(mem1.ReadBlock(local, b.data()).ok());
    ASSERT_EQ(a, b) << "shard 0 local block " << local;
  }
  EXPECT_EQ(sys.volumes->replicated(0)->stats().quorum_stale_reads, 0u);
}

}  // namespace
}  // namespace steghide::agent
