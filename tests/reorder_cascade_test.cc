// Multi-level Dump cascade coverage: forces a level-1 → level-2 →
// level-3 cascade (three re-orders triggered by one flush), pins the
// blocking/deamortized trace equivalence across it, and checks that
// every live record stays readable at every point of the cascade — in
// blocking mode, mid-chain, and after the chain drains.
//
// Geometry: B = 4, N = 64 → levels of 8, 16, 32, 64 blocks. With pure
// distinct-id inserts the flush arithmetic is deterministic: flush 7
// (the 28th insert) finds L1 = 8 and L2 = 16 full, so dump(1) spills
// L2 into L3, dump(0) refills L2 from L1, and the flush rebuilds L1 —
// three re-orders from one serving op.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "oblivious/oblivious_store.h"
#include "storage/mem_block_device.h"
#include "storage/trace_device.h"
#include "testing/rng.h"
#include "util/random.h"

namespace steghide::oblivious {
namespace {

constexpr uint64_t kBuffer = 4;
constexpr uint64_t kCapacity = 64;
constexpr uint64_t kHierarchy = 2 * kCapacity - 2 * kBuffer;  // 120

ObliviousStoreOptions CascadeOptions(bool deamortize, bool strict,
                                     uint64_t seed) {
  ObliviousStoreOptions opts;
  opts.buffer_blocks = kBuffer;
  opts.capacity_blocks = kCapacity;
  opts.partition_base = 0;
  opts.scratch_base = kHierarchy;
  opts.deamortize_reorders = deamortize;
  opts.shadow_base = kHierarchy + kCapacity;
  opts.strict_reorder_schedule = strict;
  opts.reorder_step_blocks = 1;  // pace at the floor; tests step by hand
  opts.drbg_seed = seed;
  return opts;
}

uint64_t DeviceBlocks(bool deamortize) {
  return kHierarchy + kCapacity + (deamortize ? kHierarchy : 0) + 4;
}

Bytes PayloadFor(const ObliviousStore& store, uint64_t id) {
  Bytes p(store.payload_size());
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<uint8_t>(id * 7 + i);
  }
  return p;
}

void VerifyAll(ObliviousStore& store, uint64_t count, const char* when) {
  Bytes out(store.payload_size());
  for (uint64_t id = 0; id < count; ++id) {
    ASSERT_TRUE(store.Read(id, out.data()).ok()) << when << " id " << id;
    ASSERT_EQ(out, PayloadFor(store, id)) << when << " id " << id;
  }
}

void DrainStore(ObliviousStore& store) {
  bool more = true;
  int iters = 0;
  while (more) {
    ASSERT_TRUE(store.StepReorder(1u << 20, &more).ok());
    ASSERT_LT(++iters, 10000) << "re-order chain failed to drain";
  }
}

TEST(ReorderCascadeTest, BlockingCascadeRunsThreeReordersInOneOp) {
  ObliviousStoreOptions opts = CascadeOptions(false, false, 101);
  storage::MemBlockDevice dev(DeviceBlocks(false), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());

  uint64_t max_delta = 0;
  uint64_t cascade_at = 0;
  for (uint64_t id = 0; id < 48; ++id) {
    const uint64_t before = (*store)->stats().reorders;
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
    const uint64_t delta = (*store)->stats().reorders - before;
    if (delta > max_delta) {
      max_delta = delta;
      cascade_at = id;
    }
  }
  // Flush 7 (insert #27, 0-based) must have cascaded L2 → L3, L1 → L2,
  // buffer → L1: three re-orders inside one serving op.
  EXPECT_GE(max_delta, 3u) << "no multi-level cascade observed";
  EXPECT_EQ(cascade_at, 27u);
  const auto occ = (*store)->LevelOccupancy();
  ASSERT_GE(occ.size(), 3u);
  EXPECT_GT(occ[2], 0u) << "level 3 never populated";
  VerifyAll(**store, 48, "post-cascade");
}

TEST(ReorderCascadeTest, DeamortizedCascadeInstallsJobChainInOrder) {
  ObliviousStoreOptions opts = CascadeOptions(true, false, 101);
  storage::MemBlockDevice dev(DeviceBlocks(true), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());

  // Reach the pre-cascade state with every chain drained, so the flush
  // arithmetic matches the blocking schedule exactly.
  for (uint64_t id = 0; id < 27; ++id) {
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
    DrainStore(**store);
  }
  // Insert #27 triggers the three-job chain: L2 → L3, L1 → L2, flush → L1.
  const uint64_t epoch_before = (*store)->reorder_epoch();
  const uint64_t reorders_before = (*store)->stats().reorders;
  ASSERT_TRUE((*store)->Insert(27, PayloadFor(**store, 27).data()).ok());

  // Step in small increments with no serving in between (reads would
  // stage records and spawn further chains): installs must land level by
  // level — epochs increase monotonically across many small steps, never
  // all at once — until the whole cascade has flipped.
  uint64_t last_epoch = (*store)->reorder_epoch();
  uint64_t install_points = last_epoch - epoch_before;
  bool more = true;
  int iters = 0;
  while (more) {
    ASSERT_TRUE((*store)->StepReorder(5, &more).ok());
    const uint64_t now = (*store)->reorder_epoch();
    if (now != last_epoch) {
      ++install_points;
      last_epoch = now;
    }
    ASSERT_LT(++iters, 10000);
  }
  EXPECT_GE((*store)->reorder_epoch() - epoch_before, 3u)
      << "cascade chain should install three levels";
  EXPECT_EQ((*store)->stats().reorders - reorders_before, 3u);
  EXPECT_GE(install_points, 2u) << "installs should spread across steps";
  const auto occ = (*store)->LevelOccupancy();
  EXPECT_GT(occ[2], 0u);
  VerifyAll(**store, 28, "post-chain");
}

TEST(ReorderCascadeTest, CascadeTraceEquivalentToBlockingSchedule) {
  // Pure-insert schedule across the full cascade depth, blocking vs
  // strict deamortized: per-level touch counts (reads and writes against
  // either region of each level, plus scratch) must match exactly.
  const auto run = [](bool deamortize, storage::TraceBlockDevice& trace,
                      ObliviousStore& store) {
    for (uint64_t id = 0; id < kCapacity; ++id) {
      ASSERT_TRUE(store.Insert(id, PayloadFor(store, id).data()).ok());
    }
    Bytes out(store.payload_size());
    Rng rng(4141);
    for (int op = 0; op < 100; ++op) {
      ASSERT_TRUE(store.Read(rng.Uniform(kCapacity), out.data()).ok());
    }
  };
  const auto bucketize = [](const storage::IoTrace& trace, int levels)
      -> std::vector<std::pair<uint64_t, uint64_t>> {
    std::vector<std::pair<uint64_t, uint64_t>> counts(levels + 1);
    for (const storage::TraceEvent& ev : trace) {
      uint64_t offset;
      if (ev.block_id < kHierarchy) {
        offset = ev.block_id;
      } else if (ev.block_id >= kHierarchy + kCapacity &&
                 ev.block_id < 2 * kHierarchy + kCapacity) {
        offset = ev.block_id - (kHierarchy + kCapacity);  // shadow mirror
      } else {
        offset = ~uint64_t{0};  // scratch
      }
      size_t bucket = levels;
      if (offset != ~uint64_t{0}) {
        bucket = 0;
        for (uint64_t cap = 2 * kBuffer; offset >= cap; cap *= 2) {
          offset -= cap;
          ++bucket;
        }
      }
      if (ev.kind == storage::TraceEvent::Kind::kRead) {
        ++counts[bucket].first;
      } else {
        ++counts[bucket].second;
      }
    }
    return counts;
  };

  storage::MemBlockDevice blocking_mem(DeviceBlocks(true), 4096);
  storage::TraceBlockDevice blocking_trace(&blocking_mem);
  auto blocking =
      ObliviousStore::Create(&blocking_trace, CascadeOptions(false, false, 77));
  ASSERT_TRUE(blocking.ok());
  run(false, blocking_trace, **blocking);

  storage::MemBlockDevice strict_mem(DeviceBlocks(true), 4096);
  storage::TraceBlockDevice strict_trace(&strict_mem);
  auto strict =
      ObliviousStore::Create(&strict_trace, CascadeOptions(true, true, 77));
  ASSERT_TRUE(strict.ok());
  run(true, strict_trace, **strict);
  DrainStore(**strict);  // blocking did its last chain inline

  const int levels = (*blocking)->height();
  const auto blocking_counts = bucketize(blocking_trace.trace(), levels);
  const auto strict_counts = bucketize(strict_trace.trace(), levels);
  for (int r = 0; r <= levels; ++r) {
    EXPECT_EQ(blocking_counts[r].first, strict_counts[r].first)
        << (r == levels ? "scratch" : "level") << " " << r + 1 << " reads";
    EXPECT_EQ(blocking_counts[r].second, strict_counts[r].second)
        << (r == levels ? "scratch" : "level") << " " << r + 1 << " writes";
  }
  const auto bs = (*blocking)->stats();
  const auto ss = (*strict)->stats();
  EXPECT_EQ(bs.buffer_flushes, ss.buffer_flushes);
  EXPECT_EQ(bs.reorders, ss.reorders);
  EXPECT_EQ(bs.level_probe_reads, ss.level_probe_reads);
  EXPECT_EQ(bs.reorder_reads, ss.reorder_reads);
  EXPECT_EQ(bs.reorder_writes, ss.reorder_writes);
}

TEST(ReorderCascadeTest, EveryLiveRecordReadableThroughoutCascades) {
  // Non-strict deamortized store under the full fill plus churn, with
  // erratic stepping: every inserted record must be readable after every
  // single op, whatever the chain state.
  ObliviousStoreOptions opts = CascadeOptions(true, false, 55);
  storage::MemBlockDevice dev(DeviceBlocks(true), 4096);
  auto store = ObliviousStore::Create(&dev, opts);
  ASSERT_TRUE(store.ok());

  Rng rng = testing::MakeTestRng();
  Bytes out((*store)->payload_size());
  for (uint64_t id = 0; id < kCapacity; ++id) {
    ASSERT_TRUE((*store)->Insert(id, PayloadFor(**store, id).data()).ok());
    if (rng.Bernoulli(0.4)) {
      ASSERT_TRUE((*store)->StepReorder(1 + rng.Uniform(16)).ok());
    }
    // Spot-check a random prefix sample after every op...
    for (int probe = 0; probe < 3; ++probe) {
      const uint64_t check = rng.Uniform(id + 1);
      ASSERT_TRUE((*store)->Read(check, out.data()).ok())
          << "after insert " << id << " reading " << check;
      ASSERT_EQ(out, PayloadFor(**store, check));
    }
  }
  // ...and everything, everywhere, once the dust settles.
  DrainStore(**store);
  VerifyAll(**store, kCapacity, "final");
  EXPECT_GT((*store)->stats().reorder_steps, 0u);
}

// ---- Blocking-schedule golden ---------------------------------------------
//
// The reference for the blocking (drain-at-trigger, in-place) re-order
// configuration: a seeded mixed Insert/Read/Write/Remove schedule over a
// traced store, hashed down to what an observer of the storage learns —
// the per-op read and write counts against every level region and the
// scratch partition — plus the store's own re-order and index counters.
// These counts do not depend on DRBG draws (which slot a decoy hits, which
// permutation a shuffle picks), only on the schedule, so an engine change
// that keeps the blocking touch pattern keeps the hash. Re-pin a constant
// only for a deliberate change of the schedule, and say so in CHANGES.md.

struct GoldenShape {
  uint64_t buffer;
  uint64_t capacity;
  int levels;
  int ops;
  bool spills;  // re-orders big enough to spill sort runs to scratch
  uint64_t hash;
};

class BlockingGoldenTest : public ::testing::TestWithParam<GoldenShape> {};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST_P(BlockingGoldenTest, PerOpRegionTouchesMatchGolden) {
  const GoldenShape shape = GetParam();
  const uint64_t hierarchy = 2 * shape.capacity - 2 * shape.buffer;
  ObliviousStoreOptions opts;
  opts.buffer_blocks = shape.buffer;
  opts.capacity_blocks = shape.capacity;
  opts.partition_base = 0;
  opts.scratch_base = hierarchy;
  opts.drbg_seed = 9000 + shape.levels;
  // The spilled-index variant Fig12/Table4 run: index probes and index
  // rebuild writes join the pinned pattern.
  opts.charge_index_io = true;
  storage::MemBlockDevice mem(hierarchy + shape.capacity, 4096);
  storage::TraceBlockDevice trace(&mem);
  auto created = ObliviousStore::Create(&trace, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ObliviousStore& store = **created;
  ASSERT_EQ(store.height(), shape.levels);
  ASSERT_FALSE(store.deamortized());

  // Region of a block: level index, or `levels` for scratch.
  const auto region_of = [&](uint64_t block) -> size_t {
    if (block >= hierarchy) return static_cast<size_t>(shape.levels);
    size_t level = 0;
    for (uint64_t cap = 2 * shape.buffer; block >= cap; cap *= 2) {
      block -= cap;
      ++level;
    }
    return level;
  };

  // Ids range over 7/8 of the capacity, so removals and re-inserts keep
  // every level (the last one included) in play without hitting NoSpace.
  const uint64_t id_space = shape.capacity - shape.capacity / 8;
  std::vector<uint8_t> present(id_space, 0);
  Bytes payload(store.payload_size());
  Bytes out(store.payload_size());
  Rng rng(0x601de000 + shape.levels);
  uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<uint64_t> reads(shape.levels + 1), writes(shape.levels + 1);
  uint64_t scratch_writes = 0;
  for (int op = 0; op < shape.ops; ++op) {
    const uint64_t id = rng.Uniform(id_space);
    const uint64_t action = rng.Uniform(10);
    std::fill(payload.begin(), payload.end(), static_cast<uint8_t>(op));
    trace.ClearTrace();
    if (!present[id] || action == 9) {
      ASSERT_TRUE(store.Insert(id, payload.data()).ok()) << "op " << op;
      present[id] = 1;
    } else if (action < 5) {
      ASSERT_TRUE(store.Read(id, out.data()).ok()) << "op " << op;
    } else if (action < 8) {
      ASSERT_TRUE(store.Write(id, payload.data()).ok()) << "op " << op;
    } else {
      ASSERT_TRUE(store.Remove(id).ok()) << "op " << op;
      present[id] = 0;
    }
    std::fill(reads.begin(), reads.end(), 0);
    std::fill(writes.begin(), writes.end(), 0);
    for (const storage::TraceEvent& ev : trace.trace()) {
      const size_t r = region_of(ev.block_id);
      if (ev.kind == storage::TraceEvent::Kind::kRead) {
        ++reads[r];
      } else {
        ++writes[r];
      }
    }
    scratch_writes += writes[shape.levels];
    for (int r = 0; r <= shape.levels; ++r) {
      hash = Fnv1a(hash, reads[r]);
      hash = Fnv1a(hash, writes[r]);
    }
  }
  const ObliviousStats stats = store.stats();
  // Every shape must actually cascade into its last level.
  EXPECT_GT(store.LevelOccupancy().back(), 0u);
  EXPECT_GT(stats.index_io, 0u);
  EXPECT_EQ(scratch_writes > 0, shape.spills);
  hash = Fnv1a(hash, stats.reorder_reads);
  hash = Fnv1a(hash, stats.reorder_writes);
  hash = Fnv1a(hash, stats.index_io);
  EXPECT_EQ(hash, shape.hash)
      << std::hex << "golden 0x" << hash << " (reorder_reads " << std::dec
      << stats.reorder_reads << ", reorder_writes " << stats.reorder_writes
      << ", index_io " << stats.index_io << ")";
}

// 2 levels (the shallow shape every < 3-level store runs), 4 levels, and
// 6 levels whose bottom two re-orders outgrow the 256-block sort run and
// go through scratch spills and the multi-way merge.
INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockingGoldenTest,
    ::testing::Values(GoldenShape{4, 16, 2, 20000, false, 0x82839a907bf19658},
                      GoldenShape{4, 64, 4, 20000, false, 0xc2a636413b73295c},
                      GoldenShape{8, 512, 6, 20000, true, 0x21974b8db7a6c6a3}),
    [](const ::testing::TestParamInfo<GoldenShape>& info) {
      return "Levels" + std::to_string(info.param.levels);
    });

}  // namespace
}  // namespace steghide::oblivious
