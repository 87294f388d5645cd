#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

namespace steghide::perfbench {

namespace {

using agent::ObliviousAgent;
using agent::RequestDispatcher;
using Clock = std::chrono::steady_clock;

constexpr char kUser[] = "perfbench";

// Dummy files are capped at the maximum file size; provision the
// relocation pool in chunks, as a user population would.
constexpr uint64_t kDummyChunk = 8192;

// Latency samples kept per window and kind, and virtual latencies per run.
constexpr size_t kReadSamples = 4000;
constexpr size_t kWriteSamples = 2000;
constexpr size_t kVirtualSamples = 100000;

WorkloadSpec SoloMixed(bool tiny) {
  WorkloadSpec s;
  s.name = "solo-mixed";
  // Fewer than three levels: the store keeps blocking re-orders.
  s.files = tiny ? 2 : 8;
  s.file_blocks = 16;
  s.buffer_blocks = tiny ? 8 : 32;
  s.group = false;
  s.write_share = 0.5;
  s.partial_writes = true;
  s.prewarm = false;
  s.traced_requests_per_second = tiny ? 200 : 2000;
  return s;
}

WorkloadSpec GroupRead(bool tiny) {
  WorkloadSpec s;
  s.name = "group-read";
  // 2048 blocks over B = 32: six levels, double-buffered re-order chains.
  s.files = tiny ? 8 : 64;
  s.file_blocks = tiny ? 16 : 32;
  s.buffer_blocks = tiny ? 8 : 32;
  s.group = true;
  s.write_share = 0.05;
  s.partial_writes = false;
  s.prewarm = true;
  s.traced_requests_per_second = tiny ? 400 : 3200;
  return s;
}

uint64_t CapacityFor(const WorkloadSpec& spec) {
  uint64_t capacity = 2 * spec.buffer_blocks;
  while (capacity < spec.files * spec.file_blocks) capacity *= 2;
  return capacity;
}

}  // namespace

bool FindWorkload(const std::string& name, bool tiny, WorkloadSpec* out) {
  if (name == "solo-mixed") {
    *out = SoloMixed(tiny);
  } else if (name == "group-read") {
    *out = GroupRead(tiny);
  } else if (name == "group-read-mirrored") {
    *out = GroupRead(tiny);
    out->name = name;
    out->mirrored_shards = 2;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"solo-mixed", "group-read", "group-read-mirrored"};
}

size_t PayloadSize() { return stegfs::BlockCodec(4096).payload_size(); }

double WallMs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

ReferenceModel::ReferenceModel(uint64_t blocks, size_t payload, uint64_t seed)
    : blocks_(blocks), payload_(payload), data_(blocks * payload) {
  Rng rng(seed ^ 0x636f6e74656e74ULL);
  rng.Fill(data_.data(), data_.size());
}

// ---- System -----------------------------------------------------------------

std::unique_ptr<System> System::Build(const WorkloadSpec& spec, uint64_t seed,
                                      bool charge_index_io,
                                      const ReferenceModel& model,
                                      obs::TraceLog* trace) {
  std::unique_ptr<System> sys(new System());
  const uint64_t b = spec.buffer_blocks;
  const uint64_t capacity = CapacityFor(spec);
  const uint64_t hierarchy = 2 * capacity - 2 * b;
  const uint64_t hidden = spec.files * spec.file_blocks;
  const storage::DiskModelParams disk{};

  sys->steg_mem_ =
      std::make_unique<storage::MemBlockDevice>(hidden * 2 + 8192, 4096);
  sys->steg_sim_ =
      std::make_unique<storage::SimBlockDevice>(sys->steg_mem_.get(), disk);
  sys->steg_timed_ =
      std::make_unique<TimedBlockDevice>(sys->steg_sim_.get(), "dev.steg");

  // Cache layout: [hierarchy][shadow mirror][scratch]. Under the g % K
  // stripe a one-block shadow shift puts every slot's ping-pong twin on
  // the other shard.
  const size_t shards = spec.mirrored_shards;
  const uint64_t shadow_shift = shards > 1 ? 1 : 0;
  const uint64_t cache_blocks =
      2 * hierarchy + capacity + 2 * shadow_shift + 16;
  storage::BlockDevice* cache_device = nullptr;
  if (shards == 0) {
    sys->cache_mem_ =
        std::make_unique<storage::MemBlockDevice>(cache_blocks, 4096);
    sys->cache_sim_ =
        std::make_unique<storage::SimBlockDevice>(sys->cache_mem_.get(), disk);
    sys->cache_timed_ = std::make_unique<TimedBlockDevice>(
        sys->cache_sim_.get(), "dev.cache");
    cache_device = sys->cache_timed_.get();
  } else {
    // Each shard: mirror 0 local, mirror 1 behind a loopback block-RPC
    // endpoint, joined by the default (write-all / read-one) mirror.
    const uint64_t per_shard = (cache_blocks + shards - 1) / shards;
    std::vector<storage::BlockDevice*> tops;
    for (size_t k = 0; k < shards; ++k) {
      std::vector<storage::BlockDevice*> replicas;
      for (size_t r = 0; r < 2; ++r) {
        sys->replica_mems_.push_back(
            std::make_unique<storage::MemBlockDevice>(per_shard, 4096));
        sys->replica_sims_.push_back(std::make_unique<storage::SimBlockDevice>(
            sys->replica_mems_.back().get(), disk));
        storage::BlockDevice* top = sys->replica_sims_.back().get();
        if (r == 1) {
          sys->endpoints_.push_back(
              std::make_unique<storage::remote::LoopbackEndpoint>(top));
          storage::remote::LoopbackEndpoint* endpoint =
              sys->endpoints_.back().get();
          auto client = storage::remote::RemoteBlockDevice::Create(
              [endpoint] { return endpoint->Connect(); });
          if (!client.ok()) return nullptr;
          sys->remotes_.push_back(std::move(client).value());
          if (trace != nullptr) {
            sys->remotes_.back()->set_trace(
                trace, trace->RegisterTrack("remote/shard" + std::to_string(k)));
          }
          top = sys->remotes_.back().get();
        }
        replicas.push_back(top);
      }
      sys->mirrors_.push_back(
          std::make_unique<storage::ReplicatedBlockDevice>(replicas));
      storage::SimBlockDevice* a = sys->replica_sims_[2 * k].get();
      storage::SimBlockDevice* c = sys->replica_sims_[2 * k + 1].get();
      sys->mirrors_.back()->set_clock_fn(
          [a, c] { return std::max(a->clock_ms(), c->clock_ms()); });
      sys->shard_timed_.push_back(std::make_unique<TimedBlockDevice>(
          sys->mirrors_.back().get(), "dev.cache"));
      if (trace != nullptr) {
        sys->shard_timed_.back()->set_trace(
            trace, trace->RegisterTrack("dev.cache/shard" + std::to_string(k)));
      }
      tops.push_back(sys->shard_timed_.back().get());
    }
    sys->sharded_ = std::make_unique<storage::ShardedBlockDevice>(tops);
    System* self = sys.get();
    sys->sharded_->set_shard_clock_fn([self](size_t k) {
      return std::max(self->replica_sims_[2 * k]->clock_ms(),
                      self->replica_sims_[2 * k + 1]->clock_ms());
    });
    cache_device = sys->sharded_.get();
  }
  if (trace != nullptr) {
    sys->steg_timed_->set_trace(trace, trace->RegisterTrack("dev.steg"));
    if (sys->cache_timed_ != nullptr) {
      sys->cache_timed_->set_trace(trace, trace->RegisterTrack("dev.cache"));
    }
  }

  sys->core_ = std::make_unique<stegfs::StegFsCore>(
      sys->steg_timed_.get(), stegfs::StegFsOptions{seed, true});
  if (!sys->core_->Format().ok()) return nullptr;

  oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = b;
  opts.capacity_blocks = capacity;
  opts.partition_base = 0;
  opts.shadow_base = hierarchy + shadow_shift;
  opts.scratch_base = 2 * hierarchy + 2 * shadow_shift;
  // Shallow stores (< 3 levels) fall back to blocking re-orders.
  opts.deamortize_reorders = true;
  opts.drbg_seed = seed ^ 0x6f626c69ULL;
  opts.charge_index_io = charge_index_io;
  opts.trace = trace;
  auto agent =
      ObliviousAgent::Create(sys->core_.get(), cache_device, opts);
  if (!agent.ok()) return nullptr;
  sys->agent_ = std::move(agent).value();
  System* self = sys.get();
  sys->agent_->store().set_clock_fn([self] { return self->VirtualClockMs(); });

  for (uint64_t left = hidden + 2048; left > 0;) {
    const uint64_t take = std::min(left, kDummyChunk);
    if (!sys->agent_->CreateDummyFile(kUser, take).ok()) return nullptr;
    left -= take;
  }
  // Populate straight onto the StegFS partition: the oblivious cache
  // starts cold, and only the prewarm (or serving) fills it.
  const size_t payload = sys->core_->payload_size();
  for (uint64_t f = 0; f < spec.files; ++f) {
    auto id = sys->agent_->CreateHiddenFile(kUser);
    if (!id.ok()) return nullptr;
    const uint8_t* content = model.block(f * spec.file_blocks);
    if (!sys->agent_->volatile_agent()
             .Write(*id, 0, content, spec.file_blocks * payload)
             .ok()) {
      return nullptr;
    }
    sys->files_.push_back(*id);
  }
  if (spec.prewarm) {
    for (const auto id : sys->files_) {
      if (!sys->agent_->Read(id, 0, spec.file_blocks * payload).ok()) {
        return nullptr;
      }
    }
  }
  return sys;
}

System::~System() = default;

double System::VirtualClockMs() const {
  const double cache =
      sharded_ != nullptr ? sharded_->clock_ms() : cache_sim_->clock_ms();
  return steg_sim_->clock_ms() + cache;
}

CounterSnapshot System::Snapshot() const {
  CounterSnapshot s;
  oblivious::ObliviousStore& store = agent_->store();
  s.store = store.stats();
  s.io = store.io_stats();
  s.reader = agent_->reader().stats();
  s.update = agent_->volatile_agent().update_stats();
  s.crypto = stegfs::GlobalCryptoTraffic();
  s.dev_steg_blocks = steg_timed_->blocks();
  s.vdisk_steg_ms = steg_sim_->clock_ms();
  if (sharded_ != nullptr) {
    for (const auto& timed : shard_timed_) s.dev_cache_blocks += timed->blocks();
    s.vdisk_cache_ms = sharded_->clock_ms();
  } else {
    s.dev_cache_blocks = cache_timed_->blocks();
    s.vdisk_cache_ms = cache_sim_->clock_ms();
  }
  for (const auto& remote : remotes_) {
    const storage::remote::RemoteStats r = remote->stats();
    s.rpc_calls += r.rpcs;
    s.rpc_bytes += r.bytes_sent + r.bytes_received;
  }
  for (const auto& mirror : mirrors_) {
    const storage::ReplicationStats m = mirror->stats();
    s.mirror_reads += m.reads;
    s.mirror_writes += m.writes;
  }
  return s;
}

// ---- Closed loop ------------------------------------------------------------

namespace {

struct Slot {
  uint64_t block = 0;
  bool write = false;
  uint64_t offset = 0;  // within the block
  Bytes data;           // write payload
  std::future<Result<Bytes>> read;
  std::future<Status> ack;
  Clock::time_point submitted;
};

// Waits for a result, polling it for up to `spin` first. A blocked
// client thread has to be woken on another CPU, and on a virtual machine
// that wake-up costs about as much as a lone read itself and varies from
// run to run; polling keeps the load generator's own wake-up out of the
// measured latency of sub-0.1 ms requests.
template <typename Future>
void SpinThenWait(Future& future, std::chrono::microseconds spin) {
  const Clock::time_point until = Clock::now() + spin;
  while (Clock::now() < until) {
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      return;
    }
  }
  future.wait();
}

// Machine-wide steal time so far, in clock ticks: field 8 of the "cpu"
// line of /proc/stat. 0 when the file or the field is missing.
uint64_t ReadStealTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return 0;
  uint64_t value = 0;
  for (int field = 1; field <= 8; ++field) {
    if (!(stat >> value)) return 0;
  }
  return value;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Compares a read against the model; records the first problem.
bool CheckRead(const Result<Bytes>& got, const ReferenceModel& model,
               uint64_t block, const char* path, std::string* first_error) {
  std::string problem;
  if (!got.ok()) {
    problem = got.status().ToString();
  } else if (got->size() != model.payload() ||
             std::memcmp(got->data(), model.block(block), model.payload()) !=
                 0) {
    problem = "content differs from the reference model";
  }
  if (problem.empty()) return true;
  if (first_error->empty()) {
    *first_error = std::string(path) + " read of block " +
                   std::to_string(block) + ": " + problem;
  }
  return false;
}

}  // namespace

ServeResult Serve(System& system, const WorkloadSpec& spec, uint64_t seed,
                  ReferenceModel& model, const ServeOptions& options) {
  ServeResult out;
  ObliviousAgent& agent = system.agent();
  oblivious::ObliviousStore& store = agent.store();
  const size_t payload = model.payload();
  const uint64_t total_blocks = model.blocks();
  const size_t k = spec.group ? spec.buffer_blocks : 1;

  store.ResetStats();
  out.before = system.Snapshot();

  // The dispatcher samples clock_fn at each submission (client thread)
  // and once at the end of each commit (its own thread). The commit-side
  // samples count commits exactly without tracing, and with the
  // submission-side ones give each request's virtual latency unbucketed.
  struct VirtualStamps {
    std::mutex mu;
    uint64_t commits = 0;            // guarded by mu
    std::deque<double> commit_ends;  // guarded by mu; not yet consumed
    double last_submit = 0.0;        // client thread only
  } stamps;
  const std::thread::id client = std::this_thread::get_id();
  agent::DispatcherOptions dopts;
  dopts.max_batch = spec.buffer_blocks;
  // With every session holding a request the group is full at once; the
  // wide window only guards against a partial group if the client thread
  // is descheduled mid-submission.
  dopts.commit_window = std::chrono::seconds(2);
  dopts.clock_fn = [&system, &stamps, client] {
    const double now = system.VirtualClockMs();
    if (std::this_thread::get_id() == client) {
      stamps.last_submit = now;
    } else {
      std::lock_guard<std::mutex> lock(stamps.mu);
      ++stamps.commits;
      stamps.commit_ends.push_back(now);
    }
    return now;
  };
  dopts.trace = options.trace;

  RequestDispatcher dispatcher(&agent, dopts);
  std::vector<std::unique_ptr<RequestDispatcher::Session>> sessions;
  for (size_t i = 0; i < k; ++i) sessions.push_back(dispatcher.OpenSession());

  Rng rng(seed ^ 0x7365727665ULL);
  std::vector<uint64_t> perm(total_blocks);
  std::iota(perm.begin(), perm.end(), uint64_t{0});
  std::vector<Slot> slots(k);
  // Only a lone request is short enough to poll for: a full group takes
  // milliseconds, and polling would take a CPU from the program's own
  // threads (six threads share four CPUs on the mirrored workload).
  const std::chrono::microseconds spin(k == 1 ? 100 : 0);
  // Virtual submission stamps of rounds whose commit end is not yet
  // consumed; round r is served by commit r (checked by fill_ok).
  std::deque<double> pending_submits;
  auto consume_commit_ends = [&] {
    std::deque<double> ends;
    {
      std::lock_guard<std::mutex> lock(stamps.mu);
      ends.swap(stamps.commit_ends);
    }
    for (const double end : ends) {
      for (size_t i = 0; i < k && !pending_submits.empty(); ++i) {
        out.virtual_latency_ms.Add(end - pending_submits.front());
        pending_submits.pop_front();
      }
    }
  };
  out.virtual_latency_ms = Reservoir(kVirtualSamples, seed ^ 0x76ULL);
  const size_t whole_windows = static_cast<size_t>(options.seconds / kWindowS);
  for (size_t w = 0; w <= whole_windows; ++w) {
    out.windows.push_back({0, 0, Reservoir(kReadSamples, seed + 2 * w),
                           Reservoir(kWriteSamples, seed + 2 * w + 1)});
  }
  auto window_of = [&](double at_s) {
    return std::min(whole_windows, static_cast<size_t>(at_s / kWindowS));
  };
  out.levels = static_cast<uint64_t>(store.height());
  out.deamortized = store.deamortized();

  const uint32_t client_track =
      options.trace != nullptr ? options.trace->RegisterTrack("client") : 0;
  if (options.trace != nullptr) options.trace->set_enabled(true);
  const Clock::time_point start = Clock::now();
  const double v_start = system.VirtualClockMs();
  uint64_t steal_mark = ReadStealTicks();
  size_t closed = 0;  // windows [0, closed) have their steal reading
  for (;;) {
    if (options.fixed_requests != 0) {
      if (out.requests >= options.fixed_requests) break;
    } else if (std::chrono::duration<double>(Clock::now() - start).count() >=
               options.seconds) {
      break;
    }
    // One round: k requests on distinct blocks (partial Fisher-Yates over
    // a persistent permutation keeps each round uniform).
    for (size_t i = 0; i < k; ++i) {
      std::swap(perm[i], perm[i + rng.Uniform(total_blocks - i)]);
      Slot& slot = slots[i];
      slot.block = perm[i];
      slot.write = rng.Unit() < spec.write_share;
      if (slot.write) {
        slot.offset = spec.partial_writes ? rng.Uniform(payload) : 0;
        const uint64_t len = spec.partial_writes
                                 ? 1 + rng.Uniform(payload - slot.offset)
                                 : payload;
        slot.data.resize(len);
        rng.Fill(slot.data.data(), len);
      }
    }
    for (size_t i = 0; i < k; ++i) {
      Slot& slot = slots[i];
      const auto file = system.files()[slot.block / spec.file_blocks];
      const uint64_t at = (slot.block % spec.file_blocks) * payload;
      obs::ScopedSpan span(options.trace, "bench.submit", client_track);
      slot.submitted = Clock::now();
      if (slot.write) {
        slot.ack = sessions[i]->AsyncWrite(file, at + slot.offset, slot.data);
      } else {
        slot.read = sessions[i]->AsyncRead(file, at, payload);
      }
      pending_submits.push_back(stamps.last_submit);
    }
    for (size_t i = 0; i < k; ++i) {
      Slot& slot = slots[i];
      if (slot.write) {
        SpinThenWait(slot.ack, spin);
      } else {
        SpinThenWait(slot.read, spin);
      }
      const Clock::time_point done = Clock::now();
      const double done_s = std::chrono::duration<double>(done - start).count();
      ServeWindow& window = out.windows[window_of(done_s)];
      (slot.write ? window.write_ms : window.read_ms)
          .Add(MsBetween(slot.submitted, done));
    }
    const size_t w = window_of(
        std::chrono::duration<double>(Clock::now() - start).count());
    out.windows[w].requests += k;
    // Close the windows this round ran past with a steal reading, shared
    // evenly when one round spanned several.
    if (closed < w) {
      const uint64_t steal = ReadStealTicks();
      const uint64_t span = w - closed;
      const uint64_t each = (steal - steal_mark) / span;
      out.windows[closed].steal_ticks = steal - steal_mark - each * (span - 1);
      for (++closed; closed < w; ++closed) out.windows[closed].steal_ticks = each;
      steal_mark = steal;
    }
    consume_commit_ends();
    obs::ScopedSpan check_span(options.trace, "bench.check", client_track);
    for (size_t i = 0; i < k; ++i) {
      Slot& slot = slots[i];
      ++out.requests;
      if (slot.write) {
        ++out.writes;
        const Status status = slot.ack.get();
        if (status.ok()) {
          std::memcpy(model.mutable_block(slot.block) + slot.offset,
                      slot.data.data(), slot.data.size());
        } else {
          ++out.failed;
          if (out.first_error.empty()) {
            out.first_error = "write of block " + std::to_string(slot.block) +
                              ": " + status.ToString();
          }
        }
      } else {
        ++out.reads;
        if (!CheckRead(slot.read.get(), model, slot.block, "dispatched",
                       &out.first_error)) {
          ++out.failed;
        }
      }
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.windows[closed].steal_ticks = ReadStealTicks() - steal_mark;
  out.virtual_ms = system.VirtualClockMs() - v_start;
  if (options.trace != nullptr) options.trace->set_enabled(false);
  // A commit samples the clock and counts its requests only after setting
  // its promises; let the last one finish its bookkeeping.
  const Clock::time_point settle = Clock::now() + std::chrono::seconds(1);
  while (dispatcher.stats().requests < out.requests && Clock::now() < settle) {
    std::this_thread::yield();
  }
  out.dispatcher = dispatcher.stats();
  consume_commit_ends();
  {
    std::lock_guard<std::mutex> lock(stamps.mu);
    out.commits = stamps.commits;
  }
  out.fill_ok = out.dispatcher.requests == out.requests &&
                out.commits * k == out.requests && pending_submits.empty();
  out.after = system.Snapshot();

  // Final sweep, part 1: every hidden block through the dispatcher, in
  // the workload's own group size.
  for (uint64_t first = 0; first < total_blocks; first += k) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(k, total_blocks - first));
    for (size_t i = 0; i < n; ++i) {
      const uint64_t block = first + i;
      slots[i].block = block;
      slots[i].read = sessions[i]->AsyncRead(
          system.files()[block / spec.file_blocks],
          (block % spec.file_blocks) * payload, payload);
    }
    for (size_t i = 0; i < n; ++i) {
      ++out.sweep_reads;
      if (!CheckRead(slots[i].read.get(), model, slots[i].block, "sweep",
                     &out.first_error)) {
        ++out.sweep_failed;
      }
    }
  }
  sessions.clear();
  dispatcher.Stop();

  // Part 2: the same blocks straight from the StegFS partition — every
  // acknowledged write must have been repeated there (§5.1.2).
  agent::VolatileAgent& partition = agent.volatile_agent();
  for (uint64_t f = 0; f < spec.files; ++f) {
    auto got = partition.Read(system.files()[f], 0, spec.file_blocks * payload);
    for (uint64_t b = 0; b < spec.file_blocks; ++b) {
      const uint64_t block = f * spec.file_blocks + b;
      ++out.sweep_reads;
      Result<Bytes> one = got.ok()
                              ? Result<Bytes>(Bytes(
                                    got->begin() + std::min(got->size(), b * payload),
                                    got->begin() + std::min(got->size(), (b + 1) * payload)))
                              : Result<Bytes>(got.status());
      if (!CheckRead(one, model, block, "partition", &out.first_error)) {
        ++out.sweep_failed;
      }
    }
  }
  return out;
}

}  // namespace steghide::perfbench
