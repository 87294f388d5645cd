#ifndef STEGHIDE_PERFBENCH_TIMED_DEVICE_H_
#define STEGHIDE_PERFBENCH_TIMED_DEVICE_H_

#include <span>

#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "storage/block_device.h"

namespace steghide::perfbench {

/// Forwarding decorator the benchmark puts between the program and each
/// device it hands over: it counts the blocks that pass and, when a
/// trace log is attached and enabled, records one span per device call
/// (the leaves of the per-layer self-time tree). Vectored calls are
/// forwarded as vectored calls, so the layers below see exactly what
/// they would see without it.
class TimedBlockDevice : public storage::BlockDevice {
 public:
  /// `inner` is borrowed. `span_name` must be a string literal.
  TimedBlockDevice(storage::BlockDevice* inner, const char* span_name)
      : inner_(inner), span_name_(span_name) {}

  void set_trace(obs::TraceLog* log, uint32_t track) {
    trace_ = log;
    track_ = track;
  }

  using storage::BlockDevice::ReadBlock;
  using storage::BlockDevice::ReadBlocks;
  using storage::BlockDevice::WriteBlock;

  Status ReadBlock(uint64_t block_id, uint8_t* out) override {
    obs::ScopedSpan span(trace_, span_name_, track_, {{"blocks", 1}});
    blocks_.Increment();
    return inner_->ReadBlock(block_id, out);
  }
  Status WriteBlock(uint64_t block_id, const uint8_t* data) override {
    obs::ScopedSpan span(trace_, span_name_, track_,
                         {{"blocks", 1}, {"write", 1}});
    blocks_.Increment();
    return inner_->WriteBlock(block_id, data);
  }
  Status ReadBlocks(std::span<const uint64_t> ids, uint8_t* out) override {
    obs::ScopedSpan span(trace_, span_name_, track_,
                         {{"blocks", static_cast<int64_t>(ids.size())}});
    blocks_.Add(ids.size());
    return inner_->ReadBlocks(ids, out);
  }
  Status WriteBlocks(std::span<const uint64_t> ids,
                     const uint8_t* data) override {
    obs::ScopedSpan span(
        trace_, span_name_, track_,
        {{"blocks", static_cast<int64_t>(ids.size())}, {"write", 1}});
    blocks_.Add(ids.size());
    return inner_->WriteBlocks(ids, data);
  }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }
  size_t block_size() const override { return inner_->block_size(); }
  Status Flush() override { return inner_->Flush(); }

  /// Blocks read or written through this device so far.
  uint64_t blocks() const { return blocks_.value(); }

 private:
  storage::BlockDevice* inner_;
  const char* span_name_;
  obs::TraceLog* trace_ = nullptr;
  uint32_t track_ = 0;
  obs::CounterCell blocks_;
};

}  // namespace steghide::perfbench

#endif  // STEGHIDE_PERFBENCH_TIMED_DEVICE_H_
