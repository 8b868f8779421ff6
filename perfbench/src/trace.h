// Host wall-clock span accounting for the benchmark's traced run, and the
// pass-through decorators that record the spans from outside the simulator.
//
// A Tracer keeps a stack of open spans. Closing a span adds its duration to
// its layer's total and its duration minus the time covered by its child
// spans to the layer's self time, so the self times of all layers under one
// root span sum to the root's wall time. The decorators wrap the simulator's
// public interfaces (Workload, BlockDevice, Filesystem): every call is
// forwarded unchanged to the wrapped object inside a span, so a traced run
// simulates exactly what an untraced run does (the self-test and the
// benchmark's outcome digests both check this).

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/fs/filesystem.h"
#include "src/workload/workload.h"

namespace perfbench {

enum class Layer : int {
  kDriver = 0,    // root span: everything the benchmark drives for one unit
  kSetupDevice,   // catalog factory: NAND/FTL/device construction
  kSetupFsFill,   // file-system format + static fill
  kWorkloadNext,  // Workload::Next / Reset
  kDeviceSubmit,  // BlockDevice::Submit / SubmitBatch
  kDeviceHealth,  // BlockDevice::QueryHealth
  kFsWrite,       // Filesystem::Write
  kFsFsync,       // Filesystem::Fsync
  kFsOther,       // every other Filesystem call (create, read, ...)
  kCount,
};

struct LayerTotals {
  uint64_t calls = 0;
  double total_s = 0.0;  // inclusive of child spans
  double self_s = 0.0;   // exclusive of child spans
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void Begin(Layer layer) {
    stack_.push_back(Frame{layer, Clock::now(), 0.0});
  }
  void End() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = std::chrono::duration<double>(Clock::now() - f.start).count();
    LayerTotals& t = totals_[static_cast<int>(f.layer)];
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - f.child_s;
    if (!stack_.empty()) {
      stack_.back().child_s += dur;
    }
  }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  // Requests handed to BlockDevice::Submit/SubmitBatch.
  uint64_t device_requests = 0;

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  std::array<LayerTotals, static_cast<int>(Layer::kCount)> totals_{};
};

// RAII span; a null tracer makes it free, so one code path serves the
// untraced and the traced run.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

class TimedWorkload final : public flashsim::Workload {
 public:
  TimedWorkload(flashsim::Workload& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool Next(uint64_t target_bytes, flashsim::WorkloadOp* op) override {
    Span s(&tracer_, Layer::kWorkloadNext);
    return inner_.Next(target_bytes, op);
  }
  void Reset(uint64_t seed) override {
    Span s(&tracer_, Layer::kWorkloadNext);
    inner_.Reset(seed);
  }
  bool MayRead() const override { return inner_.MayRead(); }
  void TouchRange(uint64_t target_bytes, uint64_t* start,
                  uint64_t* length) const override {
    inner_.TouchRange(target_bytes, start, length);
  }
  const std::string& name() const override { return inner_.name(); }

 private:
  flashsim::Workload& inner_;
  Tracer& tracer_;
};

class TimedBlockDevice final : public flashsim::BlockDevice {
 public:
  TimedBlockDevice(flashsim::BlockDevice& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  flashsim::Result<flashsim::IoCompletion> Submit(
      const flashsim::IoRequest& request) override {
    Span s(&tracer_, Layer::kDeviceSubmit);
    ++tracer_.device_requests;
    return inner_.Submit(request);
  }
  flashsim::BatchCompletion SubmitBatch(const flashsim::IoRequest* requests,
                                        size_t count) override {
    Span s(&tracer_, Layer::kDeviceSubmit);
    tracer_.device_requests += count;
    return inner_.SubmitBatch(requests, count);
  }
  flashsim::HealthReport QueryHealth() const override {
    Span s(&tracer_, Layer::kDeviceHealth);
    return inner_.QueryHealth();
  }
  uint64_t CapacityBytes() const override { return inner_.CapacityBytes(); }
  uint32_t PageSizeBytes() const override { return inner_.PageSizeBytes(); }
  bool IsReadOnly() const override { return inner_.IsReadOnly(); }
  flashsim::SimClock& clock() override { return inner_.clock(); }

 private:
  flashsim::BlockDevice& inner_;
  Tracer& tracer_;
};

class TimedFilesystem final : public flashsim::Filesystem {
 public:
  TimedFilesystem(flashsim::Filesystem& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  flashsim::Status Create(const std::string& path) override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.Create(path);
  }
  flashsim::Result<flashsim::SimDuration> Write(const std::string& path,
                                                uint64_t offset, uint64_t length,
                                                bool sync) override {
    Span s(&tracer_, Layer::kFsWrite);
    return inner_.Write(path, offset, length, sync);
  }
  flashsim::Result<flashsim::SimDuration> Fsync(const std::string& path) override {
    Span s(&tracer_, Layer::kFsFsync);
    return inner_.Fsync(path);
  }
  flashsim::Result<flashsim::SimDuration> Read(const std::string& path,
                                               uint64_t offset,
                                               uint64_t length) override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.Read(path, offset, length);
  }
  flashsim::Status Unlink(const std::string& path) override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.Unlink(path);
  }
  flashsim::Status Truncate(const std::string& path, uint64_t new_size) override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.Truncate(path, new_size);
  }
  flashsim::Status Rename(const std::string& from, const std::string& to) override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.Rename(from, to);
  }
  flashsim::Result<uint64_t> FileSize(const std::string& path) const override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.FileSize(path);
  }
  bool Exists(const std::string& path) const override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.Exists(path);
  }
  std::vector<std::string> List() const override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.List();
  }
  uint64_t FreeBytes() const override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.FreeBytes();
  }
  flashsim::Result<flashsim::RecoveryReport> Mount() override {
    Span s(&tracer_, Layer::kFsOther);
    return inner_.Mount();
  }
  const flashsim::FsStats& stats() const override { return inner_.stats(); }
  const char* fs_type() const override { return inner_.fs_type(); }
  // The device the wrapped file system was mounted on (in the traced run,
  // itself a TimedBlockDevice).
  flashsim::BlockDevice& device() override { return inner_.device(); }

 private:
  flashsim::Filesystem& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
