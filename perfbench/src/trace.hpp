// Harness-side tracing for the traced (--trace 1) run. Spans are recorded
// from the benchmark's own code around each call into a layer (acquire,
// submit, response, frame, per-thread SampleBatch); they stay in memory and
// are written out once, when the run ends. Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "render/field_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
inline double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";  // static literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // serving request id; 0 = none
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-name aggregate: how many spans, their summed duration, and their
/// summed self time (duration minus the part covered by child spans).
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool Enabled() const { return enabled_; }

  /// Hands out an id before the span ends, so children recorded first can
  /// name it as their parent. 0 when disabled.
  std::uint64_t NewId();

  /// Records a finished span under an id from NewId() (no-op when
  /// disabled or id == 0).
  void Record(std::uint64_t id, const char* name, std::uint64_t parent,
              std::uint64_t request, Clock::time_point start,
              Clock::time_point end);

  /// Per-name totals with self time, sorted by name.
  [[nodiscard]] std::vector<SpanTotals> Totals() const;

  /// Writes every span (times in ms from the first span's start) plus the
  /// per-name totals as JSON. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& stamp_json) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;     // guarded by mutex_
  std::uint64_t next_id_ = 1;   // guarded by mutex_
};

/// One render worker's SampleBatch activity since the last Collect().
struct FieldThreadTotals {
  double busy_ms = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
  Clock::time_point first;
  Clock::time_point last;
};

/// Process-wide per-thread SampleBatch accounting. Each render worker owns
/// one slot and is its only writer; the harness reads and resets the slots
/// only between blocking renders, after the engine has handed the results
/// back (the batch's completion orders the workers' writes before it).
class FieldTimer {
 public:
  static FieldTimer& Global();

  /// Called by TimedFieldSource on the rendering thread.
  void Add(Clock::time_point start, Clock::time_point end,
           std::size_t front_size);

  /// Per-thread totals since the previous call (threads with no calls are
  /// left out), and resets them. Front sizes accumulate into an exact
  /// histogram that FrontSizePercentile reads until ResetFronts().
  std::vector<FieldThreadTotals> Collect();

  /// Exact percentile of every front size seen since ResetFronts().
  [[nodiscard]] double FrontSizePercentile(double p) const;
  void ResetFronts();

 private:
  struct Slot;
  Slot& Local();

  mutable std::mutex mutex_;
  std::vector<Slot*> slots_;  // guarded by mutex_; slots live until exit
};

/// FieldSource decorator: forwards every call to `inner` and times each
/// SampleBatch (the wavefront's decode + interpolate stage) into
/// FieldTimer::Global(). Pixels and counters are exactly the inner source's.
class TimedFieldSource final : public spnerf::FieldSource {
 public:
  explicit TimedFieldSource(const spnerf::FieldSource& inner)
      : inner_(&inner) {}

  [[nodiscard]] spnerf::FieldSample Sample(spnerf::Vec3f world) const override {
    return inner_->Sample(world);
  }
  [[nodiscard]] spnerf::FieldSample Sample(
      spnerf::Vec3f world, spnerf::DecodeCounters* counters) const override {
    return inner_->Sample(world, counters);
  }
  void SampleBatch(std::span<const spnerf::Vec3f> positions,
                   std::span<spnerf::FieldSample> out,
                   spnerf::DecodeCounters* counters) const override;
  [[nodiscard]] const char* Name() const override { return inner_->Name(); }

 private:
  const spnerf::FieldSource* inner_;
};

}  // namespace perfbench
