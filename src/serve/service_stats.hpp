// Serving-layer metrics: latency percentiles, queue-depth tracking and
// throughput over the service's lifetime, broken down by priority class so
// a priority inversion shows up as a regression in the tracked percentiles
// instead of hiding inside the aggregate.
//
// Latencies live in a bounded deterministic reservoir (LatencySample):
// below the cap every recorded value is kept and percentiles are true order
// statistics; past the cap the reservoir keeps the bottom-K entries of a
// seeded value-hash order — a KMV-style sketch whose retained set depends
// only on the recorded multiset of values, never on arrival order or on how
// recording was sharded across collectors. Merging is therefore exact in
// the sketch sense: Merge(R(A), R(B)) retains exactly the same samples as
// R(A ++ B), so distributed collectors lose nothing relative to a single
// one.
//
// The counter side of the collector is lock-free (relaxed atomics +
// CAS-max for the queue peak), so RenderService admission records without
// taking a second lock. Only latency recording (completion path) and
// Snapshot() take the internal mutex.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"
#include "render/quality.hpp"

namespace spnerf {

/// Bounded deterministic latency reservoir. Exact below the cap (every
/// value kept, percentiles are nearest-rank order statistics); past the cap
/// it keeps the `cap` entries with the smallest seeded value-hash keys
/// (bottom-K), so memory is bounded while the retained set stays a
/// deterministic, order-independent, merge-stable function of the recorded
/// values. Count() always reports the number of values recorded, not
/// retained.
class LatencySample {
 public:
  static constexpr std::size_t kDefaultCap = 8192;

  explicit LatencySample(std::size_t cap = kDefaultCap,
                         u64 seed = 0x9e3779b97f4a7c15ull)
      : cap_(cap == 0 ? 1 : cap), seed_(seed) {}

  void Record(double ms);
  /// Folds another reservoir in. Both sides should share cap and seed (the
  /// defaults everywhere); the result keeps this side's. Retains exactly
  /// what a single reservoir fed the concatenated streams would retain.
  void Merge(const LatencySample& other);

  /// Values recorded over the reservoir's lifetime (not retained samples).
  [[nodiscard]] std::size_t Count() const { return total_; }
  /// Samples currently retained: == Count() until the cap is reached.
  [[nodiscard]] std::size_t Retained() const { return entries_.size(); }
  [[nodiscard]] std::size_t Cap() const { return cap_; }
  /// Nearest-rank percentile over the retained samples, `p` in [0, 100] —
  /// exact while Count() <= Cap(). Returns 0 when empty.
  [[nodiscard]] double Percentile(double p) const;
  [[nodiscard]] double MeanMs() const;  // over retained samples
  [[nodiscard]] double MaxMs() const;   // over retained samples

 private:
  struct Entry {
    u64 key = 0;
    double value = 0.0;
  };
  static bool EntryLess(const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.value < b.value;
  }
  [[nodiscard]] u64 KeyFor(double ms) const;

  std::size_t cap_;
  u64 seed_;
  std::size_t total_ = 0;
  // Plain vector below the cap; re-organized into a max-heap (EntryLess)
  // once full so eviction of the largest key is O(log cap).
  std::vector<Entry> entries_;
};

/// Number of scheduling classes (RequestPriority values); class counters
/// below index by static_cast<std::size_t>(priority).
inline constexpr std::size_t kPriorityClassCount = 3;

/// Per-priority-class slice of the collector: how many requests of the
/// class completed / were shed, and the completed requests'
/// submit-to-response latency samples.
struct PriorityClassStats {
  u64 completed = 0;
  u64 rejected = 0;
  u64 expired = 0;
  LatencySample total_latency;
};

/// One view of the collector. Latency samples cover completed requests
/// only; shed requests (rejected/expired) are counted, not timed.
struct ServiceStatsSnapshot {
  u64 submitted = 0;
  u64 completed = 0;
  u64 rejected = 0;  // shed by admission control (queue full)
  u64 expired = 0;   // shed because the deadline passed while queued
  u64 batches = 0;   // engine calls dispatched
  std::size_t queue_depth = 0;  // at snapshot time
  std::size_t queue_peak = 0;   // high-water mark
  LatencySample queue_latency;  // submit -> dispatch
  LatencySample total_latency;  // submit -> response ready
  /// Indexed by static_cast<std::size_t>(RequestPriority).
  std::array<PriorityClassStats, kPriorityClassCount> by_class;
  /// Completed requests per quality rung (render/quality.hpp). Without the
  /// ladder everything lands in rung 0; under it the distribution shows how
  /// much quality pressure the load applied.
  std::array<u64, kQualityRungCount> by_rung{};
  /// First submission to last completion; 0 until both exist.
  double span_ms = 0.0;

  /// Completed requests per second over the measured span.
  [[nodiscard]] double ThroughputRps() const {
    return span_ms > 0.0 ? static_cast<double>(completed) * 1000.0 / span_ms
                         : 0.0;
  }
  /// Requests per dispatched engine call.
  [[nodiscard]] double MeanBatchSize() const {
    return batches ? static_cast<double>(completed) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

/// Thread-safe collector the RenderService reports into. Counter mutators
/// (submitted/rejected/expired/batch/queue-depth) are lock-free — they sit
/// on the admission path; RecordCompleted and Snapshot() take the
/// internal mutex for the latency reservoirs. Snapshot() is consistent for
/// any quiesced service; while mutators race it, individual counters are
/// each correct but may be from moments a few operations apart. The
/// per-class mutators take the request's priority class index
/// (static_cast<std::size_t>(RequestPriority)).
class ServiceStats {
 public:
  /// Clock behind the span timestamps (first submit / last complete).
  /// Defaults to the system clock; the owning service injects its own
  /// before any recording, so virtual-time tests measure virtual spans.
  void SetClock(ClockSource* clock) { clock_ = clock; }

  void RecordSubmitted(std::size_t queue_depth_after);
  void RecordRejected(std::size_t priority_class);
  void RecordExpired(std::size_t priority_class);
  void RecordBatch(std::size_t size);
  /// `rung` is the quality rung the request was served at (0 when the
  /// ladder is off).
  void RecordCompleted(double queue_ms, double total_ms,
                       std::size_t priority_class, std::size_t rung = 0);
  void RecordQueueDepth(std::size_t depth);

  [[nodiscard]] ServiceStatsSnapshot Snapshot() const;

 private:
  void BumpQueuePeak(std::size_t depth);

  std::atomic<u64> submitted_{0};
  std::atomic<u64> completed_{0};
  std::atomic<u64> rejected_{0};
  std::atomic<u64> expired_{0};
  std::atomic<u64> batches_{0};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::size_t> queue_peak_{0};
  struct ClassCounters {
    std::atomic<u64> completed{0};
    std::atomic<u64> rejected{0};
    std::atomic<u64> expired{0};
  };
  std::array<ClassCounters, kPriorityClassCount> class_counters_;
  std::array<std::atomic<u64>, kQualityRungCount> rung_completed_{};
  std::atomic<bool> has_submit_{false};
  std::atomic<bool> has_complete_{false};

  // Guards the latency reservoirs and the span timestamps (completion path
  // and the one-time first-submit stamp only — never the admission path
  // after the first request).
  mutable std::mutex mutex_;
  LatencySample queue_latency_;
  LatencySample total_latency_;
  std::array<LatencySample, kPriorityClassCount> class_latency_;
  ClockSource* clock_ = &SystemClock();
  std::chrono::steady_clock::time_point first_submit_{};
  std::chrono::steady_clock::time_point last_complete_{};
};

}  // namespace spnerf
