// Serving-layer metrics: latency percentiles, queue-depth tracking and
// throughput over the service's lifetime, broken down by priority class so
// a priority inversion shows up as a regression in the tracked percentiles
// instead of hiding inside the aggregate.
//
// ServiceStats is the serving layer's only recorder: RenderService makes
// one Record* call per event, the collector keeps its own per-service view
// of it, and forwards the same event to the process-global obs registry's
// "serve/*" series while obs counters are on (obs::CountersEnabled()).
//
// Latencies are obs::Histograms in microseconds, the same log-bucketed
// layout the registry series use: a percentile reads the upper bound of
// the p-th ranked value's bucket, at most 1/32 above the exact order
// statistic (obs/metrics.hpp), in fixed memory however long the service
// runs.
//
// Every mutator is lock-free (relaxed atomics, plus CAS for the queue peak
// and the span stamps), so neither admission nor the completion path takes
// a lock to record.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <limits>

#include "common/clock.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "render/quality.hpp"

namespace spnerf {

/// Number of scheduling classes (RequestPriority values); class counters
/// below index by static_cast<std::size_t>(priority).
inline constexpr std::size_t kPriorityClassCount = 3;

/// Per-priority-class slice of the collector: how many requests of the
/// class completed / were shed, and the completed requests'
/// submit-to-response latencies.
struct PriorityClassStats {
  u64 completed = 0;
  u64 rejected = 0;
  u64 expired = 0;
  obs::HistogramSnapshot total_us;  // submit -> response ready, in µs
};

/// One view of the collector. Latency histograms cover completed requests
/// only; shed requests (rejected/expired) are counted, not timed.
struct ServiceStatsSnapshot {
  u64 submitted = 0;
  u64 completed = 0;
  u64 rejected = 0;  // shed by admission control (queue full)
  u64 expired = 0;   // shed because the deadline passed while queued
  u64 batches = 0;   // engine calls dispatched
  std::size_t queue_depth = 0;  // at snapshot time
  std::size_t queue_peak = 0;   // high-water mark
  obs::HistogramSnapshot queue_us;  // submit -> dispatch, in µs
  obs::HistogramSnapshot total_us;  // submit -> response ready, in µs
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
  /// Requests per dispatched engine call. Batches count at dispatch and
  /// requests at completion, so this is exact once the service is drained.
  [[nodiscard]] double MeanBatchSize() const {
    return batches ? static_cast<double>(completed) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

/// The p-th percentile (p in [0, 100]) of a microsecond latency histogram
/// (ServiceStatsSnapshot::queue_us/total_us), in ms. 0 when empty.
[[nodiscard]] inline double PercentileMs(const obs::HistogramSnapshot& us,
                                         double p) {
  return static_cast<double>(us.Percentile(p)) / 1000.0;
}

/// Thread-safe, lock-free collector the RenderService reports into.
/// Snapshot() is consistent for any quiesced service; while mutators race
/// it, individual counters are each correct but may be from moments a few
/// operations apart. The per-class mutators take the request's priority
/// class index (static_cast<std::size_t>(RequestPriority)).
class ServiceStats {
 public:
  /// Clock behind the span timestamps (first submit / last complete).
  /// Defaults to the system clock; the owning service injects its own
  /// before any recording, so virtual-time tests measure virtual spans.
  void SetClock(ClockSource* clock) { clock_ = clock; }

  void RecordSubmitted(std::size_t queue_depth_after);
  void RecordRejected(std::size_t priority_class);
  void RecordExpired(std::size_t priority_class);
  /// One engine batch of `size` coalesced requests was dispatched.
  void RecordBatch(std::size_t size);
  /// `rung` is the quality rung the request was served at (0 when the
  /// ladder is off).
  void RecordCompleted(double queue_ms, double total_ms,
                       std::size_t priority_class, std::size_t rung = 0);
  void RecordQueueDepth(std::size_t depth);

  [[nodiscard]] ServiceStatsSnapshot Snapshot() const;

 private:
  static constexpr i64 kNoStamp = std::numeric_limits<i64>::min();

  [[nodiscard]] i64 NowNs() const;

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

  obs::Histogram queue_us_;
  obs::Histogram total_us_;
  std::array<obs::Histogram, kPriorityClassCount> class_total_us_;

  ClockSource* clock_ = &SystemClock();
  /// Span stamps on the scheduling clock, in ns since its epoch; kNoStamp
  /// until set. The first submit claims first_submit_ns_ once; every
  /// completion raises last_complete_ns_ to its time.
  std::atomic<i64> first_submit_ns_{kNoStamp};
  std::atomic<i64> last_complete_ns_{kNoStamp};
};

}  // namespace spnerf
