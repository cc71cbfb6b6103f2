#include "serve/service_stats.hpp"

#include <algorithm>
#include <chrono>

#include "obs/trace.hpp"

namespace spnerf {
namespace {

std::size_t ClampClass(std::size_t priority_class) {
  return std::min(priority_class, kPriorityClassCount - 1);
}

u64 ToMicros(double ms) {
  return ms <= 0.0 ? 0 : static_cast<u64>(ms * 1000.0);
}

/// Lock-free max: raises `target` to `value` unless it already holds more.
template <typename T>
void RaiseTo(std::atomic<T>& target, T value) {
  T seen = target.load(std::memory_order_relaxed);
  while (value > seen && !target.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

/// The registry's "serve/*" series, resolved once (the registry map lookup
/// never sits on a request path). Every ServiceStats forwards to them while
/// obs counters are on, so they total every service in the process.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Counter& expired;
  obs::Counter& batches;
  obs::Counter& coalesced;  // requests that shared another request's batch
  obs::Gauge& queue_depth;
  obs::Histogram& queue_us;
  obs::Histogram& total_us;
  obs::Histogram& batch_size;
  /// Quality-ladder instrumentation: completions per rung, plus the rung
  /// value distribution ("serve/rung") — its p50/p99 say how degraded the
  /// served traffic was at a glance.
  std::array<obs::Counter*, kQualityRungCount> rung_completed;
  obs::Histogram& rung_dist;
};

ServeMetrics& Metrics() {
  auto& reg = obs::MetricsRegistry::Global();
  static ServeMetrics m{reg.GetCounter("serve/submitted"),
                        reg.GetCounter("serve/completed"),
                        reg.GetCounter("serve/rejected"),
                        reg.GetCounter("serve/expired"),
                        reg.GetCounter("serve/batches"),
                        reg.GetCounter("serve/coalesced"),
                        reg.GetGauge("serve/queue-depth"),
                        reg.GetHistogram("serve/queue-us"),
                        reg.GetHistogram("serve/total-us"),
                        reg.GetHistogram("serve/batch-size"),
                        {&reg.GetCounter("serve/rung0"),
                         &reg.GetCounter("serve/rung1"),
                         &reg.GetCounter("serve/rung2"),
                         &reg.GetCounter("serve/rung3")},
                        reg.GetHistogram("serve/rung")};
  return m;
}

}  // namespace

i64 ServiceStats::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_->Now().time_since_epoch())
      .count();
}

void ServiceStats::RecordSubmitted(std::size_t queue_depth_after) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // One-time span start: only submits that find the stamp unset read the
  // clock, and the first to CAS it in wins.
  if (first_submit_ns_.load(std::memory_order_relaxed) == kNoStamp) {
    i64 unset = kNoStamp;
    first_submit_ns_.compare_exchange_strong(unset, NowNs(),
                                             std::memory_order_relaxed);
  }
  queue_depth_.store(queue_depth_after, std::memory_order_relaxed);
  RaiseTo(queue_peak_, queue_depth_after);
  if (obs::CountersEnabled()) Metrics().submitted.Add();
}

void ServiceStats::RecordRejected(std::size_t priority_class) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  class_counters_[ClampClass(priority_class)].rejected.fetch_add(
      1, std::memory_order_relaxed);
  if (obs::CountersEnabled()) Metrics().rejected.Add();
}

void ServiceStats::RecordExpired(std::size_t priority_class) {
  expired_.fetch_add(1, std::memory_order_relaxed);
  class_counters_[ClampClass(priority_class)].expired.fetch_add(
      1, std::memory_order_relaxed);
  if (obs::CountersEnabled()) Metrics().expired.Add();
}

void ServiceStats::RecordBatch(std::size_t size) {
  if (size == 0) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (obs::CountersEnabled()) {
    ServeMetrics& m = Metrics();
    m.batches.Add();
    m.batch_size.Record(size);
    if (size > 1) m.coalesced.Add(size - 1);
  }
}

void ServiceStats::RecordCompleted(double queue_ms, double total_ms,
                                   std::size_t priority_class,
                                   std::size_t rung) {
  const std::size_t cls = ClampClass(priority_class);
  const std::size_t rung_index = std::min(rung, kQualityRungCount - 1);
  const u64 queue_us = ToMicros(queue_ms);
  const u64 total_us = ToMicros(total_ms);
  completed_.fetch_add(1, std::memory_order_relaxed);
  class_counters_[cls].completed.fetch_add(1, std::memory_order_relaxed);
  rung_completed_[rung_index].fetch_add(1, std::memory_order_relaxed);
  queue_us_.Record(queue_us);
  total_us_.Record(total_us);
  class_total_us_[cls].Record(total_us);
  RaiseTo(last_complete_ns_, NowNs());
  if (obs::CountersEnabled()) {
    ServeMetrics& m = Metrics();
    m.completed.Add();
    m.queue_us.Record(queue_us);
    m.total_us.Record(total_us);
    m.rung_completed[rung_index]->Add();
    m.rung_dist.Record(rung_index);
  }
}

void ServiceStats::RecordQueueDepth(std::size_t depth) {
  queue_depth_.store(depth, std::memory_order_relaxed);
  RaiseTo(queue_peak_, depth);
  if (obs::CountersEnabled()) {
    Metrics().queue_depth.Set(static_cast<i64>(depth));
  }
}

ServiceStatsSnapshot ServiceStats::Snapshot() const {
  ServiceStatsSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.completed = completed_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.expired = expired_.load(std::memory_order_relaxed);
  snap.batches = batches_.load(std::memory_order_relaxed);
  snap.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  snap.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  snap.queue_us = queue_us_.Snapshot();
  snap.total_us = total_us_.Snapshot();
  for (std::size_t c = 0; c < kPriorityClassCount; ++c) {
    snap.by_class[c].completed =
        class_counters_[c].completed.load(std::memory_order_relaxed);
    snap.by_class[c].rejected =
        class_counters_[c].rejected.load(std::memory_order_relaxed);
    snap.by_class[c].expired =
        class_counters_[c].expired.load(std::memory_order_relaxed);
    snap.by_class[c].total_us = class_total_us_[c].Snapshot();
  }
  for (std::size_t r = 0; r < kQualityRungCount; ++r) {
    snap.by_rung[r] = rung_completed_[r].load(std::memory_order_relaxed);
  }
  const i64 first = first_submit_ns_.load(std::memory_order_relaxed);
  const i64 last = last_complete_ns_.load(std::memory_order_relaxed);
  if (first != kNoStamp && last != kNoStamp) {
    snap.span_ms = static_cast<double>(last - first) / 1e6;
  }
  return snap;
}

}  // namespace spnerf
