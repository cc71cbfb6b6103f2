// Metrics half of the observability layer: lock-free counters and gauges
// plus log-bucketed (HDR-style) histograms, collected in a process-global
// registry. Recording is wait-free — relaxed atomic adds, no locks, no
// allocation; the registry mutex is taken only when a site first resolves
// its handle (GetCounter/GetGauge/GetHistogram, done once per site via a
// function-local static) and when snapshotting.
//
// Histograms bucket by value magnitude: each power-of-two octave is split
// into 2^kHistogramSubBucketBits linear sub-buckets (values below the first
// full octave are exact). That gives a bounded relative error of
// 1/2^kHistogramSubBucketBits (1/32, ~3.1%) at any scale, a fixed 1920-slot
// layout for every histogram, and — the property the tests pin — a
// deterministic, order-independent merge: merging per-worker snapshots is
// a bucket-wise integer add, so any merge order yields bit-identical
// totals, matching the repo-wide bit-determinism contract
// (ARCHITECTURE.md).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace spnerf::obs {

/// Monotonic event count. Wait-free record.
class Counter {
 public:
  void Add(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] u64 Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Instantaneous signed level (queue depth, inflight tokens). Wait-free.
class Gauge {
 public:
  void Add(i64 delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(i64 value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] i64 Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> value_{0};
};

/// Sub-bucket resolution: 32 linear sub-buckets per power-of-two octave, so
/// a bucket's upper bound is at most 1/32 above any value it holds.
inline constexpr int kHistogramSubBucketBits = 5;
/// Slots covering every u64 value at that resolution (see BucketIndex): the
/// exact range below 2^kHistogramSubBucketBits, then one row of sub-buckets
/// per octave up to bit 63 — 1920 slots.
inline constexpr std::size_t kHistogramBucketCount =
    std::size_t{64 - kHistogramSubBucketBits + 1} << kHistogramSubBucketBits;

/// Plain (non-atomic) copy of a histogram's state. The merge unit: merging
/// is a bucket-wise add, so it is associative, commutative and
/// order-independent — N per-worker snapshots merged in any order produce
/// bit-identical counts/sum (min/max are order-free too).
struct HistogramSnapshot {
  std::array<u64, kHistogramBucketCount> counts{};
  u64 count = 0;
  u64 sum = 0;
  u64 min = 0;  // meaningful only when count > 0
  u64 max = 0;

  void Merge(const HistogramSnapshot& other);
  /// Deterministic percentile estimate: the upper bound of the bucket
  /// containing the p-th ranked value (p in [0, 100]). 0 when empty.
  [[nodiscard]] u64 Percentile(double p) const;
  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lock-free log-bucketed histogram of u64 samples (typically microseconds
/// or sizes). Record is three relaxed atomic RMWs plus two CAS min/max
/// updates that almost always short-circuit.
class Histogram {
 public:
  /// Bucket layout, exposed for the boundary tests:
  /// values < 2^kHistogramSubBucketBits map to themselves (exact);
  /// larger values map to octave-and-sub-bucket slots.
  [[nodiscard]] static std::size_t BucketIndex(u64 value);
  /// Largest value that lands in `index` (inclusive upper bound).
  [[nodiscard]] static u64 BucketUpperBound(std::size_t index);

  void Record(u64 value);
  [[nodiscard]] HistogramSnapshot Snapshot() const;
  void ResetForTest();

 private:
  std::array<std::atomic<u64>, kHistogramBucketCount> counts_{};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~0ull};
  std::atomic<u64> max_{0};
};

/// One registry snapshot, entries sorted by name so exporter output (and
/// therefore the golden tests) is deterministic.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    u64 value = 0;
  };
  struct GaugeEntry {
    std::string name;
    i64 value = 0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramSnapshot hist;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  [[nodiscard]] u64 CounterValue(std::string_view name, u64 fallback = 0) const;
  [[nodiscard]] const HistogramSnapshot* FindHistogram(
      std::string_view name) const;
};

/// Process-global metric store. Handles returned by Get* are stable for
/// process lifetime — resolve them once per site (function-local static or
/// a member pointer) and record through the handle, never through the map.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Copies every metric. The synthetic counter "obs/trace-dropped" (total
  /// trace-ring overflow drops, see obs/trace.hpp) is appended so drops are
  /// visible in every snapshot and exporter output.
  [[nodiscard]] MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (handles stay valid). Tests and bench
  /// phase sweeps use this to isolate windows; racing recorders are
  /// harmless (their writes land in the fresh window).
  void ResetForTest();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace spnerf::obs
