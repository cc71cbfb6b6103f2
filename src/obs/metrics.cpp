#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "obs/trace.hpp"

namespace spnerf::obs {

namespace {

/// Index of the highest set bit (value must be non-zero).
int MsbIndex(u64 value) {
  int msb = 0;
  while (value >>= 1) ++msb;
  return msb;
}

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < kHistogramBucketCount; ++i) {
    counts[i] += other.counts[i];
  }
  if (other.count != 0) {
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

u64 HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  u64 rank = static_cast<u64>(std::ceil(clamped / 100.0 *
                                        static_cast<double>(count)));
  if (rank == 0) rank = 1;
  u64 cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBucketCount; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      // Clamp the bucket bound to the observed max so p100 reports a value
      // that was actually recorded-scale, not the bucket ceiling.
      return std::min(Histogram::BucketUpperBound(i), max);
    }
  }
  return max;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::size_t Histogram::BucketIndex(u64 value) {
  constexpr int kSub = kHistogramSubBucketBits;
  constexpr u64 kSubCount = 1ull << kSub;  // sub-buckets per octave
  if (value < kSubCount) return static_cast<std::size_t>(value);  // exact
  const int octave = MsbIndex(value) - kSub;
  const u64 sub = (value >> octave) & (kSubCount - 1);
  return static_cast<std::size_t>((static_cast<u64>(octave) + 1) * kSubCount +
                                  sub);
}

u64 Histogram::BucketUpperBound(std::size_t index) {
  constexpr int kSub = kHistogramSubBucketBits;
  constexpr u64 kSubCount = 1ull << kSub;
  if (index < kSubCount) return static_cast<u64>(index);  // exact buckets
  const u64 octave = index / kSubCount - 1;
  const u64 sub = index % kSubCount;
  // Bucket [index] holds values in [(kSubCount+sub) << octave,
  // ((kSubCount+sub+1) << octave) - 1]; the top bucket's bound wraps to
  // u64 max, which is exactly right.
  return ((kSubCount + sub + 1) << octave) - 1;
}

void Histogram::Record(u64 value) {
  counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  u64 seen_min = min_.load(std::memory_order_relaxed);
  while (value < seen_min &&
         !min_.compare_exchange_weak(seen_min, value,
                                     std::memory_order_relaxed)) {
  }
  u64 seen_max = max_.load(std::memory_order_relaxed);
  while (value > seen_max &&
         !max_.compare_exchange_weak(seen_max, value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kHistogramBucketCount; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snap.count += snap.counts[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::ResetForTest() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot lookups
// ---------------------------------------------------------------------------

u64 MetricsSnapshot::CounterValue(std::string_view name, u64 fallback) const {
  for (const CounterEntry& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramEntry& h : histograms) {
    if (h.name == name) return &h.hist;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

// std::map keeps iteration sorted by name (deterministic snapshots) and
// unique_ptr values keep handle addresses stable across rehash-free growth.
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  // Leaked singleton storage: metric handles are recorded into from worker
  // threads that may outlive static destruction order.
  static Impl* impl = new Impl();
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto it = i.counters.find(name);
  if (it == i.counters.end()) {
    it = i.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto it = i.gauges.find(name);
  if (it == i.gauges.end()) {
    it = i.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto it = i.histograms.find(name);
  if (it == i.histograms.end()) {
    it = i.histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Impl& i = impl();
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(i.mutex);
    snap.counters.reserve(i.counters.size() + 1);
    for (const auto& [name, counter] : i.counters) {
      snap.counters.push_back({name, counter->Value()});
    }
    snap.gauges.reserve(i.gauges.size());
    for (const auto& [name, gauge] : i.gauges) {
      snap.gauges.push_back({name, gauge->Value()});
    }
    snap.histograms.reserve(i.histograms.size());
    for (const auto& [name, histogram] : i.histograms) {
      snap.histograms.push_back({name, histogram->Snapshot()});
    }
  }
  // Surface trace-ring overflow in every snapshot (lossy-but-honest
  // contract, obs/trace.hpp). Inserted in sorted position to keep the
  // exporter output deterministic.
  MetricsSnapshot::CounterEntry dropped{"obs/trace-dropped",
                                        TotalTraceDropped()};
  snap.counters.insert(
      std::upper_bound(snap.counters.begin(), snap.counters.end(), dropped,
                       [](const MetricsSnapshot::CounterEntry& a,
                          const MetricsSnapshot::CounterEntry& b) {
                         return a.name < b.name;
                       }),
      std::move(dropped));
  return snap;
}

void MetricsRegistry::ResetForTest() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  for (auto& [name, counter] : i.counters) counter->ResetForTest();
  for (auto& [name, gauge] : i.gauges) gauge->ResetForTest();
  for (auto& [name, histogram] : i.histograms) histogram->ResetForTest();
}

}  // namespace spnerf::obs
