// ServiceStats, the serving layer's one recorder: latency percentiles from
// its obs histograms stay within the bucket bound of the exact order
// statistic, concurrent completions are counted exactly, and each service
// keeps its own view while the registry's "serve/*" series total them all.
#include "serve/service_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace spnerf {
namespace {

/// Restores the process trace level on scope exit.
class ScopedTraceLevel {
 public:
  explicit ScopedTraceLevel(obs::TraceLevel level)
      : previous_(obs::SetActiveTraceLevel(level)) {}
  ~ScopedTraceLevel() { obs::SetActiveTraceLevel(previous_); }

 private:
  obs::TraceLevel previous_;
};

/// The value ServiceStats records for a latency of `ms`: whole microseconds.
u64 RecordedMicros(double ms) { return static_cast<u64>(ms * 1000.0); }

/// Nearest-rank percentile over the recorded values — the exact order
/// statistic the histogram estimates.
u64 ExactPercentile(std::vector<u64> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

bool SameCounts(const obs::HistogramSnapshot& a,
                const obs::HistogramSnapshot& b) {
  return std::memcmp(a.counts.data(), b.counts.data(),
                     sizeof(u64) * a.counts.size()) == 0 &&
         a.count == b.count && a.sum == b.sum && a.min == b.min &&
         a.max == b.max;
}

TEST(ServiceStats, PercentilesStayWithinOneSubBucketOfExact) {
  // Log-uniform latencies from 0.01 ms to 10 s: every octave the serving
  // layer can see, from the exact buckets up to ~2^23 µs.
  ServiceStats stats;
  Rng rng(2016);
  std::vector<u64> recorded;
  for (int i = 0; i < 20000; ++i) {
    const double ms = 0.01 * std::pow(10.0, 6.0 * rng.NextDouble());
    stats.RecordCompleted(ms / 2.0, ms, /*priority_class=*/1);
    recorded.push_back(RecordedMicros(ms));
  }
  const ServiceStatsSnapshot snap = stats.Snapshot();
  ASSERT_EQ(snap.total_us.count, recorded.size());
  for (const double p : {50.0, 95.0, 99.0}) {
    const u64 exact = ExactPercentile(recorded, p);
    const u64 got = snap.total_us.Percentile(p);
    EXPECT_GE(got, exact) << "p" << p;
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(exact) *
                  (1.0 + std::ldexp(1.0, -obs::kHistogramSubBucketBits)))
        << "p" << p;
    EXPECT_EQ(PercentileMs(snap.total_us, p), static_cast<double>(got) / 1e3);
    // One class saw every completion: its histogram is the aggregate's.
    EXPECT_EQ(snap.by_class[1].total_us.Percentile(p), got) << "p" << p;
  }
  EXPECT_EQ(snap.queue_us.count, recorded.size());
  EXPECT_EQ(snap.by_class[0].total_us.count, 0u);
  EXPECT_EQ(PercentileMs(snap.by_class[0].total_us, 99.0), 0.0);
}

TEST(ServiceStats, ConcurrentCompletionsAreCountedExactly) {
  // The completion path records without a lock: four threads racing it
  // must lose nothing, down to the last histogram bucket.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  // Latencies are multiples of 0.25 ms, so their µs values are exact.
  const auto latency_ms = [](int t, int i) {
    return 0.25 * static_cast<double>(1 + (t * kPerThread + i) % 4000);
  };
  const auto class_of = [](int t, int i) {
    return static_cast<std::size_t>(t + i) % kPriorityClassCount;
  };
  const auto rung_of = [](int i) {
    return static_cast<std::size_t>(i) % kQualityRungCount;
  };

  ServiceStats stats;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.RecordCompleted(latency_ms(t, i) / 2.0, latency_ms(t, i),
                              class_of(t, i), rung_of(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  obs::Histogram queue_ref;
  obs::Histogram total_ref;
  std::array<obs::Histogram, kPriorityClassCount> class_ref;
  std::array<u64, kPriorityClassCount> class_count{};
  std::array<u64, kQualityRungCount> rung_count{};
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const u64 total = RecordedMicros(latency_ms(t, i));
      queue_ref.Record(RecordedMicros(latency_ms(t, i) / 2.0));
      total_ref.Record(total);
      class_ref[class_of(t, i)].Record(total);
      ++class_count[class_of(t, i)];
      ++rung_count[rung_of(i)];
    }
  }

  const ServiceStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.completed, static_cast<u64>(kThreads * kPerThread));
  EXPECT_TRUE(SameCounts(snap.queue_us, queue_ref.Snapshot()));
  EXPECT_TRUE(SameCounts(snap.total_us, total_ref.Snapshot()));
  for (std::size_t c = 0; c < kPriorityClassCount; ++c) {
    EXPECT_EQ(snap.by_class[c].completed, class_count[c]) << "class " << c;
    EXPECT_TRUE(SameCounts(snap.by_class[c].total_us, class_ref[c].Snapshot()))
        << "class " << c;
  }
  for (std::size_t r = 0; r < kQualityRungCount; ++r) {
    EXPECT_EQ(snap.by_rung[r], rung_count[r]) << "rung " << r;
  }
}

TEST(ServiceStats, ServicesKeepOwnViewsAndRegistryTotalsThemAll) {
  const auto registry_totals = [] {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::Global().Snapshot();
    const obs::HistogramSnapshot* total_us =
        snap.FindHistogram("serve/total-us");
    return std::pair<u64, u64>{snap.CounterValue("serve/completed"),
                               total_us == nullptr ? 0 : total_us->count};
  };
  constexpr int kA = 300;
  constexpr int kB = 500;
  ServiceStats a;
  ServiceStats b;
  {
    const ScopedTraceLevel counters(obs::TraceLevel::kCounters);
    const auto before = registry_totals();
    // Disjoint streams: A is interactive at 1-3 ms, B batch at 100-500 ms.
    for (int i = 0; i < kA; ++i) {
      a.RecordCompleted(0.5, 1.0 + (i % 3), /*priority_class=*/2);
    }
    for (int i = 0; i < kB; ++i) {
      b.RecordCompleted(50.0, 100.0 * (1 + i % 5), /*priority_class=*/0);
    }
    const auto after = registry_totals();
    EXPECT_EQ(after.first - before.first, static_cast<u64>(kA + kB));
    EXPECT_EQ(after.second - before.second, static_cast<u64>(kA + kB));
  }
  {
    // Below the counters level the registry is untouched; the services
    // still record.
    const ScopedTraceLevel off(obs::TraceLevel::kOff);
    const auto before = registry_totals();
    a.RecordCompleted(0.5, 2.0, /*priority_class=*/2);
    EXPECT_EQ(registry_totals(), before);
  }

  const ServiceStatsSnapshot sa = a.Snapshot();
  const ServiceStatsSnapshot sb = b.Snapshot();
  EXPECT_EQ(sa.completed, static_cast<u64>(kA + 1));
  EXPECT_EQ(sb.completed, static_cast<u64>(kB));
  EXPECT_EQ(sa.total_us.count, static_cast<u64>(kA + 1));
  EXPECT_EQ(sb.total_us.count, static_cast<u64>(kB));
  EXPECT_EQ(sa.by_class[2].completed, static_cast<u64>(kA + 1));
  EXPECT_EQ(sa.by_class[0].completed, 0u);
  EXPECT_EQ(sb.by_class[0].completed, static_cast<u64>(kB));
  EXPECT_EQ(sb.by_class[2].completed, 0u);
  EXPECT_EQ(sa.total_us.min, 1000u);
  EXPECT_EQ(sa.total_us.max, 3000u);
  EXPECT_EQ(sb.total_us.min, 100000u);
  EXPECT_EQ(sb.total_us.max, 500000u);
}

TEST(ServiceStats, SpanRunsFromFirstSubmitToLastCompletion) {
  ManualClock clock;
  ServiceStats stats;
  stats.SetClock(&clock);
  EXPECT_EQ(stats.Snapshot().span_ms, 0.0);
  stats.RecordSubmitted(1);
  clock.Advance(std::chrono::milliseconds(2));
  stats.RecordSubmitted(2);  // a later submit does not move the start
  EXPECT_EQ(stats.Snapshot().span_ms, 0.0);  // no completion yet
  clock.Advance(std::chrono::milliseconds(3));
  stats.RecordCompleted(1.0, 5.0, 1);
  const ServiceStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.span_ms, 5.0);
  EXPECT_EQ(snap.ThroughputRps(), 200.0);
  EXPECT_EQ(snap.queue_peak, 2u);
}

}  // namespace
}  // namespace spnerf
