// Contract tests for the observability layer (src/obs/): histogram bucket
// geometry and order-independent merge, exporter goldens (Chrome trace_event
// JSON and Prometheus text exposition are byte-deterministic for a given
// snapshot), the lossy-but-honest trace-ring overflow accounting, the
// SPNF_TRACE level plumbing, string interning, per-flow span assembly, and
// the virtualizable ManualClock the serving deadline tests run on.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spnerf {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::TraceLevel;

/// Restores the process trace level on scope exit — tests flip it freely.
class ScopedTraceLevel {
 public:
  explicit ScopedTraceLevel(TraceLevel level)
      : previous_(obs::SetActiveTraceLevel(level)) {}
  ~ScopedTraceLevel() { obs::SetActiveTraceLevel(previous_); }

 private:
  TraceLevel previous_;
};

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesAreExactBuckets) {
  for (u64 v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<std::size_t>(v)), v);
  }
}

TEST(Histogram, BucketBoundsAreContiguousAndContainTheirValues) {
  // Every probed value must land in a bucket whose range [prev_ub+1, ub]
  // contains it, and for values past the exact range the bucket width must
  // stay within the 1/2^kHistogramSubBucketBits relative-error contract.
  std::vector<u64> probes;
  for (u64 v = 0; v < 300; ++v) probes.push_back(v);
  for (int shift = 8; shift < 64; ++shift) {
    const u64 base = 1ull << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
    probes.push_back(base + (base >> 1));
  }
  probes.push_back(~0ull);
  for (const u64 v : probes) {
    const std::size_t idx = Histogram::BucketIndex(v);
    ASSERT_LT(idx, obs::kHistogramBucketCount) << "value " << v;
    const u64 ub = Histogram::BucketUpperBound(idx);
    EXPECT_LE(v, ub) << "value " << v;
    if (idx > 0) {
      const u64 lb = Histogram::BucketUpperBound(idx - 1) + 1;
      EXPECT_GE(v, lb) << "value " << v;
      if (v >= (1ull << obs::kHistogramSubBucketBits)) {
        // Bucket width (ub - lb + 1) is at most lb / 2^kHistogramSubBucketBits:
        // the bounded relative error the layout promises.
        EXPECT_LE(ub - lb + 1, lb >> obs::kHistogramSubBucketBits)
            << "value " << v;
      }
    }
  }
}

TEST(Histogram, TopBucketCoversU64Max) {
  const std::size_t idx = Histogram::BucketIndex(~0ull);
  EXPECT_LT(idx, obs::kHistogramBucketCount);
  EXPECT_EQ(Histogram::BucketUpperBound(idx), ~0ull);
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  Histogram h;
  h.Record(3);
  h.Record(100);
  h.Record(7);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 110u);
  EXPECT_EQ(snap.min, 3u);
  EXPECT_EQ(snap.max, 100u);
}

TEST(Histogram, PercentileNearestRankWithMaxClamp) {
  EXPECT_EQ(HistogramSnapshot{}.Percentile(50.0), 0u);  // empty -> 0

  Histogram h;
  for (u64 v = 0; v < 4; ++v) h.Record(v);  // values 0..3: exact buckets
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Percentile(0.0), 0u);    // rank floor is 1
  EXPECT_EQ(snap.Percentile(50.0), 1u);   // rank ceil(0.5 * 4) = 2
  EXPECT_EQ(snap.Percentile(100.0), 3u);

  // In the lossy range the bucket ceiling is clamped to the observed max:
  // 100 lands in a bucket whose upper bound is 101.
  Histogram lossy;
  lossy.Record(100);
  EXPECT_EQ(lossy.Snapshot().Percentile(100.0), 100u);
}

// ---------------------------------------------------------------------------
// Cross-shard merge determinism
// ---------------------------------------------------------------------------

/// The recorded multiset, partitioned across any number of shards and
/// merged in any order, must produce bit-identical snapshots — the same
/// property the repo's render determinism pins.
TEST(Histogram, MergeIsShardAndOrderIndependent) {
  // A deterministic value stream spanning several octaves.
  std::vector<u64> values;
  u64 x = 88172645463325252ull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x % 100000);
  }

  const auto shard_and_merge = [&](std::size_t shards,
                                   bool reverse) -> HistogramSnapshot {
    std::vector<Histogram> hs(shards);
    // Shards record concurrently — the snapshot/merge path must not care.
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        for (std::size_t i = s; i < values.size(); i += shards) {
          hs[s].Record(values[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    HistogramSnapshot merged;
    if (reverse) {
      for (std::size_t s = shards; s-- > 0;) merged.Merge(hs[s].Snapshot());
    } else {
      for (std::size_t s = 0; s < shards; ++s) merged.Merge(hs[s].Snapshot());
    }
    return merged;
  };

  const HistogramSnapshot one = shard_and_merge(1, false);
  const HistogramSnapshot two = shard_and_merge(2, false);
  const HistogramSnapshot eight = shard_and_merge(8, false);
  const HistogramSnapshot eight_rev = shard_and_merge(8, true);

  const auto same = [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
    return std::memcmp(a.counts.data(), b.counts.data(),
                       sizeof(u64) * a.counts.size()) == 0 &&
           a.count == b.count && a.sum == b.sum && a.min == b.min &&
           a.max == b.max;
  };
  EXPECT_TRUE(same(one, two));
  EXPECT_TRUE(same(one, eight));
  EXPECT_TRUE(same(one, eight_rev));
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStablePerName) {
  obs::Counter& a = obs::MetricsRegistry::Global().GetCounter("test/stable");
  obs::Counter& b = obs::MetricsRegistry::Global().GetCounter("test/stable");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = obs::MetricsRegistry::Global().GetGauge("test/stable-g");
  obs::Gauge& g2 = obs::MetricsRegistry::Global().GetGauge("test/stable-g");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistry, SnapshotIsSortedAndCarriesTraceDropped) {
  obs::MetricsRegistry::Global().GetCounter("test/zz-last").Add(5);
  obs::MetricsRegistry::Global().GetCounter("test/aa-first").Add(7);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  ASSERT_GE(snap.counters.size(), 3u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  EXPECT_EQ(snap.CounterValue("test/aa-first"), 7u);
  EXPECT_EQ(snap.CounterValue("test/zz-last"), 5u);
  // The synthetic overflow counter is in every snapshot (lossy-but-honest).
  bool found = false;
  for (const auto& c : snap.counters) found |= c.name == "obs/trace-dropped";
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Exporter goldens
// ---------------------------------------------------------------------------

TEST(Exporters, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::PrometheusName("serve/queue-us"), "spnerf_serve_queue_us");
  EXPECT_EQ(obs::PrometheusName("ok_name:x9"), "spnerf_ok_name:x9");
}

TEST(Exporters, PrometheusGoldenRoundTrip) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"serve/submitted", 12});
  snap.gauges.push_back({"test/level", -3});
  Histogram hist;
  hist.Record(1);
  hist.Record(1);
  hist.Record(9);
  snap.histograms.push_back({"serve/queue-us", hist.Snapshot()});

  std::ostringstream out;
  obs::WritePrometheus(out, snap);
  const std::string expected =
      "# TYPE spnerf_serve_submitted_total counter\n"
      "spnerf_serve_submitted_total 12\n"
      "# TYPE spnerf_test_level gauge\n"
      "spnerf_test_level -3\n"
      "# TYPE spnerf_serve_queue_us histogram\n"
      "spnerf_serve_queue_us_bucket{le=\"1\"} 2\n"
      "spnerf_serve_queue_us_bucket{le=\"9\"} 3\n"
      "spnerf_serve_queue_us_bucket{le=\"+Inf\"} 3\n"
      "spnerf_serve_queue_us_sum 11\n"
      "spnerf_serve_queue_us_count 3\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Exporters, ChromeTraceGoldenRoundTrip) {
  obs::TraceSnapshot snap;
  obs::ThreadTrace thread;
  thread.tid = 7;

  obs::TraceEvent span;
  span.category = "serve";
  span.name = "issue";
  span.start_ns = 1500;
  span.end_ns = 4750;
  span.flow = 42;
  span.AddArg("batch", 3);
  span.AddStrArg("key", obs::InternString("lego"));
  thread.events.push_back(span);

  obs::TraceEvent instant;
  instant.category = "serve";
  instant.name = "admit";
  instant.start_ns = instant.end_ns = 2000;
  instant.flow = 42;
  thread.events.push_back(instant);

  thread.dropped = 2;
  snap.threads.push_back(thread);
  snap.dropped_total = 2;

  std::ostringstream out;
  obs::WriteChromeTrace(out, snap);
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"issue\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":1.500,"
      "\"dur\":3.250,\"pid\":1,\"tid\":7,"
      "\"args\":{\"request\":42,\"batch\":3,\"key\":\"lego\"}},\n"
      "{\"name\":\"admit\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":2.000,\"pid\":1,\"tid\":7,\"args\":{\"request\":42}},\n"
      "{\"name\":\"trace_dropped\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":0,"
      "\"pid\":1,\"tid\":7,\"args\":{\"dropped\":2}}"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_total\":2}}\n";
  EXPECT_EQ(out.str(), expected);
}

// ---------------------------------------------------------------------------
// Trace level plumbing
// ---------------------------------------------------------------------------

TEST(TraceLevelTest, ResolveOverride) {
  TraceLevel level;
  EXPECT_TRUE(obs::ParseTraceLevelName("off", level));
  EXPECT_EQ(level, TraceLevel::kOff);
  EXPECT_TRUE(obs::ParseTraceLevelName("counters", level));
  EXPECT_EQ(level, TraceLevel::kCounters);
  EXPECT_TRUE(obs::ParseTraceLevelName("full", level));
  EXPECT_EQ(level, TraceLevel::kFull);
  EXPECT_FALSE(obs::ParseTraceLevelName("FULL", level));  // case-sensitive

  EXPECT_EQ(obs::ResolveTraceOverride(nullptr), TraceLevel::kCounters);
  EXPECT_EQ(obs::ResolveTraceOverride(""), TraceLevel::kCounters);
  EXPECT_EQ(obs::ResolveTraceOverride("off"), TraceLevel::kOff);
  EXPECT_EQ(obs::ResolveTraceOverride("full"), TraceLevel::kFull);
  EXPECT_EQ(obs::ResolveTraceOverride("garbage"), TraceLevel::kCounters);
}

TEST(TraceLevelTest, GatesFollowTheLevel) {
  {
    ScopedTraceLevel scope(TraceLevel::kOff);
    EXPECT_FALSE(obs::CountersEnabled());
    EXPECT_FALSE(obs::FullTracingEnabled());
  }
  {
    ScopedTraceLevel scope(TraceLevel::kCounters);
    EXPECT_TRUE(obs::CountersEnabled());
    EXPECT_FALSE(obs::FullTracingEnabled());
  }
  {
    ScopedTraceLevel scope(TraceLevel::kFull);
    EXPECT_TRUE(obs::CountersEnabled());
    EXPECT_TRUE(obs::FullTracingEnabled());
  }
}

TEST(TraceLevelTest, SetReturnsPrevious) {
  const TraceLevel original = obs::ActiveTraceLevel();
  const TraceLevel prev = obs::SetActiveTraceLevel(TraceLevel::kOff);
  EXPECT_EQ(prev, original);
  EXPECT_EQ(obs::SetActiveTraceLevel(original), TraceLevel::kOff);
}

// ---------------------------------------------------------------------------
// Interning
// ---------------------------------------------------------------------------

TEST(Intern, RoundTripsAndIsStable) {
  const u32 a = obs::InternString("intern-test-alpha");
  const u32 b = obs::InternString("intern-test-beta");
  EXPECT_NE(a, obs::kInternOverflowId);
  EXPECT_NE(b, obs::kInternOverflowId);
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::InternString("intern-test-alpha"), a);  // stable id
  EXPECT_STREQ(obs::InternedString(a), "intern-test-alpha");
  EXPECT_STREQ(obs::InternedString(b), "intern-test-beta");
  EXPECT_EQ(obs::InternString(""), obs::kInternOverflowId);
  EXPECT_STREQ(obs::InternedString(obs::kInternOverflowId), "?");
  EXPECT_STREQ(obs::InternedString(999999), "?");
}

// ---------------------------------------------------------------------------
// Recording, flows and the drain side
// ---------------------------------------------------------------------------

TEST(Trace, EmitIsNoOpBelowFull) {
  obs::DrainTrace();  // clear anything previous tests left behind
  {
    ScopedTraceLevel scope(TraceLevel::kCounters);
    obs::EmitInstant("test", "suppressed");
    obs::TraceSpan span("test", "suppressed-span");
    EXPECT_FALSE(span.Active());
  }
  const obs::TraceSnapshot snap = obs::DrainTrace();
  for (const obs::ThreadTrace& t : snap.threads) {
    EXPECT_TRUE(t.events.empty());
  }
}

TEST(Trace, EventsAssemblePerFlow) {
  obs::DrainTrace();  // clear
  {
    ScopedTraceLevel scope(TraceLevel::kFull);
    obs::EmitInstant("test", "admit", 77);
    {
      obs::TraceSpan span("test", "queue", 77);
      EXPECT_TRUE(span.Active());
      span.AddArg("batch", 3);
      span.AddStrArg("key", obs::InternString("flow-test-key"));
    }
    obs::EmitInstant("test", "other-flow", 78);
  }
  const obs::TraceSnapshot snap = obs::DrainTrace();
  const std::vector<obs::TraceEvent> flow = snap.EventsForFlow(77);
  ASSERT_EQ(flow.size(), 2u);
  // Flatten order: ascending start time — the instant was emitted first.
  EXPECT_STREQ(flow[0].name, "admit");
  EXPECT_TRUE(flow[0].IsInstant());
  EXPECT_STREQ(flow[1].name, "queue");
  EXPECT_FALSE(flow[1].IsInstant());
  EXPECT_GE(flow[1].end_ns, flow[1].start_ns);
  EXPECT_EQ(flow[1].ArgValue("batch"), 3);
  EXPECT_TRUE(flow[1].HasArg("key"));
  EXPECT_STREQ(
      obs::InternedString(static_cast<u32>(flow[1].ArgValue("key"))),
      "flow-test-key");
  EXPECT_FALSE(flow[1].HasArg("absent"));
}

TEST(Trace, RingOverflowDropsAreCountedNeverBlocking) {
  // Shrink the default ring so a fresh thread's ring holds only a handful
  // of events (capacity 4 rounds to an 8-slot ring, 7 usable), then emit
  // far more than fit. The surplus must be dropped and counted — recording
  // never blocks.
  const std::size_t prev_cap = obs::SetDefaultTraceRingCapacity(4);
  constexpr int kEmitted = 100;
  {
    ScopedTraceLevel scope(TraceLevel::kFull);
    std::thread emitter([] {
      for (int i = 0; i < kEmitted; ++i) {
        obs::EmitInstant("test", "overflow-tick");
      }
    });
    emitter.join();
  }
  obs::SetDefaultTraceRingCapacity(prev_cap);

  const obs::TraceSnapshot snap = obs::DrainTrace();
  const obs::ThreadTrace* emitter_trace = nullptr;
  for (const obs::ThreadTrace& t : snap.threads) {
    for (const obs::TraceEvent& e : t.events) {
      if (e.name != nullptr && std::string_view(e.name) == "overflow-tick") {
        emitter_trace = &t;
        break;
      }
    }
  }
  ASSERT_NE(emitter_trace, nullptr);
  EXPECT_LE(emitter_trace->events.size(), 7u);
  EXPECT_GE(emitter_trace->dropped, 93u);
  EXPECT_EQ(emitter_trace->events.size() + emitter_trace->dropped,
            static_cast<std::size_t>(kEmitted));
  EXPECT_GE(snap.dropped_total, emitter_trace->dropped);

  // Honesty surfaces everywhere: the cumulative drop counter, the metrics
  // snapshot's synthetic counter, and the Chrome export's counter track.
  EXPECT_GE(obs::TotalTraceDropped(), emitter_trace->dropped);
  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(metrics.CounterValue("obs/trace-dropped"),
            emitter_trace->dropped);
  std::ostringstream out;
  obs::WriteChromeTrace(out, snap);
  EXPECT_NE(out.str().find("trace_dropped"), std::string::npos);
}

TEST(Trace, FlattenOrdersEnclosingSpansFirst) {
  obs::TraceSnapshot snap;
  obs::ThreadTrace thread;
  thread.tid = 1;
  obs::TraceEvent inner;
  inner.category = "test";
  inner.name = "inner";
  inner.start_ns = 100;
  inner.end_ns = 200;
  obs::TraceEvent outer;
  outer.category = "test";
  outer.name = "outer";
  outer.start_ns = 100;
  outer.end_ns = 500;
  thread.events.push_back(inner);  // pushed inner-first on purpose
  thread.events.push_back(outer);
  snap.threads.push_back(thread);
  const std::vector<obs::TraceEvent> flat = snap.Flatten();
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_STREQ(flat[0].name, "outer");  // same start: longer span first
  EXPECT_STREQ(flat[1].name, "inner");
}

// ---------------------------------------------------------------------------
// ManualClock
// ---------------------------------------------------------------------------

TEST(ManualClockTest, AdvancesOnlyWhenTold) {
  ManualClock clock;
  const ClockSource::time_point t0 = clock.Now();
  EXPECT_EQ(clock.Now(), t0);  // no wall time leaks in
  clock.AdvanceMs(5.0);
  EXPECT_EQ(clock.Now() - t0, std::chrono::milliseconds(5));
  clock.Advance(std::chrono::milliseconds(10));
  EXPECT_EQ(clock.Now() - t0, std::chrono::milliseconds(15));
}

TEST(ManualClockTest, SleepUntilJumpsForwardNeverBack) {
  ManualClock clock;
  const ClockSource::time_point t0 = clock.Now();
  clock.SleepUntil(t0 + std::chrono::milliseconds(20));
  EXPECT_EQ(clock.Now() - t0, std::chrono::milliseconds(20));
  clock.SleepUntil(t0 + std::chrono::milliseconds(5));  // in the past: no-op
  EXPECT_EQ(clock.Now() - t0, std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace spnerf
