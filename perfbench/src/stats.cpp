#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double DueLatencyMs(double due_ms, double submit_ms,
                    double service_total_ms) {
  return (submit_ms - due_ms) + service_total_ms;
}

double GoodputRps(const std::vector<Outcome>& outcomes,
                  double trace_seconds) {
  if (trace_seconds <= 0.0) return 0.0;
  std::size_t met = 0;
  for (const Outcome& o : outcomes) {
    if (o.completed && o.latency_ms <= o.limit_ms) ++met;
  }
  return static_cast<double>(met) / trace_seconds;
}

std::vector<double> ConditionArrivals(const std::vector<double>& arrivals_ms,
                                      std::size_t count, double span_ms) {
  if (arrivals_ms.size() < count + 1 || arrivals_ms[count] <= 0.0) return {};
  const double scale = span_ms / arrivals_ms[count];
  std::vector<double> out(arrivals_ms.begin(),
                          arrivals_ms.begin() + static_cast<long>(count));
  for (double& t : out) t *= scale;
  return out;
}

std::size_t SubWindow(double time_ms, double span_ms, std::size_t windows) {
  if (windows <= 1 || span_ms <= 0.0 || time_ms <= 0.0) return 0;
  const auto w = static_cast<std::size_t>(time_ms / span_ms *
                                          static_cast<double>(windows));
  return std::min(w, windows - 1);
}

namespace {

int Check(bool ok, const char* what, double got, double want) {
  if (ok) return 0;
  std::printf("selftest FAILED: %s: got %.9g, want %.9g\n", what, got, want);
  return 1;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

}  // namespace

int RunSelfTest() {
  int failed = 0;

  // Percentiles over 1..100 (shuffled order must not matter).
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);
  failed += Check(Near(Percentile(ramp, 50), 50.5), "p50 of 1..100",
                  Percentile(ramp, 50), 50.5);
  failed += Check(Near(Percentile(ramp, 99), 99.01), "p99 of 1..100",
                  Percentile(ramp, 99), 99.01);
  failed += Check(Near(Percentile(ramp, 0), 1.0), "p0 of 1..100",
                  Percentile(ramp, 0), 1.0);
  failed += Check(Near(Percentile(ramp, 100), 100.0), "p100 of 1..100",
                  Percentile(ramp, 100), 100.0);
  failed += Check(Near(Percentile({}, 50), 0.0), "p50 of nothing",
                  Percentile({}, 50), 0.0);
  failed += Check(Near(Percentile({7.25}, 99), 7.25), "p99 of one sample",
                  Percentile({7.25}, 99), 7.25);
  failed += Check(Near(Median({3, 1, 2, 10}), 2.5), "median of four",
                  Median({3, 1, 2, 10}), 2.5);
  failed += Check(Near(Mean({1, 2, 3, 6}), 3.0), "mean", Mean({1, 2, 3, 6}),
                  3.0);

  // Due-time latency: sent 2.5 ms late, served in 7 ms -> 9.5 ms.
  failed += Check(Near(DueLatencyMs(10.0, 12.5, 7.0), 9.5), "due latency",
                  DueLatencyMs(10.0, 12.5, 7.0), 9.5);
  failed += Check(Near(DueLatencyMs(10.0, 10.0, 7.0), 7.0),
                  "due latency, on time", DueLatencyMs(10.0, 10.0, 7.0), 7.0);

  // Goodput: 2 of 4 meet their limit (one is late, one was shed) over 2 s.
  const std::vector<Outcome> outcomes = {
      {true, 10.0, 20.0},  // met
      {true, 20.0, 20.0},  // met (limit inclusive)
      {true, 30.0, 20.0},  // late
      {false, 0.0, 20.0},  // shed: misses every limit
  };
  failed += Check(Near(GoodputRps(outcomes, 2.0), 1.0), "goodput",
                  GoodputRps(outcomes, 2.0), 1.0);
  failed += Check(Near(GoodputRps(outcomes, 0.0), 0.0), "goodput, no trace",
                  GoodputRps(outcomes, 0.0), 0.0);

  // Conditioned arrivals: 3 arrivals of 4 spread over exactly 100 ms.
  const std::vector<double> scaled =
      ConditionArrivals({10.0, 30.0, 40.0, 50.0}, 3, 100.0);
  failed += Check(scaled.size() == 3, "conditioned count",
                  static_cast<double>(scaled.size()), 3.0);
  if (scaled.size() == 3) {
    failed += Check(Near(scaled[0], 20.0) && Near(scaled[2], 80.0),
                    "conditioned scale", scaled[2], 80.0);
  }
  failed += Check(ConditionArrivals({1.0, 2.0}, 2, 10.0).empty(),
                  "conditioned needs count + 1 arrivals", 0.0, 0.0);

  // Sub-windows: [0, 100) in 4 slices of 25.
  failed += Check(SubWindow(0.0, 100.0, 4) == 0, "sub-window of t=0",
                  static_cast<double>(SubWindow(0.0, 100.0, 4)), 0.0);
  failed += Check(SubWindow(24.9, 100.0, 4) == 0, "sub-window of t=24.9",
                  static_cast<double>(SubWindow(24.9, 100.0, 4)), 0.0);
  failed += Check(SubWindow(25.0, 100.0, 4) == 1, "sub-window of t=25",
                  static_cast<double>(SubWindow(25.0, 100.0, 4)), 1.0);
  failed += Check(SubWindow(150.0, 100.0, 4) == 3, "sub-window past the end",
                  static_cast<double>(SubWindow(150.0, 100.0, 4)), 3.0);
  failed += Check(SubWindow(60.0, 100.0, 1) == 0, "one window",
                  static_cast<double>(SubWindow(60.0, 100.0, 1)), 0.0);
  return failed;
}

}  // namespace perfbench
