// Exact statistics over the harness's own raw samples. Every percentile the
// benchmark reports comes from here — never from the service's reservoirs or
// the obs histograms (those carry bucket error) — and is reported next to
// its sample count.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Exact percentile of raw samples: linear interpolation between the two
/// closest ranks, rank = p/100 * (n - 1) (numpy's default definition).
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Latency of an open-loop request measured from when the trace scheduled
/// it: how late the generator sent it (submit - due) plus the service's
/// submit -> response-ready time.
double DueLatencyMs(double due_ms, double submit_ms, double service_total_ms);

/// One request's outcome for goodput accounting.
struct Outcome {
  bool completed = false;
  double latency_ms = 0.0;
  /// The request's deadline, or the fixed limit for deadline-free requests.
  double limit_ms = 0.0;
};

/// Requests completed within their limit, per second of trace. A shed
/// request (completed == false) misses every limit.
double GoodputRps(const std::vector<Outcome>& outcomes, double trace_seconds);

/// Rescales Poisson arrival times so that `count` arrivals span exactly
/// `span_ms`: given the first count + 1 arrivals of a Poisson process, the
/// first `count` divided by the last are distributed as uniform order
/// statistics, so the result is a Poisson trace conditioned on exactly
/// `count` arrivals in the window. Fixing the count removes the trace's
/// own Poisson count noise from throughput figures. Needs count + 1
/// arrivals; returns the first `count`, scaled.
std::vector<double> ConditionArrivals(const std::vector<double>& arrivals_ms,
                                      std::size_t count, double span_ms);

/// Sub-windows per timed window. End-to-end statistics are taken per slice
/// and reported as the median over slices, so one burst of host noise or
/// one governor episode cannot set the run's figure.
inline constexpr std::size_t kSubWindows = 5;

/// Index of the sub-window holding `time_ms` when [0, span_ms) is cut into
/// `windows` equal consecutive slices; times outside land in the first or
/// last slice.
std::size_t SubWindow(double time_ms, double span_ms,
                      std::size_t windows = kSubWindows);

/// Checks the arithmetic above on synthetic inputs. Prints each failed
/// check and returns how many failed.
int RunSelfTest();

}  // namespace perfbench
