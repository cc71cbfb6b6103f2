// The benchmark's workloads. Each runs in its own process: set-up (cold
// asset builds from an empty store), a timed window of `seconds`, then the
// untimed output checks. The untraced run reports the end-to-end metrics;
// the traced run repeats the window with harness spans on and reports the
// per-layer metrics.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// orbit-sparse: closed loop, one caller, one frame per RenderBatch, orbit
/// views of one scene at per-fine-voxel occupancy; no service.
void RunOrbit(const Args& args, Report& report, SpanRecorder& spans);

/// serve-overload: an open-loop trace replayed against a RenderService at
/// a fixed absolute rate.
void RunServe(const Args& args, Report& report, SpanRecorder& spans);

/// Median of per-set-up durations in seconds, reported as setup_s.
void AddSetupMetric(Report& report, const std::vector<double>& setup_seconds);

/// Zero-valued serve.* metrics for workloads without a service.
void AddIdleServeMetrics(Report& report);

}  // namespace perfbench
