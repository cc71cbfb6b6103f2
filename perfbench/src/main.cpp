// perfbench: the repository benchmark's harness binary.
//
//   perfbench <workload> seed=N seconds=S trace=0|1 store=DIR
//             [trace_out=FILE] [key=value ...]
//   perfbench selftest
//
// Workloads: orbit-sparse, serve-overload. The key=value
// constants (scenes, rates, image sizes, deadline bands, limits) come from
// perfbench/spec.json via run.py. Prints the run stamp, a metric table, and
// as its last stdout line the one-line JSON result.
#include <cstdio>
#include <exception>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

void AddSetupMetric(Report& report, const std::vector<double>& setup_seconds) {
  report.Set("setup_s", Median(setup_seconds), "s");
  std::printf("set-up: median %.4f s over %zu cold set-up(s)\n",
              Median(setup_seconds), setup_seconds.size());
}

void AddIdleServeMetrics(Report& report) {
  for (const char* name :
       {"serve.admit_us_p99", "serve.queue_ms_p50", "serve.queue_ms_p99",
        "serve.queue_depth_p99", "serve.inflight_mean", "serve.service_ms_p50",
        "serve.service_ms_p99", "serve.batch_size_mean", "serve.rejected",
        "serve.expired", "serve.missed_deadline", "serve.shed_rate",
        "serve.degraded_rate", "serve.rung0_share", "serve.rung1_share",
        "serve.rung2_share", "serve.rung3_share"}) {
    const std::string n = name;
    const bool us = n.ends_with("_us_p99");
    const bool ms = n.find("_ms_") != std::string::npos;
    const bool ratio = n.ends_with("_rate") || n.ends_with("_share");
    report.Set(n, 0.0, us ? "us" : ms ? "ms" : ratio ? "ratio" : "count");
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <workload|selftest> key=value...\n");
    return 2;
  }
  const std::string workload = argv[1];
  if (workload == "selftest") {
    const int failed = RunSelfTest();
    std::printf("selftest: %s\n", failed == 0 ? "ok" : "FAILED");
    return failed == 0 ? 0 : 1;
  }

  Args args;
  args.workload = workload;
  args.values = spnerf::Config::FromArgs(argc - 1, argv + 1);
  args.seed = std::stoull(args.values.GetString("seed", "1"));
  args.seconds = args.values.GetDouble("seconds", 10.0);
  args.trace = args.values.GetInt("trace", 0) != 0;
  args.store_root = args.values.GetString("store", "");
  args.trace_out = args.values.GetString("trace_out", "");
  if (args.store_root.empty()) {
    std::fprintf(stderr, "perfbench: store=DIR is required\n");
    return 2;
  }

  Report report;
  SpanRecorder spans(args.trace);
  try {
    if (RunSelfTest() != 0) report.Fail("harness arithmetic self-test");
    if (workload == "orbit-sparse") {
      RunOrbit(args, report, spans);
    } else if (workload == "serve-overload") {
      RunServe(args, report, spans);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("workload threw: ") + e.what());
    report.failed += 1;
    if (report.attempted == 0) report.attempted = 1;
  }

  const std::string stamp = RunStampJson(args);
  std::printf("stamp: %s\n", stamp.c_str());
  if (args.trace) {
    for (const SpanTotals& t : spans.Totals()) {
      std::printf("  span %-20s n=%-7zu total %12.3f ms  self %12.3f ms\n",
                  t.name.c_str(), t.count, t.total_ms, t.self_ms);
    }
    if (!args.trace_out.empty() && !spans.WriteJson(args.trace_out, stamp)) {
      std::printf("note: could not write %s\n", args.trace_out.c_str());
    }
  }
  report.PrintTable();
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return 0;
}
