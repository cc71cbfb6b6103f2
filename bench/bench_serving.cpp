// Serving benchmark: drives the RenderService with the deterministic
// open-loop LoadGenerator and reports throughput, tail latency
// (p50/p95/p99 — aggregate and per priority class) and request outcomes
// (completed/rejected/expired) to BENCH_serving.json.
//
// Phases over a warm asset cache:
//   * unsaturated — offered load well below measured capacity. Nothing may
//     be shed here; any rejection is a bug and fails the process (CI runs
//     this as a smoke gate).
//   * saturated — offered load far above capacity (8x the measured warmup
//     service rate, >= 200 requests) with a small queue and the
//     interactive-heavy deadline trace. Replayed twice at the identical
//     offered load: fixed quality (ladder off — the service must shed via
//     explicit rejections/expiries while the queue stays bounded) and with
//     the adaptive quality ladder on (degrade-before-drop). The ladder run
//     must shed strictly less than the fixed run whenever the fixed run
//     sheds at all; both shed rates land in BENCH_serving.json as
//     serve/shed-rate[fixed|ladder], next to the per-rung completion
//     distribution.
//   * PSNR-vs-deadline curve — each quality rung rendered directly through
//     the pipeline on the lead scene and compared against the rung-0
//     reference (PSNR/SSIM + measured per-frame wall time), so the
//     quality/cost tradeoff the governor trades along is a tracked
//     trajectory (quality/rung<r> entries).
//   * multi-scene saturated — the same overload spread uniformly across
//     every scene (distinct batch keys), replayed once with
//     max_inflight_batches=1 (the serial dispatcher) and once with the
//     configured concurrency, to measure what overlapping distinct-key
//     engine batches on one pool buys in throughput.
//   * dispatch-overhead probe — strictly one small request (max_batch=1)
//     in flight at a time, so the p50 submit->issue latency is pure
//     dispatch cost (admission, dispatcher wakeup, issue); recorded as
//     serve/dispatch-overhead.
//   * tracing-overhead gate — a closed-loop window of single-request
//     batches replayed at SPNF_TRACE=off, =counters and =full.
//
// Overrides: requests=N scenes=N res=R img=S threads=N capacity=N batch=N
//            inflight=N (max_inflight_batches for the concurrent phases)
//            seed=S rate=R (unsaturated offered rate in requests/s; the
//            saturated phases always offer 32x the unsaturated rate.
//            0 = derive both from measured closed-loop frame latency)
//            dimg=S (frame size of the probe and the tracing gate)
//            drequests=N (length of the tracing gate's window; the probe
//            sends a quarter of it, at least 32)
#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/pipeline.hpp"
#include "obs/exporters.hpp"
#include "render/field_source.hpp"
#include "render/quality.hpp"
#include "serve/load_generator.hpp"

namespace {

using namespace spnerf;

struct PhaseResult {
  ServiceStatsSnapshot stats;
  double wall_ms = 0.0;
};

PhaseResult RunPhase(const LoadGeneratorOptions& load,
                     const RenderServiceOptions& service_opts) {
  RenderService service(service_opts);
  const ReplayResult replay =
      ReplayTrace(service, LoadGenerator(load).GenerateTrace());
  service.Drain();
  PhaseResult r;
  r.stats = service.Stats();
  r.wall_ms = replay.wall_ms;
  return r;
}

void PrintPhase(const char* name, const PhaseResult& r) {
  const obs::HistogramSnapshot& lat = r.stats.total_us;
  std::printf("%-24s %9.1f rps | p50 %7.2f ms  p95 %7.2f ms  p99 %7.2f ms\n",
              name, r.stats.ThroughputRps(), PercentileMs(lat, 50),
              PercentileMs(lat, 95), PercentileMs(lat, 99));
  std::printf("             completed %llu, rejected %llu, expired %llu | "
              "queue peak %zu | mean batch %.2f\n",
              static_cast<unsigned long long>(r.stats.completed),
              static_cast<unsigned long long>(r.stats.rejected),
              static_cast<unsigned long long>(r.stats.expired),
              r.stats.queue_peak, r.stats.MeanBatchSize());
  for (std::size_t c = 0; c < kPriorityClassCount; ++c) {
    const PriorityClassStats& cls = r.stats.by_class[c];
    if (cls.completed + cls.rejected + cls.expired == 0) continue;
    std::printf("             %-11s p50 %7.2f ms  p99 %7.2f ms | "
                "completed %llu, shed %llu\n",
                RequestPriorityName(static_cast<RequestPriority>(c)),
                PercentileMs(cls.total_us, 50),
                PercentileMs(cls.total_us, 99),
                static_cast<unsigned long long>(cls.completed),
                static_cast<unsigned long long>(cls.rejected + cls.expired));
  }
  u64 degraded = 0;
  for (std::size_t q = 1; q < kQualityRungCount; ++q) {
    degraded += r.stats.by_rung[q];
  }
  if (degraded > 0) {
    std::printf("             rungs");
    for (std::size_t q = 0; q < kQualityRungCount; ++q) {
      std::printf("  %s=%llu", QualityRungName(static_cast<QualityRung>(q)),
                  static_cast<unsigned long long>(r.stats.by_rung[q]));
    }
    std::printf("\n");
  }
}

/// Fraction of submitted requests the service shed (rejected + expired).
double ShedRate(const ServiceStatsSnapshot& s) {
  return s.submitted > 0
             ? static_cast<double>(s.rejected + s.expired) /
                   static_cast<double>(s.submitted)
             : 0.0;
}

/// Aggregate percentile + outcome-count entries, plus one percentile and
/// one count entry per priority class, so a priority inversion or a
/// class-skewed shedding regression shows in the per-commit trajectory.
void AddPhaseEntries(bench::JsonReport& json, const std::string& name,
                     const PhaseResult& r, unsigned threads) {
  const ServiceStatsSnapshot& s = r.stats;
  json.AddPercentiles(name, PercentileMs(s.total_us, 50),
                      PercentileMs(s.total_us, 95),
                      PercentileMs(s.total_us, 99), s.ThroughputRps(),
                      threads);
  json.AddCounts(name + "/outcomes", s.completed, s.rejected, s.expired,
                 threads);
  for (std::size_t c = 0; c < kPriorityClassCount; ++c) {
    const PriorityClassStats& cls = s.by_class[c];
    if (cls.completed + cls.rejected + cls.expired == 0) continue;
    const std::string cls_name =
        name + "/" + RequestPriorityName(static_cast<RequestPriority>(c));
    const double cls_rps =
        s.span_ms > 0.0
            ? static_cast<double>(cls.completed) * 1000.0 / s.span_ms
            : 0.0;
    json.AddPercentiles(cls_name, PercentileMs(cls.total_us, 50),
                        PercentileMs(cls.total_us, 95),
                        PercentileMs(cls.total_us, 99), cls_rps, threads);
    json.AddCounts(cls_name + "/outcomes", cls.completed, cls.rejected,
                   cls.expired, threads);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::FromArgs(argc, argv);
  const auto requests =
      static_cast<std::size_t>(args.GetInt("requests", 400));
  const int nscenes = args.GetInt("scenes", 3);
  const int res = args.GetInt("res", 64);
  const int img = args.GetInt("img", 48);
  const auto threads = static_cast<unsigned>(args.GetInt("threads", 0));
  const auto capacity = static_cast<std::size_t>(args.GetInt("capacity", 64));
  const auto max_batch = static_cast<std::size_t>(args.GetInt("batch", 8));
  const auto inflight = static_cast<std::size_t>(args.GetInt(
      "inflight", static_cast<int>(RenderServiceOptions{}.max_inflight_batches)));
  const auto seed = static_cast<u64>(args.GetInt("seed", 2025));
  const double rate_override = args.GetDouble("rate", 0.0);

  bench::PrintHeader("serving",
                     "RenderService throughput and tail latency under load");
  bench::JsonReport json("serving");
  const unsigned effective_threads =
      threads ? threads : ThreadPool::Global().WorkerCount();

  std::vector<SceneId> scenes = AllScenes();
  scenes.resize(static_cast<std::size_t>(
      std::max(1, std::min(nscenes, kSceneCount))));

  RenderRequest base;
  base.config.dataset.resolution_override = res;
  base.image_width = base.image_height = img;

  RenderServiceOptions service_opts;
  service_opts.queue_capacity = capacity;
  service_opts.max_batch = max_batch;
  service_opts.max_inflight_batches = inflight;
  service_opts.engine.max_threads = threads;

  // Warm every scene's assets through the service itself, then measure
  // closed-loop per-frame latency (one request in flight at a time) to
  // size the offered load.
  bench::WallTimer warm_timer;
  double frame_ms = 0.0;
  {
    RenderService service(service_opts);
    for (int round = 0; round < 2; ++round) {
      double sum = 0.0;
      for (SceneId id : scenes) {
        RenderRequest r = base;
        r.config.scene_id = id;
        sum += service.Submit(r).get().total_ms;
      }
      frame_ms = sum / static_cast<double>(scenes.size());  // last round wins
    }
  }
  std::printf("warmup: %zu scene(s) built/loaded, closed-loop frame latency "
              "%.2f ms\n", scenes.size(), frame_ms);
  json.Add("serve/warmup", warm_timer.ElapsedMs(), effective_threads);
  bench::PrintRule();

  LoadGeneratorOptions load;
  load.seed = seed;
  load.request_count = requests;
  load.scenes = scenes;
  load.hot_scene_count = std::max<std::size_t>(1, scenes.size() / 2);
  load.base = base;

  // The render path serves ~1000/frame_ms requests per second; offer a
  // quarter of that (no shedding tolerated), then four times it (shedding
  // required).
  const double capacity_rps = 1000.0 / std::max(frame_ms, 1e-3);
  load.arrival_rate_rps =
      rate_override > 0.0 ? rate_override : 0.25 * capacity_rps;
  load.deadline_fraction = 0.0;  // nothing may expire when unsaturated
  const PhaseResult unsat = RunPhase(load, service_opts);
  PrintPhase("unsaturated", unsat);
  AddPhaseEntries(json, "serve/unsaturated", unsat, effective_threads);

  // Saturated ladder comparison: the interactive-heavy deadline trace at
  // 8x the measured warmup service rate (guaranteed overload) with at
  // least 200 requests, replayed twice at the identical offered load —
  // fixed full quality vs the adaptive ladder. The comparison is the
  // tentpole gate: at equal load, degrading must strictly beat dropping.
  LoadGeneratorOptions sat_load = InteractiveHeavyTrace(frame_ms);
  sat_load.seed = seed;
  sat_load.request_count = std::max<std::size_t>(200, requests / 2);
  sat_load.scenes = scenes;
  sat_load.hot_scene_count = load.hot_scene_count;
  sat_load.base = base;
  sat_load.arrival_rate_rps =
      rate_override > 0.0 ? 32.0 * rate_override : 8.0 * capacity_rps;

  RenderServiceOptions ladder_opts = service_opts;
  ladder_opts.ladder.enabled = true;
  ladder_opts.ladder.default_cost_ms = frame_ms;

  const PhaseResult sat = RunPhase(sat_load, service_opts);
  PrintPhase("saturated[fixed]", sat);
  AddPhaseEntries(json, "serve/saturated", sat, effective_threads);

  const PhaseResult sat_ladder = RunPhase(sat_load, ladder_opts);
  PrintPhase("saturated[ladder]", sat_ladder);
  AddPhaseEntries(json, "serve/saturated[ladder]", sat_ladder,
                  effective_threads);
  for (std::size_t q = 0; q < kQualityRungCount; ++q) {
    json.AddCounts(
        std::string("serve/saturated[ladder]/rung") + std::to_string(q),
        sat_ladder.stats.by_rung[q], 0, 0, effective_threads);
  }
  // Shed-rate fractions ride the wall_ms field (repo convention for
  // ratio-valued entries): shed = (rejected + expired) / submitted.
  const double fixed_shed = ShedRate(sat.stats);
  const double ladder_shed = ShedRate(sat_ladder.stats);
  json.Add("serve/shed-rate[fixed]", fixed_shed, effective_threads);
  json.Add("serve/shed-rate[ladder]", ladder_shed, effective_threads);
  std::printf("degrade-before-drop: fixed shed %.1f%% -> ladder shed %.1f%% "
              "(%llu of %llu completions degraded)\n",
              100.0 * fixed_shed, 100.0 * ladder_shed,
              static_cast<unsigned long long>(
                  sat_ladder.stats.completed - sat_ladder.stats.by_rung[0]),
              static_cast<unsigned long long>(sat_ladder.stats.completed));
  bench::PrintRule();

  // PSNR-vs-deadline curve: each rung rendered directly through the lead
  // scene's pipeline and compared against the rung-0 reference. The wall
  // time next to each PSNR is the rung's measured per-frame cost — the
  // exact (quality, latency) frontier the governor trades along.
  {
    PipelineConfig quality_config = base.config;
    quality_config.scene_id = scenes.front();
    const std::shared_ptr<const ScenePipeline> pipeline =
        PipelineRepository::Global().Acquire(quality_config);
    const RenderOptions base_options = pipeline->RenderOptionsWithSkip();
    SpNeRFFieldSource source(pipeline->Codec(),
                             quality_config.render.fp16_mlp);
    RenderEngineOptions engine_opts;
    engine_opts.max_threads = threads;
    RenderEngine engine(engine_opts);
    Image reference;
    for (std::size_t q = 0; q < kQualityRungCount; ++q) {
      const auto rung = static_cast<QualityRung>(q);
      const int divisor = RungResolutionDivisor(rung);
      RenderJob job;
      job.source = &source;
      job.mlp = &pipeline->GetMlp();
      job.camera = pipeline->MakeCamera(ReducedDim(img, divisor),
                                        ReducedDim(img, divisor), 0,
                                        base.n_views);
      job.options = ApplyRung(base_options, rung);
      bench::WallTimer rung_timer;
      std::vector<RenderResult> results = engine.RenderBatch({job});
      const double rung_ms = rung_timer.ElapsedMs();
      Image image = divisor > 1
                        ? UpsampleBilinear(results.front().image, img, img)
                        : std::move(results.front().image);
      if (q == 0) reference = std::move(image);
      const bench::ImageQuality quality = bench::MeasureQuality(
          reference, q == 0 ? reference : image);
      std::printf("quality rung %zu (%-7s): PSNR %5.1f dB  SSIM %.4f  "
                  "%8.2f ms/frame\n",
                  q, QualityRungName(rung), quality.psnr_db, quality.ssim,
                  rung_ms);
      json.AddQuality("quality/rung" + std::to_string(q), quality.psnr_db,
                      quality.ssim, rung_ms, effective_threads);
    }
  }
  bench::PrintRule();

  // Multi-scene saturated sweep: the same overload spread uniformly over
  // every scene (every request draws from the full zoo slice, so distinct
  // batch keys dominate the queue), replayed with the serial dispatcher
  // and with concurrent in-flight batches. The throughput ratio is the
  // concurrent-region scheduler's headline serving win.
  LoadGeneratorOptions multi = load;
  multi.arrival_rate_rps =
      rate_override > 0.0 ? 16.0 * rate_override : 4.0 * capacity_rps;
  multi.deadline_fraction = 0.3;
  multi.deadline_ms = 8.0 * frame_ms;
  multi.hot_scene_count = scenes.size();  // uniform: every scene is hot
  double multi_rps[2] = {0.0, 0.0};
  const std::size_t sweeps[2] = {1, std::max<std::size_t>(inflight, 2)};
  for (int i = 0; i < 2; ++i) {
    RenderServiceOptions opts = service_opts;
    opts.max_inflight_batches = sweeps[i];
    const PhaseResult r = RunPhase(multi, opts);
    char name[64];
    std::snprintf(name, sizeof(name), "multi-scene[inflight=%zu]", sweeps[i]);
    PrintPhase(name, r);
    AddPhaseEntries(json, std::string("serve/") + name, r, effective_threads);
    multi_rps[i] = r.stats.ThroughputRps();
    if (r.stats.queue_peak > capacity) {
      std::fprintf(stderr, "ERROR: queue grew past its bound (%zu > %zu)\n",
                   r.stats.queue_peak, capacity);
      return 1;
    }
  }
  if (multi_rps[0] > 0.0) {
    std::printf("multi-scene concurrency: %.1f -> %.1f rps "
                "(%.2fx with %zu in-flight batches)\n",
                multi_rps[0], multi_rps[1], multi_rps[1] / multi_rps[0],
                sweeps[1]);
    if (multi_rps[1] <= multi_rps[0]) {
      std::printf("note: no concurrency gain measured — expected on "
                  "single-core machines where one worker backs the pool\n");
    }
  }

  bench::PrintRule();

  const auto dispatch_requests =
      static_cast<std::size_t>(args.GetInt("drequests", 300));
  const int dispatch_img = args.GetInt("dimg", 16);

  // Dispatch-overhead probe: strictly one request in flight, so the queue
  // is empty at every submit and the submit->issue latency is pure
  // dispatch cost (admission + dispatcher wakeup + batch issue), with no
  // render backlog mixed in.
  {
    RenderServiceOptions opts = service_opts;
    opts.max_batch = 1;
    RenderService service(opts);
    RenderRequest small = base;
    small.config.scene_id = scenes.front();
    small.image_width = small.image_height = dispatch_img;
    service.Submit(small).get();  // warm
    const std::size_t probes = std::max<std::size_t>(dispatch_requests / 4, 32);
    for (std::size_t i = 0; i < probes; ++i) {
      RenderRequest r = small;
      r.view = static_cast<int>(i) % std::max(r.n_views, 1);
      service.Submit(r).get();
    }
    // Percentile over this service's completions (the warmup request is one
    // sample among `probes`; the median is robust to it).
    const double overhead_ms = PercentileMs(service.Stats().queue_us, 50);
    std::printf("dispatch overhead (submit->issue, empty queue): %.3f ms\n",
                overhead_ms);
    json.Add("serve/dispatch-overhead", overhead_ms, effective_threads);
  }

  bench::PrintRule();

  // Tracing-overhead gate: the batch-1 closed-loop window replayed on fresh
  // services at SPNF_TRACE=off, =counters and =full. Same load, same
  // scheduling — the throughput ratios (level / off) are the observability
  // layer's overhead contract (counters-only must stay >= 0.99, full
  // tracing >= 0.95 on multi-core hosts; see ARCHITECTURE.md).
  {
    const auto sweep = [&](obs::TraceLevel level) -> double {
      const obs::TraceLevel prev = obs::SetActiveTraceLevel(level);
      RenderServiceOptions opts = service_opts;
      opts.max_batch = 1;
      RenderService service(opts);
      RenderRequest small = base;
      small.config.scene_id = scenes.front();
      small.image_width = small.image_height = dispatch_img;
      service.Submit(small).get();  // warm this service's pipeline handle
      constexpr std::size_t kWindow = 8;
      std::deque<std::future<RenderResponse>> window;
      bench::WallTimer timer;
      for (std::size_t i = 0; i < dispatch_requests; ++i) {
        RenderRequest r = small;
        r.view = static_cast<int>(i) % std::max(r.n_views, 1);
        window.push_back(service.Submit(r));
        if (window.size() >= kWindow) {
          window.front().get();
          window.pop_front();
        }
      }
      while (!window.empty()) {
        window.front().get();
        window.pop_front();
      }
      const double wall_ms = timer.ElapsedMs();
      obs::SetActiveTraceLevel(prev);
      return wall_ms > 0.0
                 ? static_cast<double>(dispatch_requests) * 1000.0 / wall_ms
                 : 0.0;
    };
    const double rps_off = sweep(obs::TraceLevel::kOff);
    const double rps_counters = sweep(obs::TraceLevel::kCounters);
    const double rps_full = sweep(obs::TraceLevel::kFull);
    if (rps_off > 0.0) {
      const double counters_ratio = rps_counters / rps_off;
      const double full_ratio = rps_full / rps_off;
      std::printf("tracing overhead: off %.1f rps | counters %.1f rps "
                  "(%.3fx) | full %.1f rps (%.3fx)\n",
                  rps_off, rps_counters, counters_ratio, rps_full, full_ratio);
      json.AddObsRatio("serve/trace-overhead[counters]", counters_ratio);
      json.AddObsRatio("serve/trace-overhead[full]", full_ratio);
      // Ratio value rides in the wall_ms field too (repo convention), so the
      // trajectory tooling that only reads `entries` still sees the gate.
      json.Add("serve/trace-overhead", full_ratio, effective_threads);
    }
  }

  // Export whatever the trace rings hold (the full-level sweep above, plus
  // everything recorded when the process runs under SPNF_TRACE=full) as a
  // Chrome trace, and the metrics registry as Prometheus text. CI uploads
  // both as artifacts from the serving smoke run.
  obs::WriteChromeTraceFile("TRACE_serving.json", obs::DrainTrace());
  obs::WritePrometheusFile("METRICS_serving.prom",
                           obs::MetricsRegistry::Global().Snapshot());

  bench::PrintRule();
  bench::AddBuildTimings(json);
  json.CaptureObsSnapshot();

  if (unsat.stats.rejected + unsat.stats.expired > 0) {
    std::fprintf(stderr,
                 "ERROR: unsaturated run shed %llu request(s) — admission "
                 "control dropped load the service had capacity for\n",
                 static_cast<unsigned long long>(unsat.stats.rejected +
                                                 unsat.stats.expired));
    return 1;
  }
  if (sat.stats.queue_peak > capacity ||
      sat_ladder.stats.queue_peak > capacity) {
    std::fprintf(stderr,
                 "ERROR: queue grew past its bound (%zu/%zu > %zu)\n",
                 sat.stats.queue_peak, sat_ladder.stats.queue_peak, capacity);
    return 1;
  }
  if (sat.stats.rejected + sat.stats.expired == 0) {
    std::printf("note: saturated run shed nothing — offered rate likely too "
                "low for this machine\n");
  }
  // The tentpole gate: at identical offered load, degrading must strictly
  // beat dropping whenever the fixed-quality run shed at all.
  if (fixed_shed > 0.0 && ladder_shed >= fixed_shed) {
    std::fprintf(stderr,
                 "ERROR: quality ladder did not reduce shedding "
                 "(fixed %.3f vs ladder %.3f)\n",
                 fixed_shed, ladder_shed);
    return 1;
  }
  return 0;
}
