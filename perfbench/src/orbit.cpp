// orbit-sparse: one caller renders orbit views of a sparse scene at
// per-fine-voxel occupancy, one frame per RenderEngine::RenderBatch, for the
// whole window. Empty-space traversal does most of the work here, so
// marcher and octree changes move frame time while the serving layer is
// idle.
#include <cstdio>
#include <utility>

#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "render/field_source.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace spnerf;

namespace {

struct FrameLog {
  std::vector<double> ms;
  std::vector<double> start_ms;  // from the window's start
  std::vector<std::uint64_t> hashes;
  std::vector<std::size_t> slots;  // index into the view list
  double wall_ms = 0.0;
  std::uint64_t failed = 0;
  std::vector<FieldThreadTotals> field;  // traced windows only
};

/// Closed loop: the next frame is issued when the previous one returned.
/// With `spans` enabled every frame gets a span and each render thread's
/// SampleBatch activity within it a child span.
FrameLog RenderWindow(const RenderEngine& engine,
                      const std::vector<RenderJob>& jobs, double seconds,
                      SpanRecorder* spans) {
  FrameLog log;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  if (spans != nullptr) (void)FieldTimer::Global().Collect();
  for (std::size_t i = 0; Clock::now() < stop; ++i) {
    const std::size_t slot = i % jobs.size();
    const std::uint64_t id = spans ? spans->NewId() : 0;
    const Clock::time_point t0 = Clock::now();
    try {
      std::vector<RenderResult> results = engine.RenderBatch({jobs[slot]});
      const Clock::time_point t1 = Clock::now();
      log.ms.push_back(Ms(t0, t1));
      log.start_ms.push_back(Ms(start, t0));
      log.hashes.push_back(ImageHash(results.front().image));
      log.slots.push_back(slot);
      if (spans != nullptr) {
        spans->Record(id, "frame", 0, 0, t0, t1);
        for (const FieldThreadTotals& t : FieldTimer::Global().Collect()) {
          spans->Record(spans->NewId(), "field.SampleBatch", id, 0, t.first,
                        t.last);
          log.field.push_back(t);
        }
      }
    } catch (const std::exception& e) {
      std::printf("frame %zu failed: %s\n", i, e.what());
      ++log.failed;
    }
  }
  log.wall_ms = Ms(start, Clock::now());
  return log;
}

/// Frame time, in ms, of rendering every job once (one frame per batch).
double SweepMs(const RenderEngine& engine, const std::vector<RenderJob>& jobs) {
  const Clock::time_point t0 = Clock::now();
  for (const RenderJob& job : jobs) (void)engine.RenderBatch({job});
  return Ms(t0, Clock::now());
}

}  // namespace

void RunOrbit(const Args& args, Report& report, SpanRecorder& spans) {
  const Config& v = args.values;
  PipelineConfig config;
  config.scene_id = SceneFromName(v.GetString("scene", "mic"));
  config.dataset.resolution_override = v.GetInt("res", 0);
  config.coarse_factor = v.GetInt("coarse_factor", 1);
  const int image = v.GetInt("image", 128);
  const int views = v.GetInt("views", 16);
  const int orbit_steps = v.GetInt("orbit_steps", 360);
  const int setup_reps = v.GetInt("setup_reps", 3);
  const double limit_ms = v.GetDouble("latency_limit_ms", 250.0);
  const double psnr_floor = v.GetDouble("psnr_floor_db", 0.0);

  // ---- set-up: cold acquisition from an empty store, plus one warm-up
  // frame, repeated; the last stack serves the run.
  Stack stack;
  std::shared_ptr<const ScenePipeline> pipeline;
  std::vector<double> setup_s;
  std::vector<double> acquire_ms;
  for (int rep = 0; rep < setup_reps; ++rep) {
    pipeline.reset();
    stack.Reset();
    const std::uint64_t setup_id = spans.NewId();
    const Clock::time_point t0 = Clock::now();
    stack = MakeStack(args.store_root + "/setup-" + std::to_string(rep));
    pipeline = stack.repo->Acquire(config);
    const Clock::time_point t1 = Clock::now();
    spans.Record(spans.NewId(), "acquire", setup_id, 0, t0, t1);
    const SpNeRFFieldSource warm_source(pipeline->Codec(),
                                        config.render.fp16_mlp, false);
    RenderJob warm;
    warm.source = &warm_source;
    warm.mlp = &pipeline->GetMlp();
    warm.camera = pipeline->MakeCamera(image, image, 0, orbit_steps);
    warm.options = pipeline->RenderOptionsWithSkip();
    (void)RenderEngine::Shared().RenderBatch({warm});
    const Clock::time_point t2 = Clock::now();
    spans.Record(setup_id, "setup", 0, 0, t0, t2);
    acquire_ms.push_back(Ms(t0, t1));
    setup_s.push_back(Ms(t0, t2) / 1000.0);
  }
  AddSetupMetric(report, setup_s);

  // Orbit views: `views` evenly spaced steps of an `orbit_steps` orbit,
  // starting at a seeded phase.
  const SpNeRFFieldSource source(pipeline->Codec(), config.render.fp16_mlp,
                                 false);
  const TimedFieldSource timed_source(source);
  const int spacing = std::max(1, orbit_steps / views);
  const int phase = static_cast<int>(args.seed % static_cast<u64>(spacing));
  std::vector<RenderJob> jobs;
  for (int k = 0; k < views; ++k) {
    RenderJob job;
    job.source = &source;
    job.mlp = &pipeline->GetMlp();
    job.camera = pipeline->MakeCamera(image, image,
                                      (phase + k * spacing) % orbit_steps,
                                      orbit_steps);
    job.options = pipeline->RenderOptionsWithSkip();
    jobs.push_back(job);
  }
  const RenderEngine& engine = RenderEngine::Shared();

  // ---- the timed window (untraced), then the traced extras.
  const FrameLog log = RenderWindow(engine, jobs, args.seconds, nullptr);
  FrameLog traced;
  FrameLog full_obs;
  if (args.trace) {
    std::vector<RenderJob> timed_jobs = jobs;
    for (RenderJob& job : timed_jobs) job.source = &timed_source;
    FieldTimer::Global().ResetFronts();
    traced = RenderWindow(engine, timed_jobs, args.seconds, &spans);
    const obs::TraceLevel prev =
        obs::SetActiveTraceLevel(obs::TraceLevel::kFull);
    full_obs = RenderWindow(engine, jobs, args.seconds / 2.0, nullptr);
    obs::SetActiveTraceLevel(prev);
    (void)obs::DrainTrace();
  }

  const double frames = static_cast<double>(log.ms.size());
  report.attempted = log.ms.size() + log.failed;
  report.failed = log.failed;
  // Statistics per sub-window of the run (by frame start), reported as the
  // median over sub-windows.
  std::vector<std::vector<double>> slices(kSubWindows);
  for (std::size_t i = 0; i < log.ms.size(); ++i) {
    slices[SubWindow(log.start_ms[i], log.wall_ms)].push_back(log.ms[i]);
  }
  const auto over_slices = [&](const char* name, const auto& stat) {
    std::vector<double> v;
    for (const std::vector<double>& s : slices) v.push_back(stat(s));
    return MedianOverSlices(name, v);
  };
  const auto pct = [&](const char* name, double p) {
    return over_slices(
        name, [p](const std::vector<double>& s) { return Percentile(s, p); });
  };
  const double p50 = pct("frame_ms_p50", 50);
  const double p99 = pct("frame_ms_p99", 99);
  report.Set("frame_ms_p50", p50, "ms");
  report.Set("frame_ms_p95", pct("frame_ms_p95", 95), "ms");
  // Closed loop: a frame is due when the previous one returned, so its
  // latency is its frame time, and every frame is an interactive one.
  report.Set("latency_p50_ms", p50, "ms");
  report.Set("latency_p99_ms", p99, "ms");
  report.Set("interactive_p99_ms", p99, "ms");
  const double slice_s =
      log.wall_ms / 1000.0 / static_cast<double>(kSubWindows);
  report.Set("goodput_rps",
             over_slices("goodput_rps",
                         [&](const std::vector<double>& s) {
                           std::vector<Outcome> outcomes;
                           for (double ms : s) {
                             outcomes.push_back({true, ms, limit_ms});
                           }
                           return GoodputRps(outcomes, slice_s);
                         }),
             "1/s");
  report.Set("served_rate",
             report.attempted ? frames / static_cast<double>(report.attempted)
                              : 0.0,
             "ratio");
  std::printf("orbit-sparse: %zu frames in %.0f ms (p50 %.3f ms, p99 %.3f "
              "ms, n=%zu)\n",
              log.ms.size(), log.wall_ms, p50, p99, log.ms.size());

  // ---- output checks (untimed): every frame bit-identical to its view
  // rendered at 1 worker; PSNR against the analytic ground truth.
  RenderEngineOptions one_opts;
  one_opts.max_threads = 1;
  const RenderEngine one(one_opts);
  RenderProfile profile;
  double psnr_sum = 0.0;
  std::uint64_t mismatched = 0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    RenderJob job = jobs[k];
    job.collect_stats = true;
    const RenderResult ref = one.Render(job);
    profile.Add(ref);
    const std::uint64_t ref_hash = ImageHash(ref.image);
    for (const FrameLog* l : {&log, &std::as_const(traced),
                              &std::as_const(full_obs)}) {
      for (std::size_t i = 0; i < l->ms.size(); ++i) {
        if (l->slots[i] == k && l->hashes[i] != ref_hash) ++mismatched;
      }
    }
    psnr_sum += Psnr(ref.image, pipeline->RenderGroundTruth(job.camera));
  }
  if (mismatched > 0) {
    report.Fail(std::to_string(mismatched) +
                " frame(s) differ from the 1-worker render of their view");
    report.failed += mismatched;
  }
  const double psnr = psnr_sum / static_cast<double>(jobs.size());
  report.Set("psnr_db", psnr, "dB");
  if (psnr < psnr_floor) {
    report.Fail("psnr_db " + std::to_string(psnr) + " below the floor " +
                std::to_string(psnr_floor));
  }
  AddCodecMemoryMetrics(report, {&pipeline->Codec()});
  AddSimMetrics(report, {SimScene{&pipeline->Codec(),
                                  SceneName(config.scene_id), profile, 1.0}});
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  // ---- per-layer metrics (traced run only).
  AddRenderProfileMetrics(report, profile);
  const double mlp_ns =
      MlpNsPerEval(pipeline->GetMlp(), config.render.fp16_mlp, args.seed);
  report.Set("mlp.ns_per_eval", mlp_ns, "ns");
  report.Set("encoding.decode_ns_per_vertex",
             DecodeNsPerVertex(pipeline->Codec(), true, args.seed), "ns");
  // Traced frames cycle through the same views as the verification renders,
  // so MLP work per frame is the profile's.
  const double traced_frames = static_cast<double>(traced.ms.size());
  const auto traced_evals = static_cast<std::uint64_t>(
      static_cast<double>(profile.stats.mlp_evals) /
      static_cast<double>(profile.frames) * traced_frames);
  AddFieldMetrics(report, traced.field, traced.wall_ms, EngineWorkers(),
                  traced_frames, traced_evals, mlp_ns);

  // Scaling: one sweep of every view at 1 worker against the full pool,
  // alternated three times.
  std::vector<double> t1, tn;
  for (int rep = 0; rep < 3; ++rep) {
    t1.push_back(SweepMs(one, jobs));
    tn.push_back(SweepMs(engine, jobs));
  }
  report.Set("render.scaling_eff",
             Median(t1) / (static_cast<double>(EngineWorkers()) * Median(tn)),
             "ratio");

  const BuildTimings build = TimeColdBuild(config);
  report.Set("scene.build_dataset_ms", build.dataset_ms, "ms");
  report.Set("encoding.preprocess_ms", build.preprocess_ms, "ms");
  report.Set("grid.octree_build_ms", build.octree_ms, "ms");
  report.Set("assets.acquire_cold_ms", Median(acquire_ms), "ms");
  AddAcquireMetrics(report, stack, {config});

  // Whole-window medians on both sides of each ratio.
  const double base_p50 = Percentile(log.ms, 50);
  report.Set("obs.full_vs_default", Percentile(full_obs.ms, 50) / base_p50,
             "ratio");
  report.Set("harness.trace_overhead_pct",
             (Percentile(traced.ms, 50) / base_p50 - 1.0) * 100.0, "%");
  report.Set("harness.send_late_ms_p99", 0.0, "ms");
  report.Set("harness.latency_samples", frames, "count");
  report.Set("harness.interactive_samples", frames, "count");
  AddIdleServeMetrics(report);
}

}  // namespace perfbench
