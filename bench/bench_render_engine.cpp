// Render-engine scaling bench: an N-view orbit sweep with full statistics
// collection, rendered through the batched tile scheduler at 1 worker (the
// seed's stats-on sequential behaviour) and at the configured worker count.
// The speedup row is the headline number the engine refactor targets: the
// seed dropped to one core whenever RenderStats were requested.
//
// Usage: ./bench_render_engine [scene=lego] [res=64] [views=8] [size=160]
//        [threads=0]
#include "bench/bench_util.hpp"
#include "core/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace spnerf;
  const Config args = Config::FromArgs(argc, argv);

  PipelineConfig config;
  config.scene_id = SceneFromName(args.GetString("scene", "lego"));
  config.dataset.resolution_override = args.GetInt("res", 64);
  const int views = args.GetInt("views", 8);
  const int size = args.GetInt("size", 160);
  const unsigned threads = static_cast<unsigned>(args.GetInt("threads", 0));
  // threads=N may exceed the detected core count (which cgroup-limited
  // containers under-report); the engine then builds a dedicated pool of
  // that size. The default uses the global pool.
  const unsigned pool_workers = ThreadPool::Global().WorkerCount();
  const unsigned parallel_workers = threads ? threads : pool_workers;

  bench::PrintHeader("RenderEngine", "stats-on orbit sweep scaling");
  std::printf("scene '%s' at %d^3, %d views of %dx%d, pool of %u workers\n",
              SceneName(config.scene_id), config.dataset.resolution_override,
              views, size, size, pool_workers);

  const std::shared_ptr<const ScenePipeline> pipeline =
      PipelineRepository::Global().Acquire(config);
  SpNeRFFieldSource source(pipeline->Codec(), config.render.fp16_mlp);

  std::vector<RenderJob> jobs;
  for (int v = 0; v < views; ++v) {
    RenderJob job;
    job.source = &source;
    job.mlp = &pipeline->GetMlp();
    job.camera = pipeline->MakeCamera(size, size, v, views);
    job.options = pipeline->RenderOptionsWithSkip();
    job.collect_stats = true;
    jobs.push_back(job);
  }

  bench::JsonReport json("render_engine");
  const auto run = [&](const char* name, unsigned workers, bool wavefront) {
    for (RenderJob& job : jobs) job.options.wavefront = wavefront;
    RenderEngineOptions opts;
    opts.max_threads = workers;
    const bench::WallTimer timer;
    const std::vector<RenderResult> results =
        RenderEngine(opts).RenderBatch(jobs);
    const double wall_ms = timer.ElapsedMs();
    u64 rays = 0, evals = 0, queries = 0;
    for (const RenderResult& r : results) {
      rays += r.stats.rays;
      evals += r.stats.mlp_evals;
      queries += r.counters.queries;
    }
    std::printf("%-14s %2u workers: %8.1f ms  (%llu rays, %llu MLP evals, "
                "%llu decodes)\n",
                name, workers, wall_ms, static_cast<unsigned long long>(rays),
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(queries));
    json.Add(name, wall_ms, workers);
    return wall_ms;
  };

  bench::PrintRule();
  // "sequential"/"parallel" keep their historical names (and are now the
  // wavefront path, the production default); the scalar per-ray reference
  // runs at both worker counts so the wavefront-vs-scalar ratio is tracked
  // per commit. The ratio entries store the ratio itself in the wall_ms
  // field (>1 means wavefront is faster; tracked, not gated — 1-core CI
  // measures small fronts).
  const double seq_ms = run("sequential", 1, /*wavefront=*/true);
  const double par_ms = run("parallel", parallel_workers, /*wavefront=*/true);
  const double scalar_seq_ms = run("scalar[1t]", 1, /*wavefront=*/false);
  const double scalar_par_ms =
      run("scalar[par]", parallel_workers, /*wavefront=*/false);
  bench::PrintRule();
  std::printf("speedup: %.2fx on %u workers (target: >= 4x on 8)\n",
              seq_ms / par_ms, parallel_workers);
  std::printf("wavefront vs scalar: %.2fx at 1 worker, %.2fx at %u workers\n",
              scalar_seq_ms / seq_ms, scalar_par_ms / par_ms,
              parallel_workers);
  json.Add("ratio/wavefront-vs-scalar[1t]", scalar_seq_ms / seq_ms, 1);
  json.Add("ratio/wavefront-vs-scalar[par]", scalar_par_ms / par_ms,
           parallel_workers);
  // Path-tagged twins of the ratios: the name says which SIMD kernels the
  // wavefront runs dispatched on (also in the "host" block), so mixed-host
  // trajectories stay interpretable.
  const std::string simd_tag = simd::PathName(simd::ActivePath());
  json.Add("ratio/wavefront-" + simd_tag + "-vs-scalar[1t]",
           scalar_seq_ms / seq_ms, 1);
  json.Add("ratio/wavefront-" + simd_tag + "-vs-scalar[par]",
           scalar_par_ms / par_ms, parallel_workers);

  // Tracing-overhead gate: the parallel wavefront sweep re-run with full
  // tracing off and on. The ratio (wall_off / wall_full, so 1.0 = free,
  // < 0.95 would breach the observability contract) lands in the obs block
  // and, per repo convention, in an entries row.
  {
    const obs::TraceLevel prev = obs::SetActiveTraceLevel(obs::TraceLevel::kOff);
    const double off_ms = run("parallel[trace=off]", parallel_workers,
                              /*wavefront=*/true);
    obs::SetActiveTraceLevel(obs::TraceLevel::kFull);
    const double full_ms = run("parallel[trace=full]", parallel_workers,
                               /*wavefront=*/true);
    obs::SetActiveTraceLevel(prev);
    if (full_ms > 0.0) {
      const double ratio = off_ms / full_ms;
      std::printf("tracing overhead: off %.1f ms -> full %.1f ms (%.3fx)\n",
                  off_ms, full_ms, ratio);
      json.AddObsRatio("render/trace-overhead[full]", ratio);
      json.Add("render/trace-overhead", ratio, parallel_workers);
    }
  }

  // Empty-space-skipping sweep over scene sparsity: the fraction of march
  // iterations that were octree jumps rather than samples, per scene.
  {
    struct SweepScene {
      SceneId id;
      const char* sparsity;
    };
    const SweepScene sweep[] = {
        {SceneId::kMic, "mostly-empty"},
        {SceneId::kLego, "half"},
        {SceneId::kShip, "dense"},
    };
    const int sweep_views = 2;
    bench::PrintRule();
    std::printf("skip sweep (%d views of %dx%d):\n", sweep_views, size, size);
    for (const SweepScene& s : sweep) {
      PipelineConfig sc = config;
      sc.scene_id = s.id;
      // Per-fine-voxel occupancy (factor 1): the regime a hierarchical
      // skip structure targets — at the default factor 4 a 64^3 scene has
      // only 16^3 coarse cells.
      sc.coarse_factor = 1;
      const std::shared_ptr<const ScenePipeline> p =
          PipelineRepository::Global().Acquire(sc);
      SpNeRFFieldSource sweep_source(p->Codec(), sc.render.fp16_mlp);
      std::vector<RenderJob> sweep_jobs;
      for (int v = 0; v < sweep_views; ++v) {
        RenderJob job;
        job.source = &sweep_source;
        job.mlp = &p->GetMlp();
        job.camera = p->MakeCamera(size, size, v, views);
        job.options = p->RenderOptionsWithSkip();
        job.collect_stats = true;
        sweep_jobs.push_back(job);
      }
      RenderEngineOptions opts;
      opts.max_threads = parallel_workers;
      u64 skips = 0, steps = 0;
      for (const RenderResult& r : RenderEngine(opts).RenderBatch(sweep_jobs)) {
        skips += r.stats.coarse_skips;
        steps += r.stats.steps;
      }
      const double rate = skips + steps ? static_cast<double>(skips) /
                                              static_cast<double>(skips + steps)
                                        : 0.0;
      std::printf("  %-12s (%s): skip-rate %.3f\n", SceneName(s.id),
                  s.sparsity, rate);
      json.Add(std::string("render/skip-rate[") + s.sparsity + "]", rate,
               parallel_workers);
    }
  }

  bench::AddBuildTimings(json);
  json.CaptureObsSnapshot();
  return 0;
}
