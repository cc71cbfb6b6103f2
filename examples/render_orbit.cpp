// Renders an orbit of views around a scene through the SpNeRF online-decode
// path and writes them as PPM frames — the AR/VR-style novel-view workload
// the paper's introduction motivates. All views render as one batch through
// the tile engine: their tiles interleave across the worker pool, with
// per-view statistics collected in parallel.
//
// Usage: ./render_orbit [scene=chair] [views=8] [size=160] [res=128]
//        [masking=1] [threads=0]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/pipeline_repository.hpp"

int main(int argc, char** argv) {
  using namespace spnerf;
  const Config args = Config::FromArgs(argc, argv);

  PipelineConfig config;
  config.scene_id = SceneFromName(args.GetString("scene", "chair"));
  config.dataset.resolution_override = args.GetInt("res", 128);
  config.engine.max_threads = static_cast<unsigned>(args.GetInt("threads", 0));
  const int views = args.GetInt("views", 8);
  const int size = args.GetInt("size", 160);
  const bool masking = args.GetBool("masking", true);

  std::printf("rendering %d orbit views of '%s' (%dx%d, masking %s)\n", views,
              SceneName(config.scene_id), size, size, masking ? "on" : "off");

  const std::shared_ptr<const ScenePipeline> pipeline =
      PipelineRepository::Global().Acquire(config);
  SpNeRFFieldSource source(pipeline->Codec(), config.render.fp16_mlp);
  source.SetMasking(masking);

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
  const std::vector<RenderResult> results =
      pipeline->MakeEngine().RenderBatch(jobs);

  RenderStats total;
  for (int v = 0; v < views; ++v) {
    const RenderResult& r = results[static_cast<std::size_t>(v)];
    char name[64];
    std::snprintf(name, sizeof(name), "orbit_%s_%02d.ppm",
                  SceneName(config.scene_id), v);
    r.image.WritePpm(name);
    std::printf("  view %2d: %s  (%llu samples, %llu MLP evals, "
                "%.1f evals/ray)\n",
                v, name, static_cast<unsigned long long>(r.stats.steps),
                static_cast<unsigned long long>(r.stats.mlp_evals),
                static_cast<double>(r.stats.mlp_evals) /
                    static_cast<double>(std::max<u64>(r.stats.rays, 1)));
    total.Merge(r.stats);
  }
  // wall_ms is per-job (issue -> that job's completion); the batch's wall
  // time is the slowest job's span, not the first's.
  double batch_ms = 0.0;
  for (const RenderResult& r : results) batch_ms = std::max(batch_ms, r.wall_ms);
  std::printf("total: %llu rays, %llu samples, %llu MLP evaluations in "
              "%.1f ms\n",
              static_cast<unsigned long long>(total.rays),
              static_cast<unsigned long long>(total.steps),
              static_cast<unsigned long long>(total.mlp_evals), batch_ms);
  return 0;
}
