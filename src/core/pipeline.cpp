#include "core/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "render/field_source.hpp"

namespace spnerf {

ScenePipeline ScenePipeline::Build(const PipelineConfig& config) {
  return FromAssets(config,
                    BuildPipelineAssets(config.scene_id, config.dataset,
                                        config.spnerf, config.coarse_factor));
}

ScenePipeline ScenePipeline::FromAssets(const PipelineConfig& config,
                                        PipelineAssets assets) {
  SPNERF_CHECK_MSG(
      assets.dataset && assets.codec && assets.skip,
      "pipeline assets incomplete");
  SPNERF_CHECK_MSG(assets.codec->Dims() == assets.dataset->full_grid.Dims(),
                   "codec asset does not match the dataset grid");
  ScenePipeline p;
  p.config_ = config;
  p.assets_ = std::move(assets);
  p.mlp_ = Mlp::Random(config.mlp_seed);
  return p;
}

Camera ScenePipeline::MakeCamera(int width, int height, int view,
                                 int n_views) const {
  SPNERF_CHECK_MSG(view >= 0 && view < n_views, "view index out of range");
  const auto cams = OrbitCameras(n_views, Vec3f{0.5f, 0.45f, 0.5f},
                                 config_.camera_radius,
                                 config_.camera_elevation_deg,
                                 config_.camera_fov_deg, width, height);
  return cams[static_cast<std::size_t>(view)];
}

RenderOptions ScenePipeline::RenderOptionsWithSkip() const {
  RenderOptions opt = config_.render;
  opt.skip = assets_.skip.get();
  return opt;
}

Image ScenePipeline::RenderGroundTruth(const Camera& camera) const {
  const AnalyticFieldSource source(assets_.dataset->scene);
  RenderJob job;
  job.source = &source;
  job.mlp = &mlp_;
  job.camera = camera;
  job.options = RenderOptionsWithSkip();
  return std::move(MakeEngine().Render(job).image);
}

Image ScenePipeline::RenderVqrf(const Camera& camera) const {
  const DenseGrid restored = assets_.dataset->vqrf->Restore();
  const GridFieldSource source(restored);
  RenderJob job;
  job.source = &source;
  job.mlp = &mlp_;
  job.camera = camera;
  job.options = RenderOptionsWithSkip();
  return std::move(MakeEngine().Render(job).image);
}

Image ScenePipeline::RenderSpnerf(const Camera& camera, bool bitmap_masking,
                                  RenderStats* stats,
                                  DecodeCounters* counters) const {
  // One stateless source serves every worker; decode activity lands in the
  // engine's per-tile counter shards, never in the source.
  SpNeRFFieldSource source(*assets_.codec, config_.render.fp16_mlp);
  source.SetMasking(bitmap_masking);
  RenderJob job;
  job.source = &source;
  job.mlp = &mlp_;
  job.camera = camera;
  job.options = RenderOptionsWithSkip();
  job.collect_stats = stats != nullptr || counters != nullptr;
  RenderResult result = MakeEngine().Render(job);
  if (stats) stats->Merge(result.stats);
  if (counters) *counters = result.counters;
  return std::move(result.image);
}

double ScenePipeline::RenderComparison(const Camera& camera, Image* gt,
                                       Image* vqrf, Image* spnerf_premask,
                                       Image* spnerf_postmask) const {
  const AnalyticFieldSource gt_src(assets_.dataset->scene);
  SpNeRFFieldSource pre_src(*assets_.codec, config_.render.fp16_mlp);
  pre_src.SetMasking(false);
  SpNeRFFieldSource post_src(*assets_.codec, config_.render.fp16_mlp);
  post_src.SetMasking(true);
  DenseGrid restored;
  std::unique_ptr<GridFieldSource> vqrf_src;
  if (vqrf != nullptr) {
    restored = assets_.dataset->vqrf->Restore();
    vqrf_src = std::make_unique<GridFieldSource>(restored);
  }

  RenderJob base;
  base.mlp = &mlp_;
  base.camera = camera;
  base.options = RenderOptionsWithSkip();

  std::vector<RenderJob> jobs;
  std::vector<Image*> outputs;
  const auto add = [&](Image* out, const FieldSource* source) {
    if (out == nullptr) return;
    RenderJob job = base;
    job.source = source;
    jobs.push_back(job);
    outputs.push_back(out);
  };
  add(gt, &gt_src);
  add(vqrf, vqrf_src.get());
  add(spnerf_premask, &pre_src);
  add(spnerf_postmask, &post_src);

  std::vector<RenderResult> results = MakeEngine().RenderBatch(jobs);
  double batch_wall_ms = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    *outputs[i] = std::move(results[i].image);
    // wall_ms is per job (issue to that job's completion); the batch wall
    // time is the slowest job's.
    batch_wall_ms = std::max(batch_wall_ms, results[i].wall_ms);
  }
  return batch_wall_ms;
}

FrameWorkload ScenePipeline::MeasureWorkload(int tile_size, int frame_width,
                                             int frame_height) const {
  const Camera tile_cam = MakeCamera(tile_size, tile_size);
  RenderStats stats;
  DecodeCounters counters;
  (void)RenderSpnerf(tile_cam, /*bitmap_masking=*/true, &stats, &counters);
  return BuildFrameWorkload(*assets_.codec, stats, counters,
                            SceneName(config_.scene_id), frame_width,
                            frame_height);
}

GpuFrameWorkload ScenePipeline::MeasureGpuWorkload(int tile_size,
                                                   int frame_width,
                                                   int frame_height) const {
  const Camera tile_cam = MakeCamera(tile_size, tile_size);
  RenderStats stats;
  DecodeCounters counters;
  (void)RenderSpnerf(tile_cam, /*bitmap_masking=*/true, &stats, &counters);
  return BuildGpuWorkload(*assets_.dataset->vqrf, stats, frame_width,
                          frame_height);
}

}  // namespace spnerf
