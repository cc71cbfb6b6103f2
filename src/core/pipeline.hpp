// Top-level per-scene pipeline: builds the dataset (procedural scene ->
// dense grid -> VQRF model), runs the SpNeRF preprocessing, and exposes the
// three rendering paths the paper compares:
//   ground truth (analytic), VQRF (restored dense grid), SpNeRF (online
//   decode, with or without bitmap masking).
//
// The heavy state (dataset, codec, skip octree) is held as shared immutable
// assets (src/assets), so pipelines built through PipelineRepository share
// them rather than rebuilding; Build() remains the direct, uncached path.
#pragma once

#include <memory>
#include <optional>

#include "assets/asset_cache.hpp"
#include "common/image.hpp"
#include "encoding/spnerf_codec.hpp"
#include "grid/occupancy_octree.hpp"
#include "render/camera.hpp"
#include "render/mlp.hpp"
#include "render/render_engine.hpp"
#include "scene/dataset.hpp"
#include "sim/workload.hpp"

namespace spnerf {

struct PipelineConfig {
  SceneId scene_id = SceneId::kChair;
  DatasetParams dataset;
  SpNeRFParams spnerf;
  u64 mlp_seed = 2025;
  RenderOptions render;
  /// Tile scheduler configuration for every render this pipeline issues.
  RenderEngineOptions engine;
  /// Fine voxels per coarse skip cell.
  int coarse_factor = 4;
  float camera_radius = 1.35f;
  float camera_elevation_deg = 25.0f;
  float camera_fov_deg = 35.0f;
};

class ScenePipeline {
 public:
  /// Builds every asset directly (no cache). PipelineRepository::Acquire is
  /// the cached path every bench/example/experiment goes through.
  static ScenePipeline Build(const PipelineConfig& config);

  /// Assembles a pipeline onto already-built (cached) assets. The assets
  /// must match the config's build parameters — the repository guarantees
  /// this by deriving both from the same key fields.
  static ScenePipeline FromAssets(const PipelineConfig& config,
                                  PipelineAssets assets);

  [[nodiscard]] const PipelineConfig& Config() const { return config_; }
  [[nodiscard]] const SceneDataset& Dataset() const { return *assets_.dataset; }
  [[nodiscard]] const SpNeRFModel& Codec() const { return *assets_.codec; }
  [[nodiscard]] const Mlp& GetMlp() const { return mlp_; }
  /// Empty-space skip structure: the occupancy octree over the coarse
  /// bitmap (Skip().Leaf()).
  [[nodiscard]] const OccupancyOctree& Skip() const { return *assets_.skip; }

  /// Orbit camera `view` of `n_views` at the configured radius/elevation.
  [[nodiscard]] Camera MakeCamera(int width, int height, int view = 0,
                                  int n_views = 8) const;

  /// Tile engine configured from PipelineConfig::engine; all pipeline
  /// renders go through it.
  [[nodiscard]] RenderEngine MakeEngine() const {
    return RenderEngine(config_.engine);
  }
  /// Render options with this pipeline's skip octree attached. Callers
  /// building their own RenderJobs (orbit sweeps, codec A/B batches) use
  /// this so every path marches identical rays.
  [[nodiscard]] RenderOptions RenderOptionsWithSkip() const;

  [[nodiscard]] Image RenderGroundTruth(const Camera& camera) const;
  /// Renders from the restored dense grid (the original VQRF flow). The
  /// grid (full-resolution FP32) is restored for this call and freed when
  /// it returns.
  [[nodiscard]] Image RenderVqrf(const Camera& camera) const;
  /// Renders via online decoding; stats/counter collection is fully
  /// parallel (per-tile shards, ordered reduction).
  [[nodiscard]] Image RenderSpnerf(const Camera& camera, bool bitmap_masking,
                                   RenderStats* stats = nullptr,
                                   DecodeCounters* counters = nullptr) const;
  /// Renders the paper's compared paths for one camera as a single engine
  /// batch. Null output pointers skip that path (a null `vqrf` also skips
  /// restoring the dense grid, which lives only for the call). Returns the
  /// batch wall time in ms (issue to the slowest job's completion).
  double RenderComparison(const Camera& camera, Image* gt, Image* vqrf,
                          Image* spnerf_premask, Image* spnerf_postmask) const;

  /// Tile-render with statistics and scale to a full frame (sim input).
  [[nodiscard]] FrameWorkload MeasureWorkload(int tile_size = 96,
                                              int frame_width = 800,
                                              int frame_height = 800) const;
  /// Same measurement mapped onto the VQRF GPU flow.
  [[nodiscard]] GpuFrameWorkload MeasureGpuWorkload(int tile_size = 96,
                                                    int frame_width = 800,
                                                    int frame_height = 800) const;

 private:
  PipelineConfig config_;
  PipelineAssets assets_;  // shared immutable heavy state
  Mlp mlp_;
};

}  // namespace spnerf
