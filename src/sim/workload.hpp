// Frame workload construction: the renderer is run on a representative tile
// (same optics, smaller raster), and its measured per-ray statistics are
// scaled to the full frame the accelerator is evaluated on (800x800, as for
// Synthetic-NeRF). Data-structure sizes come from the actual SpNeRF model.
#pragma once

#include <string>

#include "common/types.hpp"
#include "encoding/spnerf_codec.hpp"
#include "model/gpu_roofline.hpp"
#include "render/mlp.hpp"
#include "render/volume_renderer.hpp"

namespace spnerf {

struct FrameWorkload {
  std::string scene;
  int width = 800;
  int height = 800;

  u64 rays = 0;
  u64 samples = 0;       // fine samples (8 vertex lookups each)
  u64 coarse_skips = 0;  // empty-space jumps, one BLU probe each
  u64 mlp_evals = 0;

  // Resident data-structure sizes (from the SpNeRF model).
  u64 table_bytes = 0;
  u64 bitmap_bytes = 0;
  u64 codebook_bytes = 0;
  u64 true_grid_bytes = 0;
  u64 weight_bytes = 0;
  int subgrid_count = 0;

  // Decode mix, as fractions of vertex lookups.
  double bitmap_zero_frac = 0.0;
  double codebook_frac = 0.0;
  double true_grid_frac = 0.0;

  [[nodiscard]] u64 VertexLookups() const { return samples * 8; }
  [[nodiscard]] u64 OutputBytes() const { return rays * 3; }  // RGB8 frame
};

/// Scales tile-render statistics to a `width` x `height` frame.
FrameWorkload BuildFrameWorkload(const SpNeRFModel& model,
                                 const RenderStats& tile_stats,
                                 const DecodeCounters& tile_counters,
                                 const std::string& scene_name,
                                 int width = 800, int height = 800);

/// Same scaling for the VQRF-on-GPU roofline model.
GpuFrameWorkload BuildGpuWorkload(const VqrfModel& vqrf,
                                  const RenderStats& tile_stats,
                                  int width = 800, int height = 800);

}  // namespace spnerf
