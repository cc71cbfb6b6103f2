// Volume rendering with alpha compositing, empty-space skipping and early
// ray termination — the per-frame loop the SpNeRF accelerator executes
// (ray sampling -> online decode -> trilinear interpolation -> MLP ->
// compositing). Rendering statistics feed the hardware workload model.
#pragma once

#include "common/image.hpp"
#include "grid/occupancy_octree.hpp"
#include "render/camera.hpp"
#include "render/field_source.hpp"
#include "render/mlp.hpp"

namespace spnerf {

struct RenderOptions {
  /// Ray-march step in world units ([0,1]^3 scene box). ~half a voxel at
  /// 160^3 resolution.
  float step_size = 0.003f;
  /// Samples whose alpha falls below this skip the MLP (DVGO's
  /// fast_color_thres); their contribution is negligible by construction.
  float alpha_threshold = 2e-3f;
  /// Stop marching when transmittance falls below this.
  float termination_transmittance = 2e-3f;
  /// Composite over this background (Synthetic-NeRF uses white).
  Vec3f background{1.0f, 1.0f, 1.0f};
  /// Use the FP16 systolic-array MLP path.
  bool fp16_mlp = false;
  /// Wavefront (batched) tile marching: per tile, the active rays' next
  /// sample positions are gathered into one FieldSource::SampleBatch call
  /// and the surviving samples shade through one Mlp::ForwardBatch — the
  /// software mirror of the accelerator's decode->TIU->systolic dataflow.
  /// Images, RenderStats and DecodeCounters are bit-identical to the scalar
  /// per-ray path (execution policy, not semantics; excluded from pipeline
  /// keys). Off = the scalar reference path, kept for differential testing.
  bool wavefront = true;
  /// Optional occupancy octree for empty-space skipping (non-owning). All
  /// compared pipelines use the same skip structure, as DVGO/VQRF do.
  /// Samples sit on each ray's lattice t_k = t_near + k * step_size with or
  /// without it; skipping only drops the lattice points outside [0,1]^3 or
  /// in empty leaf cells, and crosses empty space one empty octree node per
  /// jump.
  const OccupancyOctree* skip = nullptr;
};

/// Per-frame statistics. `rays`, `steps`, `coarse_skips` and `mlp_evals`
/// drive the cycle-level simulator's workload (sim/workload.hpp); per-ray
/// means are `steps / rays` and `mlp_evals / rays`.
struct RenderStats {
  u64 rays = 0;
  u64 steps = 0;           // field samples taken
  u64 coarse_skips = 0;    // empty-space jumps: empty octree nodes crossed
                           // (and outside points dropped) without sampling
  u64 mlp_evals = 0;       // samples that passed the alpha threshold
  u64 terminated_rays = 0; // rays stopped by early termination
  u64 missed_rays = 0;     // rays that never hit the scene box

  void Reset() { *this = RenderStats{}; }

  /// Accumulates another shard. Integer adds, so shards reduce to the same
  /// totals in any merge order.
  void Merge(const RenderStats& other) {
    rays += other.rays;
    steps += other.steps;
    coarse_skips += other.coarse_skips;
    mlp_evals += other.mlp_evals;
    terminated_rays += other.terminated_rays;
    missed_rays += other.missed_rays;
  }
};

class RenderEngine;

class VolumeRenderer {
 public:
  explicit VolumeRenderer(RenderOptions options = {}) : options_(options) {}

  [[nodiscard]] const RenderOptions& Options() const { return options_; }

  /// Renders one view through the tile engine (all workers, with or without
  /// stats). `stats`, when given, accumulates the workload counters of this
  /// view; the totals are identical for any worker count (per-tile shards,
  /// ordered reduction). Schedules on `engine` when given, else on the
  /// process-wide shared engine (RenderEngine::Shared()) — a per-call
  /// engine is never constructed.
  [[nodiscard]] Image Render(const FieldSource& source, const Mlp& mlp,
                             const Camera& camera,
                             RenderStats* stats = nullptr,
                             const RenderEngine* engine = nullptr) const;

  /// Renders one pixel tile [x0,x1) x [y0,y1) of `camera`'s image into
  /// `out` — the unit of work the tile engine schedules. Dispatches to the
  /// wavefront marcher (options().wavefront, the default) or the scalar
  /// per-ray loop; both produce bit-identical pixels, stats and counters.
  /// `stats`/`counters` are this tile's shard accumulators (may be null).
  void RenderTile(const FieldSource& source, const Mlp& mlp,
                  const Camera& camera, int x0, int y0, int x1, int y1,
                  Image& out, RenderStats* stats = nullptr,
                  DecodeCounters* counters = nullptr) const;

  /// Renders a single ray; exposed for tests, the trace generator and the
  /// tile engine. `counters` is the decode-counter shard handed to the
  /// field source (may be null).
  [[nodiscard]] Vec3f RenderRay(const FieldSource& source, const Mlp& mlp,
                                const Ray& ray, RenderStats* stats = nullptr,
                                DecodeCounters* counters = nullptr) const;

 private:
  /// The wavefront marcher behind RenderTile (options().wavefront == true).
  void RenderTileWavefront(const FieldSource& source, const Mlp& mlp,
                           const Camera& camera, int x0, int y0, int x1,
                           int y1, Image& out, RenderStats* stats,
                           DecodeCounters* counters) const;

  RenderOptions options_;
};

namespace render_detail {

/// Direction components with |d| below this are treated as parallel to the
/// axis: a jump never takes an exit plane from them (it would divide by
/// ~zero), matching IntersectAabb's rule.
inline constexpr float kDegenerateDirectionEpsilon = 1e-12f;

/// One ray's march over its sample lattice: sample k sits at
/// t_k = t_near + float(k) * step, for every k with t_k < t_far. The march
/// state is the index alone, so a sample's position never depends on how
/// the march reached it — skipped and unskipped marches of a ray share
/// every position they sample.
struct LatticeMarch {
  Ray ray;
  float t_near = 0.f;
  float t_far = 0.f;
  float step = 0.f;
  u32 k = 0;      // next lattice index to test
  u64 jumps = 0;  // empty-space jumps so far (RenderStats::coarse_skips)

  [[nodiscard]] float T(u32 i) const {
    return t_near + static_cast<float>(i) * step;
  }
  [[nodiscard]] Vec3f Point(u32 i) const { return ray.At(T(i)); }
};

/// Per-level obs tally of the jumps (defined in volume_renderer.cpp); the
/// advance accepts null.
struct SkipShard;

/// Moves `m.k` to the first index at or after it whose sample is taken,
/// stores that sample's position in `p` and returns true; returns false
/// once t_k reaches t_far. Without `octree` every lattice point is taken.
/// With it, point k is taken iff it lies inside [0,1]^3 and its leaf cell
/// is occupied (CoarseOccupancy::OccupiedAtWorld on the octree's leaf), and
/// an empty leaf costs one jump across the shallowest empty octree node
/// containing it. Callers step past a taken sample with ++m.k.
bool AdvanceToOccupied(const OccupancyOctree* octree, LatticeMarch& m,
                       Vec3f& p, SkipShard* shard = nullptr);

}  // namespace render_detail

}  // namespace spnerf
