// Inspects the SpNeRF encoded representation of a scene: per-subgrid hash
// table load and collisions, the memory budget, and a step-by-step decode
// trace of a single voxel through bitmap -> Eq.(1) hash -> unified 18-bit
// dispatch, exactly as the SGPU executes it.
//
// Usage: ./codec_inspector [scene=drums] [res=128] [subgrids=64] [table=32768]
#include <cstdio>

#include "common/config.hpp"
#include "common/units.hpp"
#include "core/pipeline_repository.hpp"
#include "encoding/hash.hpp"

int main(int argc, char** argv) {
  using namespace spnerf;
  const Config args = Config::FromArgs(argc, argv);

  PipelineConfig config;
  config.scene_id = SceneFromName(args.GetString("scene", "drums"));
  config.dataset.resolution_override = args.GetInt("res", 128);
  config.spnerf.subgrid_count = args.GetInt("subgrids", 64);
  config.spnerf.table_size = static_cast<u32>(args.GetInt("table", 32768));

  const std::shared_ptr<const ScenePipeline> pipeline =
      PipelineRepository::Global().Acquire(config);
  const SpNeRFModel& codec = pipeline->Codec();
  const VqrfModel& vqrf = *pipeline->Dataset().vqrf;

  std::printf("== SpNeRF codec for '%s': K=%d subgrids, T=%u entries ==\n",
              SceneName(config.scene_id), config.spnerf.subgrid_count,
              config.spnerf.table_size);

  // Memory budget.
  std::printf("\nencoded memory budget:\n");
  std::printf("  hash tables : %10s (%d x %u x 26 bits)\n",
              FormatBytes(codec.HashTableBytes()).c_str(),
              config.spnerf.subgrid_count, config.spnerf.table_size);
  std::printf("  bitmap      : %10s (1 bit per voxel)\n",
              FormatBytes(codec.BitmapBytes()).c_str());
  std::printf("  codebook    : %10s (%d x %d INT8)\n",
              FormatBytes(codec.CodebookBytes()).c_str(),
              vqrf.GetCodebook().Size(), kColorFeatureDim);
  std::printf("  true grid   : %10s (%llu kept voxels)\n",
              FormatBytes(codec.TrueGridBytes()).c_str(),
              static_cast<unsigned long long>(vqrf.KeptCount()));
  std::printf("  total       : %10s vs restored %s (%.1fx smaller)\n",
              FormatBytes(codec.TotalBytes()).c_str(),
              FormatBytes(vqrf.RestoredBytes()).c_str(),
              static_cast<double>(vqrf.RestoredBytes()) /
                  static_cast<double>(codec.TotalBytes()));

  // Per-subgrid occupancy histogram (min/mean/max load).
  std::printf("\nper-subgrid hash-table load:\n");
  u64 min_ins = ~0ull, max_ins = 0, total_ins = 0, total_coll = 0;
  for (const auto& table : codec.Tables()) {
    const HashBuildStats& s = table.BuildStats();
    const u64 pts = s.inserted + s.collisions;
    min_ins = std::min(min_ins, pts);
    max_ins = std::max(max_ins, pts);
    total_ins += pts;
    total_coll += s.collisions;
  }
  std::printf("  points per subgrid: min %llu, mean %.0f, max %llu\n",
              static_cast<unsigned long long>(min_ins),
              static_cast<double>(total_ins) /
                  static_cast<double>(codec.Tables().size()),
              static_cast<unsigned long long>(max_ins));
  std::printf("  build collisions: %llu of %llu points (%.2f%%), residual "
              "alias rate %.2f%%\n",
              static_cast<unsigned long long>(total_coll),
              static_cast<unsigned long long>(total_ins),
              100.0 * static_cast<double>(total_coll) /
                  static_cast<double>(total_ins),
              codec.NonZeroAliasRate() * 100.0);

  // Decode trace of the first kept voxel.
  for (const VoxelRecord& rec : vqrf.Records()) {
    if (!rec.kept) continue;
    const Vec3i p = vqrf.Dims().Unflatten(rec.index);
    const int k = codec.Partition().SubgridOf(p);
    const u32 slot = SpatialHash(p, config.spnerf.table_size);
    DecodeCounters counters;
    const VoxelData d = codec.Decode(p, &counters);
    std::printf("\ndecode trace for voxel (%d, %d, %d):\n", p.x, p.y, p.z);
    std::printf("  1. bitmap[%llu] = 1 (non-zero, not masked)\n",
                static_cast<unsigned long long>(rec.index));
    std::printf("  2. subgrid k = floor(%d / %d) = %d\n", p.x,
                codec.Partition().Width(), k);
    std::printf("  3. h(p) = (x*1 ^ y*2654435761 ^ z*805459861) mod %u = %u\n",
                config.spnerf.table_size, slot);
    std::printf("  4. unified index >= codebook size %d -> true voxel grid "
                "slot\n",
                vqrf.GetCodebook().Size());
    std::printf("  5. dequantized density %.3f, feature[0] %.4f\n", d.density,
                d.features[0]);
    break;
  }

  // Aggregate decode traffic of one rendered view, collected through the
  // tile engine's parallel counter shards — the unit-activity mix the SGPU
  // sees over a frame.
  SpNeRFFieldSource source(codec);
  RenderJob job;
  job.source = &source;
  job.mlp = &pipeline->GetMlp();
  job.camera = pipeline->MakeCamera(96, 96);
  job.options = pipeline->RenderOptionsWithSkip();
  job.collect_stats = true;
  const RenderResult r = pipeline->MakeEngine().Render(job);
  const DecodeCounters& dc = r.counters;
  const double q = dc.queries ? static_cast<double>(dc.queries) : 1.0;
  std::printf("\ndecode traffic over a 96x96 view (%.1f ms):\n", r.wall_ms);
  std::printf("  vertex queries : %llu\n",
              static_cast<unsigned long long>(dc.queries));
  std::printf("  bitmap zero    : %5.1f%%\n",
              100.0 * static_cast<double>(dc.bitmap_zero) / q);
  std::printf("  empty slot     : %5.1f%%\n",
              100.0 * static_cast<double>(dc.empty_slot) / q);
  std::printf("  codebook hits  : %5.1f%%\n",
              100.0 * static_cast<double>(dc.codebook_hits) / q);
  std::printf("  true-grid hits : %5.1f%%\n",
              100.0 * static_cast<double>(dc.true_grid_hits) / q);
  return 0;
}
