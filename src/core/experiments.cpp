#include "core/experiments.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/ssim.hpp"
#include "common/logging.hpp"
#include "core/pipeline_repository.hpp"

namespace spnerf {

PipelineConfig ExperimentConfig::MakePipelineConfig(SceneId id) const {
  PipelineConfig pc;
  pc.scene_id = id;
  pc.dataset.resolution_override = resolution_override;
  pc.dataset.vqrf = vqrf;
  pc.dataset.max_threads = threads;
  pc.spnerf = spnerf;
  pc.render = render;
  pc.engine.max_threads = threads;
  pc.mlp_seed = mlp_seed;
  return pc;
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<SparsityRow> RunSparsity(const ExperimentConfig& cfg) {
  std::vector<SparsityRow> rows;
  for (SceneId id : cfg.scenes) {
    DatasetParams dp;
    dp.resolution_override = cfg.resolution_override;
    dp.vqrf = cfg.vqrf;
    dp.max_threads = cfg.threads;
    const std::shared_ptr<const SceneDataset> ds =
        AssetCache::Global().AcquireDataset(id, dp);
    SparsityRow r;
    r.scene = SceneName(id);
    r.total_voxels = ds->full_grid.VoxelCount();
    // The paper's sparsity metric is over the pruned voxel-grid data, i.e.
    // the surviving non-zero points of the compressed model.
    r.nonzero_voxels = ds->vqrf->NonZeroCount();
    r.nonzero_fraction = static_cast<double>(r.nonzero_voxels) /
                         static_cast<double>(r.total_voxels);
    rows.push_back(r);
  }
  return rows;
}

std::vector<MemoryRow> RunMemory(const ExperimentConfig& cfg) {
  std::vector<MemoryRow> rows;
  for (SceneId id : cfg.scenes) {
    const std::shared_ptr<const ScenePipeline> p =
        PipelineRepository::Global().Acquire(cfg.MakePipelineConfig(id));
    const SpNeRFModel& codec = p->Codec();
    MemoryRow r;
    r.scene = SceneName(id);
    r.vqrf_restored_bytes = p->Dataset().vqrf->RestoredBytes();
    r.hash_table_bytes = codec.HashTableBytes();
    r.bitmap_bytes = codec.BitmapBytes();
    r.codebook_bytes = codec.CodebookBytes();
    r.true_grid_bytes = codec.TrueGridBytes();
    r.spnerf_bytes = codec.TotalBytes();
    r.reduction = static_cast<double>(r.vqrf_restored_bytes) /
                  static_cast<double>(r.spnerf_bytes);
    rows.push_back(r);
  }
  return rows;
}

std::vector<PsnrRow> RunPsnr(const ExperimentConfig& cfg) {
  std::vector<PsnrRow> rows;
  for (SceneId id : cfg.scenes) {
    const std::shared_ptr<const ScenePipeline> p =
        PipelineRepository::Global().Acquire(cfg.MakePipelineConfig(id));
    const Camera cam = p->MakeCamera(cfg.psnr_image_size, cfg.psnr_image_size);

    // The four compared paths render as one batch: their tiles interleave
    // through a single scheduler instead of four serial full-frame passes.
    Image gt, vqrf, pre, post;
    (void)p->RenderComparison(cam, &gt, &vqrf, &pre, &post);

    PsnrRow r;
    r.scene = SceneName(id);
    r.vqrf_psnr = Psnr(gt, vqrf);
    r.spnerf_premask_psnr = Psnr(gt, pre);
    r.spnerf_postmask_psnr = Psnr(gt, post);
    r.vqrf_ssim = Ssim(gt, vqrf);
    r.spnerf_postmask_ssim = Ssim(gt, post);
    r.build_collision_rate = p->Codec().AggregateBuildStats().CollisionRate();
    r.nonzero_alias_rate = p->Codec().NonZeroAliasRate();
    rows.push_back(r);
    SPNERF_LOG_INFO << "PSNR " << r.scene << ": vqrf " << r.vqrf_psnr
                    << " pre " << r.spnerf_premask_psnr << " post "
                    << r.spnerf_postmask_psnr;
  }
  return rows;
}

namespace {

SweepPoint SweepOne(const ExperimentConfig& cfg, int subgrids, u32 table) {
  std::vector<double> psnrs;
  std::vector<double> aliases;
  std::vector<double> bytes;
  for (SceneId id : cfg.scenes) {
    PipelineConfig pc = cfg.MakePipelineConfig(id);
    pc.spnerf.subgrid_count = subgrids;
    pc.spnerf.table_size = table;
    const std::shared_ptr<const ScenePipeline> p =
        PipelineRepository::Global().Acquire(pc);
    const Camera cam = p->MakeCamera(cfg.psnr_image_size, cfg.psnr_image_size);
    Image gt, post;
    (void)p->RenderComparison(cam, &gt, /*vqrf=*/nullptr,
                              /*spnerf_premask=*/nullptr, &post);
    psnrs.push_back(Psnr(gt, post));
    aliases.push_back(p->Codec().NonZeroAliasRate());
    bytes.push_back(static_cast<double>(p->Codec().TotalBytes()));
  }
  SweepPoint pt;
  pt.subgrid_count = subgrids;
  pt.table_size = table;
  pt.mean_psnr = MeanOf(psnrs);
  pt.alias_rate = MeanOf(aliases);
  pt.spnerf_bytes = static_cast<u64>(MeanOf(bytes));
  return pt;
}

}  // namespace

std::vector<SweepPoint> RunSubgridSweep(const ExperimentConfig& cfg,
                                        const std::vector<int>& subgrid_counts,
                                        u32 table_size) {
  std::vector<SweepPoint> points;
  for (int k : subgrid_counts) points.push_back(SweepOne(cfg, k, table_size));
  return points;
}

std::vector<SweepPoint> RunTableSweep(const ExperimentConfig& cfg,
                                      int subgrid_count,
                                      const std::vector<u32>& table_sizes) {
  std::vector<SweepPoint> points;
  for (u32 t : table_sizes) points.push_back(SweepOne(cfg, subgrid_count, t));
  return points;
}

std::vector<RuntimeBreakdownRow> RunRuntimeBreakdown(
    const ExperimentConfig& cfg) {
  // Average the per-scene rooflines on each platform.
  std::vector<PlatformSpec> platforms = TableIPlatforms();
  std::vector<RuntimeBreakdownRow> rows(platforms.size());
  std::vector<std::vector<double>> mem(platforms.size()),
      comp(platforms.size()), over(platforms.size()), fps(platforms.size());

  for (SceneId id : cfg.scenes) {
    const std::shared_ptr<const ScenePipeline> p =
        PipelineRepository::Global().Acquire(cfg.MakePipelineConfig(id));
    const GpuFrameWorkload w =
        p->MeasureGpuWorkload(cfg.tile_size, cfg.frame_width, cfg.frame_height);
    for (std::size_t i = 0; i < platforms.size(); ++i) {
      const GpuRooflineResult r = EvaluateVqrfOnGpu(platforms[i], w);
      mem[i].push_back(r.memory_time_s / r.total_time_s);
      comp[i].push_back(r.compute_time_s / r.total_time_s);
      over[i].push_back(r.overhead_time_s / r.total_time_s);
      fps[i].push_back(r.fps);
    }
  }
  for (std::size_t i = 0; i < platforms.size(); ++i) {
    rows[i].platform = platforms[i].name;
    rows[i].memory_share = MeanOf(mem[i]);
    rows[i].compute_share = MeanOf(comp[i]);
    rows[i].overhead_share = MeanOf(over[i]);
    rows[i].fps = MeanOf(fps[i]);
  }
  return rows;
}

std::vector<HardwareRow> RunHardwareComparison(const ExperimentConfig& cfg) {
  std::vector<HardwareRow> rows;
  const PlatformSpec xnx = JetsonXnx();
  const PlatformSpec onx = JetsonOnx();
  const AcceleratorSim sim(cfg.accel);

  for (SceneId id : cfg.scenes) {
    const std::shared_ptr<const ScenePipeline> p =
        PipelineRepository::Global().Acquire(cfg.MakePipelineConfig(id));
    const FrameWorkload w =
        p->MeasureWorkload(cfg.tile_size, cfg.frame_width, cfg.frame_height);
    const GpuFrameWorkload gw =
        p->MeasureGpuWorkload(cfg.tile_size, cfg.frame_width, cfg.frame_height);

    HardwareRow r;
    r.scene = SceneName(id);
    r.sim = sim.SimulateFrame(w);
    r.xnx = EvaluateVqrfOnGpu(xnx, gw);
    r.onx = EvaluateVqrfOnGpu(onx, gw);
    r.speedup_vs_xnx = r.sim.fps / r.xnx.fps;
    r.speedup_vs_onx = r.sim.fps / r.onx.fps;
    const double spnerf_eff = r.sim.fps / r.sim.power.total_w;
    r.energy_eff_gain_vs_xnx = spnerf_eff / r.xnx.fps_per_watt;
    r.energy_eff_gain_vs_onx = spnerf_eff / r.onx.fps_per_watt;
    rows.push_back(r);
    SPNERF_LOG_INFO << "hw " << r.scene << ": spnerf " << r.sim.fps
                    << " fps (" << r.sim.bottleneck << "), xnx " << r.xnx.fps
                    << ", onx " << r.onx.fps;
  }
  return rows;
}

DesignReport MakeDesignReport(const ExperimentConfig& cfg,
                              const std::vector<HardwareRow>& rows) {
  SPNERF_CHECK_MSG(!rows.empty(), "design report needs hardware rows");
  DesignReport rep;
  std::vector<double> fps;
  for (const HardwareRow& r : rows) {
    fps.push_back(r.sim.fps);
    rep.mean_ledger += r.sim.ledger;
  }
  const double n = static_cast<double>(rows.size());
  rep.mean_ledger.systolic_j /= n;
  rep.mean_ledger.sram_j /= n;
  rep.mean_ledger.sgpu_logic_j /= n;
  rep.mean_ledger.dram_dynamic_j /= n;
  rep.mean_ledger.dram_background_j /= n;
  rep.mean_ledger.other_j /= n;
  rep.mean_fps = MeanOf(fps);

  rep.area = EstimateArea(cfg.accel.inventory);
  rep.power = EstimatePower(rep.mean_ledger, rep.mean_fps, rep.area);
  rep.spnerf_row = SpnerfRow(cfg.accel.inventory, rep.area, rep.power,
                             rep.mean_fps, cfg.accel.dram.name,
                             cfg.accel.dram.peak_bandwidth_gbps);
  rep.table2 = AssembleTableII(rep.spnerf_row);
  return rep;
}

}  // namespace spnerf
