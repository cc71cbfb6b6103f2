// Extension study: two-choice tagged hashing vs the paper's single-probe
// table, at equal hash-table memory. The baseline's non-zero/non-zero
// collisions alias silently (wrong color/density survives masking); the
// two-choice variant converts almost all of that error mass into explicit
// dropouts and small tag-collision residue, at the cost of a second probe.
#include <algorithm>

#include "bench/bench_util.hpp"
#include "common/ssim.hpp"
#include "core/pipeline.hpp"
#include "encoding/two_choice.hpp"
#include "render/field_source.hpp"

int main(int argc, char** argv) {
  using namespace spnerf;
  ExperimentConfig cfg = bench::MakeConfig(argc, argv);
  const Config c = Config::FromArgs(argc, argv);
  if (!c.Has("scenes")) cfg.scenes = {SceneId::kChair, SceneId::kShip};

  bench::PrintHeader("Extension", "two-choice tagged hashing vs single probe");
  bench::JsonReport json("ext_two_choice");
  std::printf("load regime: T chosen small (4k entries/subgrid) so collisions"
              " are frequent;\ntwo-choice uses 26/32 of the entries for equal"
              " table memory.\n\n");
  std::printf("%-10s %-12s %10s %10s %10s %10s %10s\n", "scene", "codec",
              "wrong", "dropped", "PSNR", "SSIM", "tbl mem");
  bench::PrintRule();

  for (SceneId id : cfg.scenes) {
    PipelineConfig pc = cfg.MakePipelineConfig(id);
    pc.spnerf.table_size = 4096;
    const std::shared_ptr<const ScenePipeline> p =
        PipelineRepository::Global().Acquire(pc);
    const VqrfModel& vqrf = *p->Dataset().vqrf;
    const Camera cam = p->MakeCamera(cfg.psnr_image_size, cfg.psnr_image_size);
    const Image gt = p->RenderGroundTruth(cam);

    // Baseline: the paper's codec at T=4096.
    {
      const Image img = p->RenderSpnerf(cam, /*bitmap_masking=*/true);
      std::printf("%-10s %-12s %9.2f%% %10s %9.2f %9.4f %10s\n", SceneName(id),
                  "single", p->Codec().NonZeroAliasRate() * 100.0, "-",
                  Psnr(gt, img), Ssim(gt, img),
                  FormatBytes(p->Codec().HashTableBytes()).c_str());
    }
    // Extension at equal memory.
    {
      const u32 entries = 4096u * 26 / 32;
      const TwoChoiceCodec ext = TwoChoiceCodec::Preprocess(
          vqrf, pc.spnerf.subgrid_count, entries);
      const CodecFieldSource<TwoChoiceCodec> src(ext);
      const Image img = VolumeRenderer(p->RenderOptionsWithSkip())
                            .Render(src, p->GetMlp(), cam);
      std::printf("%-10s %-12s %9.2f%% %9.2f%% %9.2f %9.4f %10s\n",
                  SceneName(id), "two-choice", ext.ErrorRate() * 100.0,
                  ext.DropRate() * 100.0, Psnr(gt, img), Ssim(gt, img),
                  FormatBytes(ext.HashTableBytes()).c_str());
    }
  }
  bench::PrintRule();
  std::printf("hardware cost: +6 tag bits per entry (already charged above) "
              "and a second HMU probe per lookup\n");
  bench::AddBuildTimings(json);
  return 0;
}
