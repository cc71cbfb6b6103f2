// End-to-end pipeline tests at reduced scale: scene -> grid -> VQRF ->
// SpNeRF preprocessing -> rendering through all three paths.
#include "core/pipeline.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace spnerf {
namespace {

PipelineConfig SmallConfig(SceneId id = SceneId::kMaterials) {
  PipelineConfig pc;
  pc.scene_id = id;
  pc.dataset.resolution_override = 56;
  pc.dataset.vqrf.codebook_size = 256;
  pc.dataset.vqrf.kmeans_iterations = 4;
  pc.spnerf.subgrid_count = 16;
  pc.spnerf.table_size = 8192;
  return pc;
}

class PipelineIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new ScenePipeline(ScenePipeline::Build(SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static ScenePipeline* pipeline_;
};

ScenePipeline* PipelineIntegration::pipeline_ = nullptr;

TEST_F(PipelineIntegration, BuildWiresEverything) {
  EXPECT_EQ(pipeline_->Dataset().id, SceneId::kMaterials);
  EXPECT_EQ(pipeline_->Codec().Dims(), pipeline_->Dataset().full_grid.Dims());
  EXPECT_EQ(pipeline_->Codec().Params().subgrid_count, 16);
  EXPECT_GT(pipeline_->Skip().Leaf().Bits().CountSet(), 0u);
}

TEST_F(PipelineIntegration, VqrfRenderCloseToGroundTruth) {
  const Camera cam = pipeline_->MakeCamera(48, 48);
  const Image gt = pipeline_->RenderGroundTruth(cam);
  const Image vqrf = pipeline_->RenderVqrf(cam);
  const double psnr = Psnr(gt, vqrf);
  EXPECT_GT(psnr, 22.0);  // lossy but recognisable
  EXPECT_LT(psnr, 60.0);  // and genuinely lossy
}

TEST_F(PipelineIntegration, MaskedSpnerfTracksVqrf) {
  // The paper's central accuracy claim at small scale: SpNeRF with bitmap
  // masking is close to VQRF; without it, quality collapses.
  const Camera cam = pipeline_->MakeCamera(48, 48);
  const Image gt = pipeline_->RenderGroundTruth(cam);
  const Image vqrf = pipeline_->RenderVqrf(cam);
  const Image post = pipeline_->RenderSpnerf(cam, true);
  const Image pre = pipeline_->RenderSpnerf(cam, false);

  const double vqrf_psnr = Psnr(gt, vqrf);
  const double post_psnr = Psnr(gt, post);
  const double pre_psnr = Psnr(gt, pre);

  EXPECT_GT(post_psnr, vqrf_psnr - 3.0);  // comparable to VQRF
  EXPECT_LT(pre_psnr, post_psnr - 5.0);   // masking is load-bearing
}

TEST_F(PipelineIntegration, RendersAreDeterministic) {
  const Camera cam = pipeline_->MakeCamera(24, 24);
  const Image a = pipeline_->RenderSpnerf(cam, true);
  const Image b = pipeline_->RenderSpnerf(cam, true);
  EXPECT_EQ(Mse(a, b), 0.0);
}

TEST_F(PipelineIntegration, WorkloadMeasurementConsistent) {
  const FrameWorkload w = pipeline_->MeasureWorkload(24, 400, 400);
  EXPECT_EQ(w.rays, 160000u);
  EXPECT_GT(w.samples, w.mlp_evals);
  EXPECT_EQ(w.scene, "materials");
  // The decode mix reflects masked traversal: most vertex lookups are
  // resolved by the bitmap (empty space around objects).
  EXPECT_GT(w.bitmap_zero_frac, 0.2);
}

TEST_F(PipelineIntegration, DifferentViewsDiffer) {
  const Camera v0 = pipeline_->MakeCamera(24, 24, 0);
  const Camera v3 = pipeline_->MakeCamera(24, 24, 3);
  const Image a = pipeline_->RenderSpnerf(v0, true);
  const Image b = pipeline_->RenderSpnerf(v3, true);
  EXPECT_GT(Mse(a, b), 1e-5);
}

TEST_F(PipelineIntegration, CountersReturnedToCaller) {
  const Camera cam = pipeline_->MakeCamera(16, 16);
  RenderStats stats;
  DecodeCounters counters;
  (void)pipeline_->RenderSpnerf(cam, true, &stats, &counters);
  EXPECT_GT(stats.rays, 0u);
  EXPECT_GT(counters.queries, 0u);
  // 8 vertex decodes per fine sample at most.
  EXPECT_LE(counters.queries, stats.steps * 8);
}

TEST(PipelineSmoke, FicusSmallResolution) {
  // A second scene end-to-end, exercising non-cubic-resolution defaults.
  PipelineConfig pc = SmallConfig(SceneId::kFicus);
  pc.dataset.resolution_override = 48;
  const ScenePipeline p = ScenePipeline::Build(pc);
  const Camera cam = p.MakeCamera(32, 32);
  const Image img = p.RenderSpnerf(cam, true);
  // The render must contain both object and background pixels.
  int bg = 0, fg = 0;
  for (const Vec3f& px : img.Pixels()) {
    if ((px - Vec3f{1.f, 1.f, 1.f}).Norm() < 1e-3f) {
      ++bg;
    } else {
      ++fg;
    }
  }
  EXPECT_GT(bg, 0);
  EXPECT_GT(fg, 0);
}

}  // namespace
}  // namespace spnerf
