// Cross-scene property suite: renderer and codec invariants that must hold
// for every zoo scene (parameterized; reduced resolution for speed).
#include <gtest/gtest.h>

#include "common/ssim.hpp"
#include "core/pipeline.hpp"

namespace spnerf {
namespace {

class ScenePropertyTest : public ::testing::TestWithParam<SceneId> {
 protected:
  static PipelineConfig Config(SceneId id) {
    PipelineConfig pc;
    pc.scene_id = id;
    pc.dataset.resolution_override = 48;
    pc.dataset.vqrf.codebook_size = 128;
    pc.dataset.vqrf.kmeans_iterations = 3;
    pc.spnerf.subgrid_count = 16;
    pc.spnerf.table_size = 8192;
    return pc;
  }
};

TEST_P(ScenePropertyTest, EndToEndInvariants) {
  const ScenePipeline p = ScenePipeline::Build(Config(GetParam()));
  const Camera cam = p.MakeCamera(32, 32);

  const Image gt = p.RenderGroundTruth(cam);
  const Image vqrf = p.RenderVqrf(cam);
  const Image pre = p.RenderSpnerf(cam, false);
  const Image post = p.RenderSpnerf(cam, true);

  // 1. All pixel values are finite and inside [0, 1] (sigmoid colors
  //    composited over a [0,1] background with weights summing <= 1).
  for (const Image* img : {&gt, &vqrf, &pre, &post}) {
    for (const Vec3f& px : img->Pixels()) {
      for (int c = 0; c < 3; ++c) {
        ASSERT_TRUE(std::isfinite(px[c]));
        ASSERT_GE(px[c], -1e-4f);
        ASSERT_LE(px[c], 1.0001f);
      }
    }
  }

  // 2. Quality ordering: masked decode is at least as good as unmasked
  //    (strictly better whenever any slot collides), and VQRF is the
  //    upper envelope of the hash pipeline's accuracy.
  const double psnr_vqrf = Psnr(gt, vqrf);
  const double psnr_pre = Psnr(gt, pre);
  const double psnr_post = Psnr(gt, post);
  EXPECT_GE(psnr_post, psnr_pre - 1e-9) << SceneName(GetParam());
  EXPECT_GE(psnr_vqrf, psnr_post - 2.0) << SceneName(GetParam());

  // 3. SSIM agrees with the PSNR ordering on the masked-vs-unmasked gap.
  EXPECT_GE(Ssim(gt, post), Ssim(gt, pre) - 1e-9);

  // 4. The scene must actually appear in frame (not all background).
  int fg = 0;
  for (const Vec3f& px : gt.Pixels()) {
    if ((px - Vec3f{1.f, 1.f, 1.f}).Norm() > 0.05f) ++fg;
  }
  EXPECT_GT(fg, 16) << SceneName(GetParam());
}

TEST_P(ScenePropertyTest, WorkloadSanity) {
  const ScenePipeline p = ScenePipeline::Build(Config(GetParam()));
  const FrameWorkload w = p.MeasureWorkload(24, 800, 800);
  // Empty-space skipping keeps the per-ray sample count far below the
  // unskipped march length (the box diagonal over the step size ~ 570).
  const double steps_per_ray =
      static_cast<double>(w.samples) / static_cast<double>(w.rays);
  EXPECT_LT(steps_per_ray, 200.0) << SceneName(GetParam());
  // Every scene produces MLP work and hits both payload stores.
  EXPECT_GT(w.mlp_evals, 0u);
  EXPECT_GT(w.codebook_frac, 0.0);
  EXPECT_GT(w.true_grid_frac, 0.0);
  // 18-bit budget holds at paper scale for every scene (checked in the
  // codec, re-asserted here for the default keep fraction).
  EXPECT_LE(p.Dataset().vqrf->KeptCount(),
            kUnifiedIndexSpace - 4096ull);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, ScenePropertyTest,
                         ::testing::ValuesIn(AllScenes()),
                         [](const ::testing::TestParamInfo<SceneId>& info) {
                           return std::string(SceneName(info.param));
                         });

}  // namespace
}  // namespace spnerf
