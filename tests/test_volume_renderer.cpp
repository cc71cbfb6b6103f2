#include "render/volume_renderer.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "render/embedding.hpp"
#include "scene/dataset.hpp"

namespace spnerf {
namespace {

/// A source that is empty everywhere.
class EmptySource final : public FieldSource {
 public:
  [[nodiscard]] FieldSample Sample(Vec3f) const override { return {}; }
  [[nodiscard]] const char* Name() const override { return "empty"; }
};

/// A constant-density slab between two x planes.
class SlabSource final : public FieldSource {
 public:
  SlabSource(float x0, float x1, float sigma, float feature)
      : x0_(x0), x1_(x1), sigma_(sigma), feature_(feature) {}
  [[nodiscard]] FieldSample Sample(Vec3f p) const override {
    FieldSample s;
    if (p.x >= x0_ && p.x <= x1_) {
      s.density = sigma_;
      s.features.fill(feature_);
    }
    return s;
  }
  [[nodiscard]] const char* Name() const override { return "slab"; }

 private:
  float x0_, x1_, sigma_, feature_;
};

Camera FrontCamera(int size = 9) {
  return Camera({-1.5f, 0.5f, 0.5f}, {0.5f, 0.5f, 0.5f}, {0.f, 1.f, 0.f},
                30.f, size, size);
}

TEST(VolumeRenderer, EmptySceneRendersBackground) {
  const EmptySource src;
  const Mlp mlp = Mlp::Random(1);
  RenderOptions opt;
  opt.background = {0.2f, 0.4f, 0.6f};
  RenderStats stats;
  const Image img =
      VolumeRenderer(opt).Render(src, mlp, FrontCamera(), &stats);
  for (const Vec3f& p : img.Pixels()) {
    EXPECT_EQ(p, (Vec3f{0.2f, 0.4f, 0.6f}));
  }
  EXPECT_EQ(stats.mlp_evals, 0u);
  EXPECT_GT(stats.steps, 0u);  // it did march
}

TEST(VolumeRenderer, MissedRaysCountAndStayBackground) {
  const EmptySource src;
  const Mlp mlp = Mlp::Random(1);
  // Camera looking away from the scene box.
  const Camera cam({-1.5f, 0.5f, 0.5f}, {-3.f, 0.5f, 0.5f}, {0.f, 1.f, 0.f},
                   30.f, 4, 4);
  RenderStats stats;
  const Image img = VolumeRenderer(RenderOptions{}).Render(src, mlp, cam, &stats);
  EXPECT_EQ(stats.missed_rays, 16u);
  for (const Vec3f& p : img.Pixels()) EXPECT_EQ(p, (Vec3f{1.f, 1.f, 1.f}));
}

TEST(VolumeRenderer, OpaqueSlabHidesBackground) {
  const SlabSource src(0.4f, 0.6f, 1e4f, 0.3f);
  const Mlp mlp = Mlp::Random(2);
  RenderOptions opt;
  opt.background = {1.f, 1.f, 1.f};
  RenderStats stats;
  const Image img =
      VolumeRenderer(opt).Render(src, mlp, FrontCamera(), &stats);
  // Center ray passes through the slab: the color must be the MLP's output,
  // not the background (transmittance ~ 0).
  const Vec3f center = img.At(4, 4);
  const ViewEmbedding view = EmbedViewDirection({1.f, 0.f, 0.f});
  std::array<float, kColorFeatureDim> feat{};
  feat.fill(0.3f);
  const Vec3f mlp_color = mlp.Forward(AssembleMlpInput(feat, view));
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(center[c], mlp_color[c], 0.02f);
  EXPECT_GT(stats.terminated_rays, 0u);
}

TEST(VolumeRenderer, ThinSlabBlendsWithBackground) {
  // Low optical depth: color = w * mlp + (1-w) * background with 0 < w < 1.
  const SlabSource src(0.45f, 0.55f, 8.f, 0.1f);
  const Mlp mlp = Mlp::Random(3);
  RenderOptions opt;
  opt.background = {1.f, 1.f, 1.f};
  const Image img = VolumeRenderer(opt).Render(src, mlp, FrontCamera());
  const Vec3f center = img.At(4, 4);
  // Optical depth = 8 * 0.1 = 0.8 -> transmittance ~ e^-0.8 ~ 0.45.
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(center[c], 0.2f);
    EXPECT_LT(center[c], 1.0f);
  }
}

TEST(VolumeRenderer, TransmittanceMatchesBeerLambert) {
  // Pure-absorption check using a black MLP-independent measurement: render
  // with background=1 and compare the slab's attenuation against e^-sigma*L.
  const float sigma = 20.f;
  const SlabSource src(0.3f, 0.7f, sigma, 0.0f);
  const Mlp mlp = Mlp::Random(4);
  RenderOptions opt;
  opt.background = {1.f, 1.f, 1.f};
  opt.step_size = 0.001f;
  opt.alpha_threshold = 0.0f;
  opt.termination_transmittance = 0.0f;
  const Image img = VolumeRenderer(opt).Render(src, mlp, FrontCamera());
  const Vec3f center = img.At(4, 4);
  const float expected_T = std::exp(-sigma * 0.4f);
  // Measured color = sum(w_i * mlp) + T * 1. The mlp part is some constant
  // c0 in [0,1]; we can bound: center >= T and center <= (1-T) + T.
  for (int c = 0; c < 3; ++c) {
    EXPECT_GE(center[c], expected_T * 0.9f);
  }
}

TEST(VolumeRenderer, AlphaThresholdSkipsMlp) {
  const SlabSource src(0.4f, 0.6f, 0.5f, 0.2f);  // very faint
  const Mlp mlp = Mlp::Random(5);
  RenderOptions opt;
  opt.alpha_threshold = 0.9f;  // nothing passes
  RenderStats stats;
  (void)VolumeRenderer(opt).Render(src, mlp, FrontCamera(), &stats);
  EXPECT_EQ(stats.mlp_evals, 0u);
}

TEST(VolumeRenderer, EarlyTerminationReducesSteps) {
  const SlabSource src(0.2f, 0.9f, 1e4f, 0.1f);
  const Mlp mlp = Mlp::Random(6);
  RenderOptions keep_going;
  keep_going.termination_transmittance = 0.f;
  RenderOptions stop_early;
  stop_early.termination_transmittance = 0.1f;
  RenderStats a, b;
  (void)VolumeRenderer(keep_going).Render(src, mlp, FrontCamera(), &a);
  (void)VolumeRenderer(stop_early).Render(src, mlp, FrontCamera(), &b);
  EXPECT_LT(b.mlp_evals, a.mlp_evals);
  EXPECT_GT(b.terminated_rays, 0u);
}

TEST(VolumeRenderer, CoarseSkipPreservesImage) {
  // Render a real scene with and without empty-space skipping. Both sample
  // each ray's lattice t_near + k * step; skipping only drops the points in
  // empty (dilated) leaf cells, whose trilinear stencils hold no density.
  // So pixels, MLP evals and terminations are equal with and without the
  // octree, while steps drop substantially.
  DatasetParams dp;
  dp.resolution_override = 48;
  dp.vqrf.codebook_size = 64;
  dp.vqrf.kmeans_iterations = 2;
  const SceneDataset ds = BuildDataset(SceneId::kMic, dp);
  const GridFieldSource src(ds.full_grid);
  const Mlp mlp = Mlp::Random(7);
  const OccupancyOctree tree = OccupancyOctree::Build(
      CoarseOccupancy::Build(BitGrid::FromGrid(ds.full_grid), 4));

  const Camera cam({-0.8f, 0.6f, 0.5f}, {0.5f, 0.4f, 0.5f}, {0.f, 1.f, 0.f},
                   40.f, 24, 24);
  RenderOptions no_skip;
  RenderStats a;
  const Image img_a = VolumeRenderer(no_skip).Render(src, mlp, cam, &a);
  EXPECT_GT(a.mlp_evals, 0u);
  RenderOptions with_skip;
  with_skip.skip = &tree;
  RenderStats b;
  const Image img_b = VolumeRenderer(with_skip).Render(src, mlp, cam, &b);
  EXPECT_LT(b.steps, a.steps / 2);
  EXPECT_GT(b.coarse_skips, 0u);
  EXPECT_EQ(img_a.Pixels(), img_b.Pixels());
  EXPECT_EQ(a.mlp_evals, b.mlp_evals);
  EXPECT_EQ(a.terminated_rays, b.terminated_rays);
}

TEST(VolumeRenderer, StatsCountEveryRay) {
  const SlabSource src(0.4f, 0.6f, 100.f, 0.2f);
  const Mlp mlp = Mlp::Random(8);
  RenderStats stats;
  (void)VolumeRenderer(RenderOptions{}).Render(src, mlp, FrontCamera(5), &stats);
  EXPECT_EQ(stats.rays, 25u);
  EXPECT_LE(stats.missed_rays, stats.rays);
  EXPECT_GT(stats.steps, 0u);
  EXPECT_LE(stats.mlp_evals, stats.steps);
}

TEST(VolumeRenderer, ParallelStatlessMatchesSequential) {
  const SlabSource src(0.3f, 0.7f, 50.f, 0.4f);
  const Mlp mlp = Mlp::Random(9);
  const Camera cam = FrontCamera(16);
  RenderStats stats;
  const Image seq = VolumeRenderer(RenderOptions{}).Render(src, mlp, cam, &stats);
  const Image par = VolumeRenderer(RenderOptions{}).Render(src, mlp, cam, nullptr);
  ASSERT_EQ(seq.Pixels().size(), par.Pixels().size());
  for (std::size_t i = 0; i < seq.Pixels().size(); ++i) {
    EXPECT_EQ(seq.Pixels()[i], par.Pixels()[i]);
  }
}

TEST(VolumeRenderer, Fp16MlpOptionChangesOutputSlightly) {
  const SlabSource src(0.4f, 0.6f, 100.f, 0.3f);
  const Mlp mlp = Mlp::Random(10);
  RenderOptions fp32_opt;
  RenderOptions fp16_opt;
  fp16_opt.fp16_mlp = true;
  const Image a = VolumeRenderer(fp32_opt).Render(src, mlp, FrontCamera());
  const Image b = VolumeRenderer(fp16_opt).Render(src, mlp, FrontCamera());
  EXPECT_GT(Psnr(a, b), 35.0);          // close
  EXPECT_FALSE(std::isinf(Psnr(a, b)));  // but not identical
}

}  // namespace
}  // namespace spnerf
