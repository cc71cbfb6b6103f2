#include "render/field_source.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "scene/dataset.hpp"

namespace spnerf {
namespace {

class FieldSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams p;
    p.resolution_override = 48;
    p.vqrf.codebook_size = 128;
    p.vqrf.kmeans_iterations = 3;
    dataset_ = BuildDataset(SceneId::kMaterials, p);
    SpNeRFParams sp;
    sp.subgrid_count = 8;
    sp.table_size = 32768;  // collision-free at this scale
    codec_ = SpNeRFModel::Preprocess(*dataset_.vqrf, sp);
    restored_ = dataset_.vqrf->Restore();
  }

  SceneDataset dataset_;
  SpNeRFModel codec_;
  DenseGrid restored_;
};

TEST_F(FieldSourceTest, AnalyticMatchesScene) {
  const AnalyticFieldSource src(dataset_.scene);
  const Vec3f p{0.41f, 0.40f, 0.52f};
  const FieldSample s = src.Sample(p);
  EXPECT_EQ(s.density, dataset_.scene.Density(p));
}

TEST_F(FieldSourceTest, GridSourceExactAtVertices) {
  const GridFieldSource src(dataset_.full_grid);
  const GridDims& dims = dataset_.full_grid.Dims();
  // At exact vertex positions, trilinear interpolation returns the vertex.
  for (VoxelIndex i = 0; i < dims.VoxelCount(); i += 1117) {
    const Vec3i v = dims.Unflatten(i);
    if (v.x + 1 >= dims.nx || v.y + 1 >= dims.ny || v.z + 1 >= dims.nz)
      continue;
    const Vec3f p = VoxelVertexPosition(dims, v);
    const FieldSample s = src.Sample(p);
    EXPECT_NEAR(s.density, dataset_.full_grid.Density(i), 1e-4f);
  }
}

TEST_F(FieldSourceTest, GridSourceInterpolatesLinearly) {
  // Build a 2-vertex gradient grid and check the midpoint.
  DenseGrid g({2, 2, 2});
  for (int corner = 0; corner < 8; ++corner) {
    VoxelData v;
    v.density = (corner & 1) ? 10.f : 0.f;  // varies along x only
    v.features[0] = v.density;
    g.SetVoxel({corner & 1, (corner >> 1) & 1, (corner >> 2) & 1}, v);
  }
  const GridFieldSource src(g);
  EXPECT_NEAR(src.Sample({0.5f, 0.5f, 0.5f}).density, 5.f, 1e-5f);
  EXPECT_NEAR(src.Sample({0.25f, 0.1f, 0.9f}).density, 2.5f, 1e-5f);
  EXPECT_NEAR(src.Sample({0.25f, 0.5f, 0.5f}).features[0], 2.5f, 1e-5f);
}

TEST_F(FieldSourceTest, OutOfRangeSamplesAreZero) {
  const GridFieldSource grid_src(restored_);
  const SpNeRFFieldSource sp_src(codec_);
  for (const Vec3f p : {Vec3f{-0.1f, 0.5f, 0.5f}, Vec3f{0.5f, 1.2f, 0.5f}}) {
    EXPECT_EQ(grid_src.Sample(p).density, 0.f);
    EXPECT_EQ(sp_src.Sample(p).density, 0.f);
  }
}

TEST_F(FieldSourceTest, SpnerfMatchesRestoredGridWhenCollisionFree) {
  // With a collision-free table, the online-decode source and the restored
  // grid source are the same function.
  ASSERT_EQ(codec_.AggregateBuildStats().collisions, 0u);
  const GridFieldSource grid_src(restored_);
  const SpNeRFFieldSource sp_src(codec_);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const Vec3f p{rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
    const FieldSample a = grid_src.Sample(p);
    const FieldSample b = sp_src.Sample(p);
    ASSERT_NEAR(a.density, b.density, 1e-4f) << p;
    for (int c = 0; c < kColorFeatureDim; ++c) {
      ASSERT_NEAR(a.features[c], b.features[c], 1e-4f) << p;
    }
  }
}

TEST_F(FieldSourceTest, CountersTrackVertexDecodes) {
  const SpNeRFFieldSource src(codec_);
  DecodeCounters counters;
  Rng rng(6);
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    (void)src.Sample({rng.NextFloat(), rng.NextFloat(), rng.NextFloat()},
                     &counters);
  }
  // Up to 8 vertex decodes per in-range sample (corners with zero weight
  // are skipped).
  EXPECT_GT(counters.queries, 0u);
  EXPECT_LE(counters.queries, static_cast<u64>(n) * 8);
}

TEST_F(FieldSourceTest, MaskingToggleChangesZeroRegions) {
  // Rebuild with a crowded table so unmasked reads alias.
  SpNeRFParams sp;
  sp.subgrid_count = 4;
  sp.table_size = 64;
  const SpNeRFModel crowded = SpNeRFModel::Preprocess(*dataset_.vqrf, sp);
  SpNeRFFieldSource masked(crowded);
  masked.SetMasking(true);
  SpNeRFFieldSource unmasked(crowded);
  unmasked.SetMasking(false);
  // Find an empty-space point: masked density 0, unmasked likely garbage.
  u64 diffs = 0;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Vec3f p{rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
    const float dm = masked.Sample(p).density;
    const float du = unmasked.Sample(p).density;
    if (dm != du) ++diffs;
  }
  EXPECT_GT(diffs, 100u);
}

TEST_F(FieldSourceTest, Fp16TiuCloseToFp32) {
  const SpNeRFFieldSource fp32(codec_, /*fp16_tiu=*/false);
  const SpNeRFFieldSource fp16(codec_, /*fp16_tiu=*/true);
  Rng rng(8);
  double max_rel = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const Vec3f p{rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
    const FieldSample a = fp32.Sample(p);
    const FieldSample b = fp16.Sample(p);
    if (std::fabs(a.density) > 1.0f) {
      max_rel = std::max(max_rel, static_cast<double>(std::fabs(a.density - b.density) /
                                                      std::fabs(a.density)));
    }
  }
  EXPECT_LT(max_rel, 0.01);  // 8-term FP16 accumulation: ~2^-11 x 8
}

TEST_F(FieldSourceTest, TrilinearWeightsSumToOne) {
  // Constant grid: interpolation must return the constant everywhere
  // strictly inside (Eq. 2 weights sum to 1).
  DenseGrid g({4, 4, 4});
  for (VoxelIndex i = 0; i < g.VoxelCount(); ++i) g.SetDensity(i, 3.5f);
  const GridFieldSource src(g);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const Vec3f p{rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
    EXPECT_NEAR(src.Sample(p).density, 3.5f, 1e-4f);
  }
}

}  // namespace
}  // namespace spnerf
