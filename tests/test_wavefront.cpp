// Differential suite for the wavefront (batched) sampling path: images,
// RenderStats and DecodeCounters must be BIT-identical to the scalar
// per-ray reference for every field source, fp16 mode and worker count —
// the wavefront refactor is execution policy, never semantics. Every
// marcher takes exactly the lattice samples a brute-force oracle takes.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "grid/occupancy_octree.hpp"
#include "render/field_source.hpp"
#include "render/render_engine.hpp"
#include "render/volume_renderer.hpp"
#include "render/wavefront_kernels.hpp"
#include "scene/dataset.hpp"

namespace spnerf {
namespace {

/// Forces the SIMD dispatch path for one scope, restoring on exit.
class ScopedSimdPath {
 public:
  explicit ScopedSimdPath(simd::Path p) : saved_(simd::ActivePath()) {
    simd::SetActivePath(p);
  }
  ~ScopedSimdPath() { simd::SetActivePath(saved_); }
  ScopedSimdPath(const ScopedSimdPath&) = delete;
  ScopedSimdPath& operator=(const ScopedSimdPath&) = delete;

 private:
  simd::Path saved_;
};

/// Batch sizes the per-kernel differential suites sweep: empty, single
/// lane, width-1 / width / width+1 for both 4- and 8-lane ISAs, one and
/// two MLP blocks (kBlock = 32) and a non-multiple-of-kBlock tail.
constexpr std::size_t kTailSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 67};

void ExpectSameStats(const RenderStats& a, const RenderStats& b) {
  EXPECT_EQ(a.rays, b.rays);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.coarse_skips, b.coarse_skips);
  EXPECT_EQ(a.mlp_evals, b.mlp_evals);
  EXPECT_EQ(a.terminated_rays, b.terminated_rays);
  EXPECT_EQ(a.missed_rays, b.missed_rays);
}

void ExpectSameCounters(const DecodeCounters& a, const DecodeCounters& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.bitmap_zero, b.bitmap_zero);
  EXPECT_EQ(a.empty_slot, b.empty_slot);
  EXPECT_EQ(a.codebook_hits, b.codebook_hits);
  EXPECT_EQ(a.true_grid_hits, b.true_grid_hits);
}

void ExpectSameImage(const Image& a, const Image& b) {
  ASSERT_EQ(a.Pixels().size(), b.Pixels().size());
  for (std::size_t i = 0; i < a.Pixels().size(); ++i) {
    ASSERT_EQ(a.Pixels()[i], b.Pixels()[i]) << "pixel " << i;
  }
}

class WavefrontTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetParams p;
    p.resolution_override = 40;
    p.vqrf.codebook_size = 64;
    p.vqrf.kmeans_iterations = 2;
    dataset_ = new SceneDataset(BuildDataset(SceneId::kMic, p));
    SpNeRFParams sp;
    sp.subgrid_count = 8;
    sp.table_size = 8192;
    codec_ = new SpNeRFModel(SpNeRFModel::Preprocess(*dataset_->vqrf, sp));
    octree_ = new OccupancyOctree(OccupancyOctree::Build(
        CoarseOccupancy::Build(BitGrid::FromGrid(dataset_->full_grid), 4)));
    mlp_ = new Mlp(Mlp::Random(11));
  }

  static void TearDownTestSuite() {
    delete mlp_;
    delete octree_;
    delete codec_;
    delete dataset_;
    mlp_ = nullptr;
    octree_ = nullptr;
    codec_ = nullptr;
    dataset_ = nullptr;
  }

  /// Camera partially off-box so missed rays exercise the miss path, with
  /// a 48x48 image over 32px tiles so tiles of both partial and full size
  /// reduce.
  static Camera TestCamera() {
    return Camera({-1.2f, 0.9f, 0.4f}, {0.5f, 0.45f, 0.5f}, {0.f, 1.f, 0.f},
                  55.f, 48, 48);
  }

  /// Renders one stats-on view of `source` through the tile engine.
  static RenderResult RenderWith(const FieldSource& source, bool wavefront,
                                 bool fp16_mlp, unsigned workers,
                                 bool with_skip = true) {
    RenderJob job;
    job.source = &source;
    job.mlp = mlp_;
    job.camera = TestCamera();
    job.options.wavefront = wavefront;
    job.options.fp16_mlp = fp16_mlp;
    if (with_skip) job.options.skip = octree_;
    job.collect_stats = true;
    RenderEngineOptions opts;
    opts.max_threads = workers;
    return RenderEngine(opts).Render(job);
  }

  /// The differential matrix for one source: the scalar marcher at 1 worker
  /// is the reference for the scalar and wavefront marchers at 1/2/8
  /// workers, with the skip octree attached and fp16_mlp off and on.
  static void RunDifferential(const FieldSource& source) {
    for (const bool fp16 : {false, true}) {
      const RenderResult scalar = RenderWith(source, false, fp16, 1);
      EXPECT_GT(scalar.stats.mlp_evals, 0u);     // non-trivial view
      EXPECT_GT(scalar.stats.coarse_skips, 0u);  // skipping actually engaged
      for (const bool wavefront : {false, true}) {
        for (const unsigned workers : {1u, 2u, 8u}) {
          const RenderResult got = RenderWith(source, wavefront, fp16, workers);
          SCOPED_TRACE(std::string("fp16=") + (fp16 ? "1" : "0") +
                       " wavefront=" + (wavefront ? "1" : "0") +
                       " workers=" + std::to_string(workers));
          ExpectSameImage(scalar.image, got.image);
          ExpectSameStats(scalar.stats, got.stats);
          ExpectSameCounters(scalar.counters, got.counters);
        }
      }
    }
  }

  /// Skipping is a pure performance choice: an octree-skipped render has
  /// the pixels, MLP evals and terminations of the unskipped render (the
  /// dropped lattice points lie in empty leaf cells, whose samples carry no
  /// density); only steps, jumps and decode activity shrink.
  static void RunSkipOffDifferential(const FieldSource& source) {
    const RenderResult off = RenderWith(source, /*wavefront=*/false,
                                        /*fp16_mlp=*/false, 1,
                                        /*with_skip=*/false);
    EXPECT_GT(off.stats.mlp_evals, 0u);
    for (const bool wavefront : {false, true}) {
      const RenderResult tree =
          RenderWith(source, wavefront, /*fp16_mlp=*/false, 2);
      SCOPED_TRACE(std::string("wavefront=") + (wavefront ? "1" : "0"));
      ExpectSameImage(off.image, tree.image);
      EXPECT_EQ(off.stats.mlp_evals, tree.stats.mlp_evals);
      EXPECT_EQ(off.stats.terminated_rays, tree.stats.terminated_rays);
      EXPECT_LT(tree.stats.steps, off.stats.steps);
    }
  }

  static SceneDataset* dataset_;
  static SpNeRFModel* codec_;
  static OccupancyOctree* octree_;
  static Mlp* mlp_;
};

SceneDataset* WavefrontTest::dataset_ = nullptr;
SpNeRFModel* WavefrontTest::codec_ = nullptr;
OccupancyOctree* WavefrontTest::octree_ = nullptr;
Mlp* WavefrontTest::mlp_ = nullptr;

TEST_F(WavefrontTest, AnalyticSourceBitIdentical) {
  const AnalyticFieldSource source(dataset_->scene);
  RunDifferential(source);
}

TEST_F(WavefrontTest, GridSourceBitIdentical) {
  const GridFieldSource source(dataset_->full_grid);
  RunDifferential(source);
}

TEST_F(WavefrontTest, SpNeRFSourceBitIdentical) {
  const SpNeRFFieldSource source(*codec_);
  RunDifferential(source);
}

TEST_F(WavefrontTest, SpNeRFFp16TiuBitIdentical) {
  // The TIU path rounds interpolation weights to binary16, including its
  // own weight-flush skip test; the batched setup pass must replicate it.
  const SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/true);
  RunDifferential(source);
}

/// A zero-density source that records every position it samples, so a
/// render's sample set can be checked against the lattice oracle. Nothing
/// is ever opaque, so no ray terminates and every ray takes its whole set.
class RecordingSource final : public FieldSource {
 public:
  using FieldSource::Sample;
  [[nodiscard]] FieldSample Sample(Vec3f world) const override {
    const std::lock_guard<std::mutex> lock(mu_);
    seen_.push_back(world);
    return {};
  }
  void SampleBatch(std::span<const Vec3f> positions,
                   std::span<FieldSample> out,
                   DecodeCounters* /*counters*/) const override {
    const std::lock_guard<std::mutex> lock(mu_);
    seen_.insert(seen_.end(), positions.begin(), positions.end());
    std::fill(out.begin(), out.end(), FieldSample{});
  }
  [[nodiscard]] const char* Name() const override { return "recording"; }

  /// Every position sampled so far, sorted; clears the record.
  std::vector<Vec3f> TakeSorted() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Vec3f> out;
    out.swap(seen_);
    std::sort(out.begin(), out.end(), LessXyz);
    return out;
  }

  static bool LessXyz(Vec3f a, Vec3f b) {
    return std::tie(a.x, a.y, a.z) < std::tie(b.x, b.y, b.z);
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<Vec3f> seen_;
};

TEST_F(WavefrontTest, EveryMarcherTakesTheLatticeOracleSamples) {
  // Brute-force oracle over the test camera's rays: every lattice point
  // t_k = t_near + k * step with t_k < t_far whose point is inside the box
  // with an occupied leaf cell.
  const RenderOptions defaults;
  const Camera camera = TestCamera();
  const Aabb box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  std::vector<Vec3f> expect;
  for (int y = 0; y < camera.Height(); ++y) {
    for (int x = 0; x < camera.Width(); ++x) {
      render_detail::LatticeMarch m;
      m.ray = camera.PixelRay(x, y);
      m.step = defaults.step_size;
      if (!IntersectAabb(m.ray, box, m.t_near, m.t_far)) continue;
      for (u32 k = 0; m.T(k) < m.t_far; ++k) {
        if (octree_->Leaf().OccupiedAtWorld(m.Point(k))) {
          expect.push_back(m.Point(k));
        }
      }
    }
  }
  std::sort(expect.begin(), expect.end(), RecordingSource::LessXyz);
  ASSERT_FALSE(expect.empty());

  RecordingSource source;
  for (const bool wavefront : {false, true}) {
    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string("wavefront=") + (wavefront ? "1" : "0") +
                   " workers=" + std::to_string(workers));
      (void)RenderWith(source, wavefront, /*fp16_mlp=*/false, workers);
      const std::vector<Vec3f> got = source.TakeSorted();
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expect[i]) << "sample " << i;
      }
    }
  }
}

TEST_F(WavefrontTest, SkipOffAnalyticPixelsIdentical) {
  const AnalyticFieldSource source(dataset_->scene);
  RunSkipOffDifferential(source);
}

TEST_F(WavefrontTest, SkipOffGridPixelsIdentical) {
  const GridFieldSource source(dataset_->full_grid);
  RunSkipOffDifferential(source);
}

TEST_F(WavefrontTest, SkipOffSpNeRFPixelsIdentical) {
  const SpNeRFFieldSource source(*codec_);
  RunSkipOffDifferential(source);
}

TEST_F(WavefrontTest, NoSkipStructureBitIdentical) {
  const SpNeRFFieldSource source(*codec_);
  const RenderResult scalar = RenderWith(source, false, false, 1,
                                         /*with_skip=*/false);
  const RenderResult wave = RenderWith(source, true, false, 2,
                                       /*with_skip=*/false);
  ExpectSameImage(scalar.image, wave.image);
  ExpectSameStats(scalar.stats, wave.stats);
  ExpectSameCounters(scalar.counters, wave.counters);
}

TEST_F(WavefrontTest, SampleBatchMatchesScalarSamples) {
  // Unit-level contract: SampleBatch == a Sample loop, values and all five
  // counters, in both arithmetic modes with masking on and off. Besides
  // random (partly out-of-box) positions, the points hold exact duplicates,
  // a chain of consecutive lattice samples along one ray (shared base cells
  // and corners), coordinates exactly 0 or 1 (clamped fractions give
  // zero-weight corners), and points within 1e-4 grid units of a grid edge,
  // where the binary16 weight product flushes to zero while the float
  // product does not.
  Rng rng(3);
  std::vector<Vec3f> points;
  for (int i = 0; i < 500; ++i) {
    points.push_back({rng.Uniform(-0.1f, 1.1f), rng.Uniform(-0.1f, 1.1f),
                      rng.Uniform(-0.1f, 1.1f)});
  }
  for (std::size_t i = 0; i < 500; i += 10) points.push_back(points[i]);

  render_detail::LatticeMarch m;
  m.ray = TestCamera().PixelRay(24, 24);
  m.step = RenderOptions{}.step_size;
  ASSERT_TRUE(IntersectAabb(m.ray, Aabb{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}},
                            m.t_near, m.t_far));
  for (u32 k = 0; m.T(k) < m.t_far; ++k) points.push_back(m.Point(k));

  for (const float plane : {0.f, 1.f}) {
    for (int axis = 0; axis < 3; ++axis) {
      for (int i = 0; i < 8; ++i) {
        Vec3f p{rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
        p[axis] = plane;
        points.push_back(p);
      }
    }
  }
  points.push_back({0.f, 0.f, 0.f});
  points.push_back({1.f, 1.f, 1.f});

  // Two coordinates a signed 1e-5..1e-4 grid units off an interior vertex
  // plane, the third free: the point sits next to a grid edge.
  const GridDims& dims = codec_->Dims();
  const auto near_plane = [&rng](int n) {
    const float offset = rng.Uniform(1e-5f, 1e-4f);
    const float vertex = static_cast<float>(rng.UniformInt(1, n - 2));
    return (vertex + (rng.NextFloat() < 0.5f ? -offset : offset)) /
           static_cast<float>(n - 1);
  };
  for (int i = 0; i < 300; ++i) {
    Vec3f p{near_plane(dims.nx), near_plane(dims.ny), near_plane(dims.nz)};
    p[i % 3] = rng.NextFloat();
    points.push_back(p);
  }

  for (const bool masking : {true, false}) {
    u64 fp32_queries = 0;
    for (const bool fp16_tiu : {false, true}) {
      SCOPED_TRACE(std::string("masking=") + (masking ? "1" : "0") +
                   " fp16_tiu=" + (fp16_tiu ? "1" : "0"));
      SpNeRFFieldSource source(*codec_, fp16_tiu);
      source.SetMasking(masking);
      DecodeCounters scalar_counters, batch_counters;
      std::vector<FieldSample> expected;
      expected.reserve(points.size());
      for (const Vec3f& p : points)
        expected.push_back(source.Sample(p, &scalar_counters));
      std::vector<FieldSample> got(points.size());
      source.SampleBatch(points, got, &batch_counters);
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(expected[i].density, got[i].density) << "sample " << i;
        for (int c = 0; c < kColorFeatureDim; ++c)
          EXPECT_EQ(expected[i].features[c], got[i].features[c])
              << "sample " << i;
      }
      ExpectSameCounters(scalar_counters, batch_counters);
      if (!fp16_tiu) {
        fp32_queries = batch_counters.queries;
      } else {
        // The near-edge points really took the binary16 flush.
        EXPECT_LT(batch_counters.queries, fp32_queries);
      }
    }
  }
}

TEST_F(WavefrontTest, ForwardBatchMatchesForward) {
  Rng rng(4);
  std::vector<std::array<float, kMlpInputDim>> in(67);  // non-multiple of 32
  for (auto& sample : in)
    for (auto& v : sample) v = rng.Uniform(-1.f, 1.f);
  std::vector<Vec3f> out(in.size());
  mlp_->ForwardBatch(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(mlp_->Forward(in[i]), out[i]);
  }
  mlp_->ForwardFp16Batch(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(mlp_->ForwardFp16(in[i]), out[i]);
  }
}

// ---------------------------------------------------------------------------
// Per-kernel SIMD differential suites: every batch kernel forced to the
// scalar reference vs forced to the best host vector path must agree
// bit-for-bit at every tail size. On a scalar-only host BestSupportedPath()
// is kScalar and the comparisons are trivially (but still) exercised, so
// the suite passes everywhere.
// ---------------------------------------------------------------------------

/// Runs `batch(n)` under forced-scalar and forced-vector dispatch and
/// bit-compares the outputs (and decode counters, when produced).
void ExpectSampleBatchPathsAgree(const FieldSource& source, std::size_t n,
                                 u64 seed, bool with_counters) {
  Rng rng(seed);
  std::vector<Vec3f> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(-0.1f, 1.1f), rng.Uniform(-0.1f, 1.1f),
                      rng.Uniform(-0.1f, 1.1f)});
  }
  std::vector<FieldSample> scalar_out(n), simd_out(n);
  DecodeCounters scalar_counters, simd_counters;
  {
    const ScopedSimdPath g(simd::Path::kScalar);
    source.SampleBatch(points, scalar_out,
                       with_counters ? &scalar_counters : nullptr);
  }
  {
    const ScopedSimdPath g(simd::BestSupportedPath());
    source.SampleBatch(points, simd_out,
                       with_counters ? &simd_counters : nullptr);
  }
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("sample " + std::to_string(i) + " of " + std::to_string(n));
    EXPECT_EQ(scalar_out[i].density, simd_out[i].density);
    for (int c = 0; c < kColorFeatureDim; ++c)
      EXPECT_EQ(scalar_out[i].features[c], simd_out[i].features[c]);
  }
  if (with_counters) ExpectSameCounters(scalar_counters, simd_counters);
}

TEST_F(WavefrontTest, SimdSpnerfBlendBitIdentical) {
  for (const bool fp16_tiu : {false, true}) {
    const SpNeRFFieldSource source(*codec_, fp16_tiu);
    for (const std::size_t n : kTailSizes) {
      SCOPED_TRACE(std::string("fp16_tiu=") + (fp16_tiu ? "1" : "0") +
                   " n=" + std::to_string(n));
      ExpectSampleBatchPathsAgree(source, n, 17 + n, /*with_counters=*/true);
    }
  }
}

TEST_F(WavefrontTest, SimdGridTrilinearBitIdentical) {
  const GridFieldSource source(dataset_->full_grid);
  for (const std::size_t n : kTailSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectSampleBatchPathsAgree(source, n, 23 + n, /*with_counters=*/false);
  }
}

TEST_F(WavefrontTest, SimdForwardBatchBitIdentical) {
  Rng rng(29);
  for (const std::size_t n : kTailSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::array<float, kMlpInputDim>> in(n);
    for (auto& sample : in)
      for (auto& v : sample) v = rng.Uniform(-1.f, 1.f);
    std::vector<Vec3f> scalar_out(n), simd_out(n);
    {
      const ScopedSimdPath g(simd::Path::kScalar);
      mlp_->ForwardBatch(in, scalar_out);
    }
    {
      const ScopedSimdPath g(simd::BestSupportedPath());
      mlp_->ForwardBatch(in, simd_out);
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(scalar_out[i], simd_out[i]);
    {
      const ScopedSimdPath g(simd::Path::kScalar);
      mlp_->ForwardFp16Batch(in, scalar_out);
    }
    {
      const ScopedSimdPath g(simd::BestSupportedPath());
      mlp_->ForwardFp16Batch(in, simd_out);
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(scalar_out[i], simd_out[i]);
  }
}

TEST_F(WavefrontTest, SimdForcedPathRenderBitIdentical) {
  // End-to-end: a full wavefront render dispatched on the vector path must
  // produce the same image/stats/counters as one forced to scalar.
  const SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/true);
  RenderResult scalar_r, simd_r;
  {
    const ScopedSimdPath g(simd::Path::kScalar);
    scalar_r = RenderWith(source, /*wavefront=*/true, /*fp16_mlp=*/true, 2);
  }
  {
    const ScopedSimdPath g(simd::BestSupportedPath());
    simd_r = RenderWith(source, /*wavefront=*/true, /*fp16_mlp=*/true, 2);
  }
  ExpectSameImage(scalar_r.image, simd_r.image);
  ExpectSameStats(scalar_r.stats, simd_r.stats);
  ExpectSameCounters(scalar_r.counters, simd_r.counters);
}

TEST(SimdDispatchTest, ResolveOverrideRules) {
  // The SPNF_SIMD resolution rule is pure and exposed exactly so this test
  // can pin it without spawning subprocesses: absent/garbage -> detected
  // best; a supported name -> that path; an unsupported name -> scalar
  // (graceful degradation, never a different vector ISA).
  const simd::Path best = simd::BestSupportedPath();
  EXPECT_EQ(simd::ResolveOverride(nullptr), best);
  EXPECT_EQ(simd::ResolveOverride(""), best);
  EXPECT_EQ(simd::ResolveOverride("definitely-not-an-isa"), best);
  EXPECT_EQ(simd::ResolveOverride("scalar"), simd::Path::kScalar);
  EXPECT_EQ(simd::ResolveOverride("avx2"),
            simd::PathSupported(simd::Path::kAvx2) ? simd::Path::kAvx2
                                                   : simd::Path::kScalar);
  EXPECT_EQ(simd::ResolveOverride("neon"),
            simd::PathSupported(simd::Path::kNeon) ? simd::Path::kNeon
                                                   : simd::Path::kScalar);
  EXPECT_STREQ(simd::PathName(simd::Path::kScalar), "scalar");
  simd::Path parsed = simd::Path::kScalar;
  EXPECT_TRUE(simd::ParsePathName("avx2", parsed));
  EXPECT_EQ(parsed, simd::Path::kAvx2);
  EXPECT_FALSE(simd::ParsePathName("AVX2", parsed));  // contract: lower-case
}

TEST(SimdDispatchTest, SetActivePathDegradesGracefully) {
  const simd::Path saved = simd::ActivePath();
  // Forcing every nominal path must land on a host-runnable one; an
  // unsupported request degrades to scalar, and ActivePath reflects what
  // was actually applied.
  for (const simd::Path p :
       {simd::Path::kScalar, simd::Path::kAvx2, simd::Path::kNeon}) {
    const simd::Path applied = simd::SetActivePath(p);
    EXPECT_TRUE(simd::PathSupported(applied));
    EXPECT_EQ(applied, simd::PathSupported(p) ? p : simd::Path::kScalar);
    EXPECT_EQ(simd::ActivePath(), applied);
    // The batch entry points check only the table, never an entry: scalar
    // has no table, and every compiled table is complete.
    const wavefront::KernelTable* kt = wavefront::ForPath(p);
    if (p == simd::Path::kScalar) {
      EXPECT_EQ(kt, nullptr);
    } else if (kt != nullptr) {
      EXPECT_NE(kt->mlp_forward_fp32, nullptr);
      EXPECT_NE(kt->mlp_forward_fp16, nullptr);
      EXPECT_NE(kt->grid_trilinear, nullptr);
      EXPECT_NE(kt->spnerf_blend_fp32, nullptr);
      EXPECT_NE(kt->spnerf_blend_fp16, nullptr);
    }
  }
  simd::SetActivePath(saved);
}

}  // namespace
}  // namespace spnerf
