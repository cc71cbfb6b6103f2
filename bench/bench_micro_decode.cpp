// Micro-benchmarks (google-benchmark): per-operation throughput of the
// software components — spatial hash, online decode, trilinear sampling
// (scalar and batched), MLP forward (FP32/FP16, scalar and batched), and
// the sparse-format lookups. After the google-benchmark suite, a hand-timed
// section writes scalar-vs-batched decode entries (and their throughput
// ratio) to BENCH_micro_decode.json via bench_util.
#include <benchmark/benchmark.h>

#include "assets/asset_cache.hpp"
#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "encoding/sparse_formats.hpp"
#include "encoding/spnerf_codec.hpp"
#include "render/embedding.hpp"
#include "render/field_source.hpp"
#include "render/mlp.hpp"
#include "render/render_engine.hpp"
#include "scene/dataset.hpp"

namespace spnerf {
namespace {

/// Shared fixture data built once (48^3 materials scene).
struct MicroData {
  std::shared_ptr<const SceneDataset> dataset;
  SpNeRFModel codec;
  CooGrid coo;
  CsrGrid csr;
  CscGrid csc;
  Mlp mlp;

  MicroData() {
    DatasetParams dp;
    dp.resolution_override = 48;
    dp.vqrf.codebook_size = 256;
    dp.vqrf.kmeans_iterations = 3;
    dataset = AssetCache::Global().AcquireDataset(SceneId::kMaterials, dp);
    SpNeRFParams sp;
    sp.subgrid_count = 16;
    sp.table_size = 8192;
    codec = SpNeRFModel::Preprocess(*dataset->vqrf, sp);
    coo = CooGrid::Build(*dataset->vqrf);
    csr = CsrGrid::Build(*dataset->vqrf);
    csc = CscGrid::Build(*dataset->vqrf);
    mlp = Mlp::Random(1);
  }
};

MicroData& Data() {
  static MicroData data;
  return data;
}

void BM_SpatialHash(benchmark::State& state) {
  Rng rng(1);
  Vec3i p{rng.UniformInt(0, 255), rng.UniformInt(0, 255),
          rng.UniformInt(0, 255)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpatialHash(p, 32768));
    p.x = (p.x + 1) & 255;
  }
}
BENCHMARK(BM_SpatialHash);

void BM_OnlineDecode(benchmark::State& state) {
  MicroData& d = Data();
  Rng rng(2);
  const GridDims& dims = d.codec.Dims();
  std::vector<Vec3i> points;
  for (int i = 0; i < 4096; ++i) {
    points.push_back({rng.UniformInt(0, dims.nx - 1),
                      rng.UniformInt(0, dims.ny - 1),
                      rng.UniformInt(0, dims.nz - 1)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.codec.Decode(points[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_OnlineDecode);

void BM_TrilinearSampleSpnerf(benchmark::State& state) {
  MicroData& d = Data();
  const SpNeRFFieldSource src(d.codec);
  Rng rng(3);
  std::vector<Vec3f> points;
  for (int i = 0; i < 4096; ++i) {
    points.push_back({rng.NextFloat(), rng.NextFloat(), rng.NextFloat()});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.Sample(points[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_TrilinearSampleSpnerf);

/// A wavefront-shaped front: samples of adjacent rays at one march depth —
/// a jittered 32x32 patch spanning ~0.2 of the volume. It times the batch
/// path, not a render: its samples share corner vertices, while the fronts
/// of rendered 16²–64² frames reference each vertex only 1.00–1.05 times.
std::vector<Vec3f> CoherentFront(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<Vec3f> points;
  points.reserve(n);
  const std::size_t side = 32;
  for (std::size_t i = 0; i < n; ++i) {
    const float u = static_cast<float>(i % side) / static_cast<float>(side);
    const float v = static_cast<float>((i / side) % side) /
                    static_cast<float>(side);
    points.push_back({0.4f + 0.2f * u + 0.004f * rng.NextFloat(),
                      0.4f + 0.2f * v + 0.004f * rng.NextFloat(),
                      0.45f + 0.1f * rng.NextFloat()});
  }
  return points;
}

void BM_SampleBatchSpnerf(benchmark::State& state) {
  MicroData& d = Data();
  const SpNeRFFieldSource src(d.codec);
  const std::vector<Vec3f> points = CoherentFront(1024, 8);
  std::vector<FieldSample> out(points.size());
  for (auto _ : state) {
    src.SampleBatch(points, out, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_SampleBatchSpnerf);

void BM_SampleBatchDense(benchmark::State& state) {
  MicroData& d = Data();
  const GridFieldSource src(d.dataset->full_grid);
  const std::vector<Vec3f> points = CoherentFront(1024, 9);
  std::vector<FieldSample> out(points.size());
  for (auto _ : state) {
    src.SampleBatch(points, out, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_SampleBatchDense);

void BM_TrilinearSampleDense(benchmark::State& state) {
  MicroData& d = Data();
  const GridFieldSource src(d.dataset->full_grid);
  Rng rng(4);
  std::vector<Vec3f> points;
  for (int i = 0; i < 4096; ++i) {
    points.push_back({rng.NextFloat(), rng.NextFloat(), rng.NextFloat()});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.Sample(points[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_TrilinearSampleDense);

void BM_MlpForwardFp32(benchmark::State& state) {
  MicroData& d = Data();
  Rng rng(5);
  std::array<float, kMlpInputDim> in{};
  for (auto& v : in) v = rng.Uniform(-1.f, 1.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.mlp.Forward(in));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(Mlp::MacsPerSample()));
}
BENCHMARK(BM_MlpForwardFp32);

void BM_MlpForwardFp16(benchmark::State& state) {
  MicroData& d = Data();
  Rng rng(6);
  std::array<float, kMlpInputDim> in{};
  for (auto& v : in) v = rng.Uniform(-1.f, 1.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.mlp.ForwardFp16(in));
  }
}
BENCHMARK(BM_MlpForwardFp16);

void BM_MlpForwardBatchFp32(benchmark::State& state) {
  MicroData& d = Data();
  Rng rng(6);
  std::vector<std::array<float, kMlpInputDim>> in(256);
  for (auto& sample : in)
    for (auto& v : sample) v = rng.Uniform(-1.f, 1.f);
  std::vector<Vec3f> out(in.size());
  for (auto _ : state) {
    d.mlp.ForwardBatch(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.size()) *
                          static_cast<int64_t>(Mlp::MacsPerSample()));
}
BENCHMARK(BM_MlpForwardBatchFp32);

/// Whole-tile render through the engine, stats on — the end-to-end hot path
/// the refactor parallelised. Sweeps the worker count.
void BM_RenderEngineTile(benchmark::State& state) {
  MicroData& d = Data();
  const SpNeRFFieldSource src(d.codec);
  RenderJob job;
  job.source = &src;
  job.mlp = &d.mlp;
  job.camera = Camera({-1.4f, 0.6f, 0.5f}, {0.5f, 0.45f, 0.5f},
                      {0.f, 1.f, 0.f}, 35.f, 64, 64);
  job.collect_stats = true;
  RenderEngineOptions opts;
  opts.max_threads = static_cast<unsigned>(state.range(0));
  const RenderEngine engine(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Render(job));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_RenderEngineTile)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ViewEmbedding(benchmark::State& state) {
  const Vec3f dir = Vec3f{0.3f, -0.5f, 0.8f}.Normalized();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmbedViewDirection(dir));
  }
}
BENCHMARK(BM_ViewEmbedding);

template <typename GridT>
void LookupLoop(benchmark::State& state, const GridT& grid,
                const GridDims& dims) {
  Rng rng(7);
  std::vector<Vec3i> points;
  for (int i = 0; i < 4096; ++i) {
    points.push_back({rng.UniformInt(0, dims.nx - 1),
                      rng.UniformInt(0, dims.ny - 1),
                      rng.UniformInt(0, dims.nz - 1)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.Lookup(points[i & 4095]));
    ++i;
  }
}

void BM_LookupCoo(benchmark::State& state) {
  LookupLoop(state, Data().coo, Data().dataset->vqrf->Dims());
}
BENCHMARK(BM_LookupCoo);

void BM_LookupCsr(benchmark::State& state) {
  LookupLoop(state, Data().csr, Data().dataset->vqrf->Dims());
}
BENCHMARK(BM_LookupCsr);

void BM_LookupCsc(benchmark::State& state) {
  LookupLoop(state, Data().csc, Data().dataset->vqrf->Dims());
}
BENCHMARK(BM_LookupCsc);

/// Hand-timed scalar-vs-batched decode comparison on a coherent front,
/// written to BENCH_micro_decode.json so the batched-decode trajectory is
/// tracked per commit alongside the render benches. Ratio entries store the
/// throughput ratio in the wall_ms field (>1 = batch faster; tracked, not
/// gated).
void WriteBatchedDecodeJson() {
  MicroData& d = Data();
  const SpNeRFFieldSource src(d.codec);
  const std::vector<Vec3f> points = CoherentFront(1024, 10);
  std::vector<FieldSample> out(points.size());
  constexpr int kReps = 200;

  bench::JsonReport json("micro_decode");
  const auto time_ms = [&](auto&& body) {
    body();  // warm up scratch + caches
    const bench::WallTimer timer;
    for (int r = 0; r < kReps; ++r) body();
    return timer.ElapsedMs();
  };

  const double scalar_ms = time_ms([&] {
    for (std::size_t i = 0; i < points.size(); ++i)
      out[i] = src.Sample(points[i], nullptr);
  });
  const double batch_ms =
      time_ms([&] { src.SampleBatch(points, out, nullptr); });

  std::printf("\nbatched decode, %zu-sample coherent front x%d reps:\n"
              "  scalar  %8.2f ms\n"
              "  batch   %8.2f ms (%.2fx)\n",
              points.size(), kReps, scalar_ms, batch_ms,
              scalar_ms / batch_ms);
  json.Add("decode/scalar", scalar_ms, 1);
  json.Add("decode/batch", batch_ms, 1);
  json.Add("ratio/batch-vs-scalar", scalar_ms / batch_ms, 1);

  // Per-kernel SIMD-vs-scalar comparison: each kernel-bearing batch path
  // runs forced to its one scalar implementation and forced to the best
  // host-supported vector path, and the throughput ratio lands in the
  // trajectory under a path-tagged name (e.g.
  // "ratio/forward-batch-avx2-vs-scalar"). Forced scalar, the field-source
  // "*[scalar]" entries time the Sample loop (the whole batch call, setup
  // and decode included) and the MLP entries the blocked scalar product.
  // On a scalar-only host the best path IS scalar, so the entries still
  // record (ratios ~1) and the name says why.
  const simd::Path saved_path = simd::ActivePath();
  const simd::Path vec_path = simd::BestSupportedPath();
  const std::string tag = simd::PathName(vec_path);
  const auto timed_pair = [&](auto&& body) {
    simd::SetActivePath(simd::Path::kScalar);
    const double scalar = time_ms(body);
    simd::SetActivePath(vec_path);
    const double vec = time_ms(body);
    return std::pair<double, double>{scalar, vec};
  };

  Rng rng(11);
  std::vector<std::array<float, kMlpInputDim>> mlp_in(1024);
  for (auto& sample : mlp_in)
    for (auto& v : sample) v = rng.Uniform(-1.f, 1.f);
  std::vector<Vec3f> mlp_out(mlp_in.size());
  const auto [mlp32_s, mlp32_v] =
      timed_pair([&] { d.mlp.ForwardBatch(mlp_in, mlp_out); });
  const auto [mlp16_s, mlp16_v] =
      timed_pair([&] { d.mlp.ForwardFp16Batch(mlp_in, mlp_out); });

  const GridFieldSource dense_src(d.dataset->full_grid);
  const auto [tri_s, tri_v] =
      timed_pair([&] { dense_src.SampleBatch(points, out, nullptr); });

  const auto [blend_s, blend_v] =
      timed_pair([&] { src.SampleBatch(points, out, nullptr); });
  SpNeRFFieldSource tiu_src(d.codec, /*fp16_tiu=*/true);
  const auto [tiu_s, tiu_v] =
      timed_pair([&] { tiu_src.SampleBatch(points, out, nullptr); });
  simd::SetActivePath(saved_path);

  std::printf("\nper-kernel SIMD (%s) vs scalar:\n"
              "  mlp fp32 batch     %8.2f -> %8.2f ms (%.2fx)\n"
              "  mlp fp16 batch     %8.2f -> %8.2f ms (%.2fx)\n"
              "  grid trilinear     %8.2f -> %8.2f ms (%.2fx)\n"
              "  spnerf blend       %8.2f -> %8.2f ms (%.2fx)\n"
              "  spnerf blend fp16  %8.2f -> %8.2f ms (%.2fx)\n",
              tag.c_str(), mlp32_s, mlp32_v, mlp32_s / mlp32_v, mlp16_s,
              mlp16_v, mlp16_s / mlp16_v, tri_s, tri_v, tri_s / tri_v,
              blend_s, blend_v, blend_s / blend_v, tiu_s, tiu_v,
              tiu_s / tiu_v);

  json.Add("mlp/forward-batch-fp32[scalar]", mlp32_s, 1);
  json.Add("mlp/forward-batch-fp32[" + tag + "]", mlp32_v, 1);
  json.Add("ratio/forward-batch-" + tag + "-vs-scalar", mlp32_s / mlp32_v, 1);
  json.Add("mlp/forward-batch-fp16[scalar]", mlp16_s, 1);
  json.Add("mlp/forward-batch-fp16[" + tag + "]", mlp16_v, 1);
  json.Add("ratio/forward-batch-fp16-" + tag + "-vs-scalar",
           mlp16_s / mlp16_v, 1);
  json.Add("trilinear/grid-batch[scalar]", tri_s, 1);
  json.Add("trilinear/grid-batch[" + tag + "]", tri_v, 1);
  json.Add("ratio/grid-trilinear-" + tag + "-vs-scalar", tri_s / tri_v, 1);
  json.Add("blend/spnerf-batch[scalar]", blend_s, 1);
  json.Add("blend/spnerf-batch[" + tag + "]", blend_v, 1);
  json.Add("ratio/spnerf-blend-" + tag + "-vs-scalar", blend_s / blend_v, 1);
  json.Add("blend/spnerf-batch-fp16[scalar]", tiu_s, 1);
  json.Add("blend/spnerf-batch-fp16[" + tag + "]", tiu_v, 1);
  json.Add("ratio/spnerf-blend-fp16-" + tag + "-vs-scalar", tiu_s / tiu_v, 1);
}

}  // namespace
}  // namespace spnerf

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  spnerf::WriteBatchedDecodeJson();
  return 0;
}
