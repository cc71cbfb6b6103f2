#include "harness.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/dispatch.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "grid/bitmap.hpp"
#include "grid/occupancy.hpp"
#include "grid/occupancy_octree.hpp"
#include "obs/trace.hpp"
#include "render/skip_mode.hpp"
#include "scene/dataset.hpp"
#include "sim/accelerator.hpp"
#include "sim/workload.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace spnerf;

// ---------------------------------------------------------------- Report --

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& why) {
  std::printf("CHECK FAILED: %s\n", why.c_str());
  failures_.push_back(why);
}

void Report::PrintTable() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += Correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit of the double; non-finite values are not JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double MedianOverSlices(const char* name, const std::vector<double>& values) {
  std::printf("  %-20s per sub-window:", name);
  for (double v : values) std::printf(" %.4f", v);
  std::printf("\n");
  return Median(values);
}

// ------------------------------------------------------------ run stamp --

namespace {

std::string EnvOr(const char* name) {
  const char* v = std::getenv(name);
  return v ? v : "unset";
}

}  // namespace

unsigned EngineWorkers() { return ThreadPool::Global().WorkerCount(); }

std::string RunStampJson(const Args& args) {
  utsname host{};
  uname(&host);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %d, \"nproc\": %ld, \"arch\": \"%s\", "
      "\"engine_workers\": %u, \"engine_pool_threads\": %u, "
      "\"generator_threads\": 1, "
      "\"simd_detected\": \"%s\", \"simd_active\": \"%s\", "
      "\"compiler\": \"%s\", "
      "\"SPNF_DISPATCH\": \"%s\", \"dispatch_active\": \"%s\", "
      "\"SPNF_SIMD\": \"%s\", \"SPNF_SKIP\": \"%s\", \"skip_active\": \"%s\", "
      "\"SPNF_TRACE\": \"%s\", \"trace_active\": \"%s\"}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      host.machine, EngineWorkers(), EngineWorkers() - 1,
      simd::PathName(simd::BestSupportedPath()),
      simd::PathName(simd::ActivePath()), simd::CompilerName(),
      EnvOr("SPNF_DISPATCH").c_str(),
      dispatch::ModeName(dispatch::ActiveMode()), EnvOr("SPNF_SIMD").c_str(),
      EnvOr("SPNF_SKIP").c_str(), skip::ModeName(skip::ActiveMode()),
      EnvOr("SPNF_TRACE").c_str(),
      obs::TraceLevelName(obs::ActiveTraceLevel()));
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t ImageHash(const Image& image) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  const int dims[2] = {image.Width(), image.Height()};
  mix(dims, sizeof(dims));
  mix(image.Pixels().data(), image.Pixels().size() * sizeof(Vec3f));
  return h;
}

// ---------------------------------------------------------------- Stack --

void Stack::Reset() {
  repo.reset();
  cache.reset();
}

Stack MakeStack(const std::string& dir) {
  AssetCacheOptions options;
  options.disk_root = dir;
  Stack s;
  s.cache = std::make_unique<AssetCache>(options);
  s.repo = std::make_unique<PipelineRepository>(s.cache.get());
  return s;
}

// -------------------------------------------------------- render layers --

void RenderProfile::Add(const RenderResult& result) {
  stats.Merge(result.stats);
  counters.Merge(result.counters);
  ++frames;
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void AddRenderProfileMetrics(Report& report, const RenderProfile& p) {
  const auto frames = static_cast<double>(p.frames);
  const auto steps = static_cast<double>(p.stats.steps);
  const auto skips = static_cast<double>(p.stats.coarse_skips);
  const auto queries = static_cast<double>(p.counters.queries);
  report.Set("render.samples_per_frame", Ratio(steps, frames), "count");
  report.Set("render.skip_iters_per_frame", Ratio(skips, frames), "count");
  report.Set("render.skip_iters_per_sample", Ratio(skips, steps), "ratio");
  report.Set("render.alpha_pass_rate",
             Ratio(static_cast<double>(p.stats.mlp_evals), steps), "ratio");
  report.Set("render.terminated_ray_share",
             Ratio(static_cast<double>(p.stats.terminated_rays),
                   static_cast<double>(p.stats.rays)),
             "ratio");
  report.Set("mlp.evals_per_frame",
             Ratio(static_cast<double>(p.stats.mlp_evals), frames), "count");
  report.Set("encoding.queries_per_sample", Ratio(queries, steps), "count");
  report.Set("encoding.bitmap_zero_rate",
             Ratio(static_cast<double>(p.counters.bitmap_zero), queries),
             "ratio");
  report.Set("encoding.empty_slot_rate",
             Ratio(static_cast<double>(p.counters.empty_slot), queries),
             "ratio");
  report.Set("encoding.true_grid_rate",
             Ratio(static_cast<double>(p.counters.true_grid_hits), queries),
             "ratio");
}

void AddCodecMemoryMetrics(Report& report,
                           const std::vector<const SpNeRFModel*>& codecs) {
  double table = 0.0, bitmap = 0.0, codebook = 0.0, true_grid = 0.0,
         total = 0.0;
  for (const SpNeRFModel* c : codecs) {
    table += static_cast<double>(c->HashTableBytes());
    bitmap += static_cast<double>(c->BitmapBytes());
    codebook += static_cast<double>(c->CodebookBytes());
    true_grid += static_cast<double>(c->TrueGridBytes());
    total += static_cast<double>(c->TotalBytes());
  }
  constexpr double kMb = 1e6;
  report.Set("encoding.table_mb", table / kMb, "MB");
  report.Set("encoding.bitmap_mb", bitmap / kMb, "MB");
  report.Set("encoding.codebook_mb", codebook / kMb, "MB");
  report.Set("encoding.true_grid_mb", true_grid / kMb, "MB");
  report.Set("voxel_mem_mb", total / kMb, "MB");
}

void AddSimMetrics(Report& report, const std::vector<SimScene>& scenes) {
  const AcceleratorSim sim;
  double weight = 0.0, seconds = 0.0, frame = 0.0, sgpu = 0.0, mlp = 0.0,
         dram = 0.0, util = 0.0;
  for (const SimScene& s : scenes) {
    if (s.profile.frames == 0 || s.weight <= 0.0) continue;
    const FrameWorkload workload = BuildFrameWorkload(
        *s.codec, s.profile.stats, s.profile.counters, s.name, 800, 800);
    const SimResult r = sim.SimulateFrame(workload);
    weight += s.weight;
    seconds += s.weight * r.frame_seconds;
    frame += s.weight * static_cast<double>(r.frame_cycles);
    sgpu += s.weight * static_cast<double>(r.sgpu_cycles);
    mlp += s.weight * static_cast<double>(r.mlp_cycles);
    dram += s.weight * static_cast<double>(r.dram_cycles);
    util += s.weight * r.systolic_utilization;
  }
  report.Set("sim_fps", Ratio(weight, seconds), "1/s");
  report.Set("sim.frame_cycles", Ratio(frame, weight), "sim_cycles");
  report.Set("sim.sgpu_cycles", Ratio(sgpu, weight), "sim_cycles");
  report.Set("sim.mlp_cycles", Ratio(mlp, weight), "sim_cycles");
  report.Set("sim.dram_cycles", Ratio(dram, weight), "sim_cycles");
  report.Set("sim.systolic_util", Ratio(util, weight), "ratio");
}

BuildTimings TimeColdBuild(const PipelineConfig& config) {
  BuildTimings t;
  Clock::time_point t0 = Clock::now();
  const SceneDataset dataset = BuildDataset(config.scene_id, config.dataset);
  Clock::time_point t1 = Clock::now();
  t.dataset_ms = Ms(t0, t1);
  t0 = Clock::now();
  const SpNeRFModel codec = SpNeRFModel::Preprocess(*dataset.vqrf,
                                                    config.spnerf);
  t1 = Clock::now();
  t.preprocess_ms = Ms(t0, t1);
  t0 = Clock::now();
  const CoarseOccupancy coarse = CoarseOccupancy::Build(
      BitGrid::FromGrid(dataset.full_grid), config.coarse_factor);
  const OccupancyOctree octree = OccupancyOctree::Build(coarse);
  t1 = Clock::now();
  t.octree_ms = Ms(t0, t1);
  (void)codec;
  (void)octree;
  return t;
}

double DecodeNsPerVertex(const SpNeRFModel& codec, bool masking,
                         std::uint64_t seed) {
  constexpr std::size_t kVertices = 1 << 16;
  Rng rng(seed ^ 0xdec0de);
  const GridDims dims = codec.Dims();
  std::vector<Vec3i> positions(kVertices);
  for (Vec3i& v : positions) {
    v = Vec3i{static_cast<int>(rng.NextBelow(static_cast<u64>(dims.nx))),
              static_cast<int>(rng.NextBelow(static_cast<u64>(dims.ny))),
              static_cast<int>(rng.NextBelow(static_cast<u64>(dims.nz)))};
  }
  std::vector<VoxelData> out(kVertices);
  std::vector<DecodeClass> classes(kVertices);
  std::vector<double> ns;
  for (int rep = 0; rep < 9; ++rep) {
    const Clock::time_point t0 = Clock::now();
    codec.DecodeBatch(positions, masking, out, classes);
    ns.push_back(Ms(t0, Clock::now()) * 1e6 / kVertices);
  }
  return Median(ns);
}

double MlpNsPerEval(const Mlp& mlp, bool fp16, std::uint64_t seed) {
  constexpr std::size_t kBatch = 1024;
  Rng rng(seed ^ 0x3175);
  std::vector<std::array<float, kMlpInputDim>> in(kBatch);
  for (auto& row : in) {
    for (float& x : row) x = rng.Uniform(-1.0f, 1.0f);
  }
  std::vector<Vec3f> out(kBatch);
  std::vector<double> ns;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (fp16) {
      mlp.ForwardFp16Batch(in, out);
    } else {
      mlp.ForwardBatch(in, out);
    }
    ns.push_back(Ms(t0, Clock::now()) * 1e6 / kBatch);
  }
  return Median(ns);
}

void AddAcquireMetrics(Report& report, Stack& stack,
                       const std::vector<PipelineConfig>& configs) {
  // Memory level: every config is live in the repository.
  std::vector<double> mem_us;
  for (int rep = 0; rep < 200; ++rep) {
    const PipelineConfig& c = configs[static_cast<std::size_t>(rep) %
                                      configs.size()];
    const Clock::time_point t0 = Clock::now();
    const auto p = stack.repo->Acquire(c);
    mem_us.push_back(Ms(t0, Clock::now()) * 1000.0);
  }
  report.Set("assets.acquire_mem_us", Median(mem_us), "us");

  // Disk level: drop every live pipeline and asset, then reload all.
  stack.repo->EvictAll();
  stack.cache->EvictAll();
  const Clock::time_point t0 = Clock::now();
  for (const PipelineConfig& c : configs) (void)stack.repo->Acquire(c);
  report.Set("assets.acquire_disk_ms", Ms(t0, Clock::now()), "ms");
}

void AddFieldMetrics(Report& report,
                     const std::vector<FieldThreadTotals>& threads,
                     double wall_ms, unsigned workers, double frames,
                     std::uint64_t mlp_evals, double mlp_ns_per_eval) {
  double busy_ms = 0.0;
  double samples = 0.0;
  for (const FieldThreadTotals& t : threads) {
    busy_ms += t.busy_ms;
    samples += static_cast<double>(t.samples);
  }
  const double worker_ms = wall_ms * static_cast<double>(workers);
  const double mlp_ms = static_cast<double>(mlp_evals) * mlp_ns_per_eval / 1e6;
  report.Set("field.ns_per_sample", Ratio(busy_ms * 1e6, samples), "ns");
  report.Set("field.front_size_p50",
             FieldTimer::Global().FrontSizePercentile(50.0), "count");
  report.Set("field.worker_share", Ratio(busy_ms, worker_ms), "ratio");
  report.Set("render.marcher_ms_per_frame",
             Ratio(std::max(0.0, worker_ms - busy_ms - mlp_ms), frames), "ms");
}

}  // namespace perfbench
