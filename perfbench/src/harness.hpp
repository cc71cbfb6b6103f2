// Shared pieces of the benchmark harness: run arguments, the result report,
// the run stamp, cold set-up of an isolated asset store, and the per-layer
// measurements every workload reuses (direct stats-on renders, decode and
// MLP micro-timings, build timings, the accelerator simulation).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/image.hpp"
#include "core/pipeline_repository.hpp"
#include "render/render_engine.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Empty directory this run may fill with asset stores (one per set-up).
  std::string store_root;
  /// Where the traced run writes its spans.
  std::string trace_out;
  /// Workload constants, as key=value pairs.
  spnerf::Config values;
};

/// Metrics by name with unit, correctness bookkeeping, and the final
/// one-line JSON result.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run is then reported incorrect.
  void Fail(const std::string& why);
  [[nodiscard]] bool Correct() const { return failures_.empty(); }

  /// Operations attempted (frames or requests) and operations that failed
  /// (threw, or produced a wrong image).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable metric table (stdout).
  void PrintTable() const;
  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string ResultJson() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Median of a statistic taken per sub-window of the run; prints the
/// per-sub-window values next to `name`.
double MedianOverSlices(const char* name, const std::vector<double>& values);

/// Host, build and knob stamp of this run as a JSON object.
std::string RunStampJson(const Args& args);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// FNV-1a over an image's dimensions and pixel bytes: equal hashes mean
/// bit-identical images (up to a 2^-64 collision).
std::uint64_t ImageHash(const spnerf::Image& image);

/// One isolated build stack: an AssetCache whose disk store is `dir` (a
/// fresh empty directory) and a PipelineRepository over it. Nothing is
/// shared with the process-wide cache or with another stack.
struct Stack {
  std::unique_ptr<spnerf::AssetCache> cache;
  std::unique_ptr<spnerf::PipelineRepository> repo;

  /// Drops the repository before the cache it points into.
  void Reset();
};
Stack MakeStack(const std::string& dir);

/// Stats-on totals of a set of direct renders.
struct RenderProfile {
  spnerf::RenderStats stats;
  spnerf::DecodeCounters counters;
  std::uint64_t frames = 0;

  void Add(const spnerf::RenderResult& result);
};

/// Adds the render.*, encoding.* (rates) and mlp.evals_per_frame metrics
/// derived from a profile.
void AddRenderProfileMetrics(Report& report, const RenderProfile& profile);

/// Adds encoding.*_mb per-layer metrics and voxel_mem_mb (the paper's
/// memory metric: SpNeRFModel::TotalBytes summed over the scenes).
void AddCodecMemoryMetrics(Report& report,
                           const std::vector<const spnerf::SpNeRFModel*>& codecs);

/// One scene's share of the simulated frame: its codec, its direct-render
/// profile and its weight in the workload's mix.
struct SimScene {
  const spnerf::SpNeRFModel* codec = nullptr;
  std::string name;
  RenderProfile profile;
  double weight = 1.0;
};

/// Scales each scene's profile to an 800x800 frame (BuildFrameWorkload),
/// simulates it on the accelerator model, and adds sim_fps plus the
/// sim.* per-layer metrics (simulated cycles, weighted over the mix).
void AddSimMetrics(Report& report, const std::vector<SimScene>& scenes);

/// Cold build of one scene through the direct (uncached) entry points,
/// timed per stage: BuildDataset, SpNeRFModel::Preprocess, and
/// CoarseOccupancy::Build + OccupancyOctree::Build.
struct BuildTimings {
  double dataset_ms = 0.0;
  double preprocess_ms = 0.0;
  double octree_ms = 0.0;
};
BuildTimings TimeColdBuild(const spnerf::PipelineConfig& config);

/// Median ns per vertex of SpNeRFModel::DecodeBatch over a fixed seeded
/// vertex list.
double DecodeNsPerVertex(const spnerf::SpNeRFModel& codec, bool masking,
                         std::uint64_t seed);

/// Median ns per evaluation of Mlp::ForwardBatch on a fixed seeded
/// 1024-input batch.
double MlpNsPerEval(const spnerf::Mlp& mlp, bool fp16, std::uint64_t seed);

/// Times PipelineRepository::Acquire at each cache level for `configs`
/// (already built in `stack`) and adds assets.acquire_disk_ms (after
/// evicting every live pipeline and asset) and assets.acquire_mem_us.
void AddAcquireMetrics(Report& report, Stack& stack,
                       const std::vector<spnerf::PipelineConfig>& configs);

/// Adds the field.* metrics from FieldTimer totals collected over renders
/// that took `wall_ms` of wall time on `workers` render threads.
void AddFieldMetrics(Report& report,
                     const std::vector<FieldThreadTotals>& threads,
                     double wall_ms, unsigned workers, double frames,
                     std::uint64_t mlp_evals, double mlp_ns_per_eval);

/// Worker threads a default RenderEngine renders on.
unsigned EngineWorkers();

}  // namespace perfbench
