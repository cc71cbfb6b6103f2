#include "assets/asset_cache.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "assets/asset_io.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spnerf {
namespace {

namespace fs = std::filesystem;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Loads one artifact, treating every failure (missing file, bad magic or
/// version, truncation, inconsistent contents) as a miss: the bad file is
/// removed so the rebuilt artifact replaces it.
template <typename LoadFn>
bool TryLoad(const std::string& path, LoadFn&& load) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  try {
    load(in);
    return true;
  } catch (const std::exception& e) {
    // Not just SpnerfError: the loaders check every length field before
    // allocating for it, but any other failure (an allocation the host
    // cannot satisfy, an I/O error) is still a miss, never fatal.
    SPNERF_LOG_WARN << "asset cache: rejecting " << path << " (" << e.what()
                    << "); rebuilding";
    in.close();
    std::error_code ec;
    fs::remove(path, ec);
    return false;
  }
}

}  // namespace

const char* AssetOriginName(AssetOrigin origin) {
  switch (origin) {
    case AssetOrigin::kMemory: return "memory";
    case AssetOrigin::kDisk: return "disk";
    case AssetOrigin::kBuilt: return "cold";
  }
  return "?";
}

namespace {

/// Owns a codec together with the VQRF model its payload stores live in —
/// and nothing more: pinning the model (not the whole dataset) keeps cached
/// codecs at compressed size even after the dataset's full-resolution grid
/// is evicted. The handed-out SpNeRFModel pointer aliases this holder.
struct CodecHolder {
  std::shared_ptr<const VqrfModel> vqrf;
  SpNeRFModel model;
};

std::shared_ptr<const SpNeRFModel> WrapCodec(
    std::shared_ptr<CodecHolder> holder) {
  std::shared_ptr<const CodecHolder> owned = std::move(holder);
  return {owned, &owned->model};
}

/// The skip structure over a coarse bitmap: its octree, which keeps the
/// bitmap as its leaf.
std::shared_ptr<const OccupancyOctree> MakeSkipAsset(
    const CoarseOccupancy& coarse) {
  return std::make_shared<const OccupancyOctree>(
      OccupancyOctree::Build(coarse));
}

/// Coarse skip bitmap from the full grid's occupancy: a superset of every
/// lossy representation, so all pipelines march identical rays.
CoarseOccupancy BuildCoarse(const SceneDataset& dataset, int factor) {
  return CoarseOccupancy::Build(BitGrid::FromGrid(dataset.full_grid), factor);
}

}  // namespace

std::shared_ptr<const SpNeRFModel> MakeCodecAsset(
    std::shared_ptr<const SceneDataset> dataset, const SpNeRFParams& params) {
  auto holder = std::make_shared<CodecHolder>();
  holder->vqrf = dataset->vqrf;
  holder->model = SpNeRFModel::Preprocess(*holder->vqrf, params);
  return WrapCodec(std::move(holder));
}

PipelineAssets BuildPipelineAssets(SceneId id, const DatasetParams& dp,
                                   const SpNeRFParams& sp, int coarse_factor) {
  PipelineAssets assets;
  assets.dataset = std::make_shared<const SceneDataset>(BuildDataset(id, dp));
  assets.codec = MakeCodecAsset(assets.dataset, sp);
  assets.skip = MakeSkipAsset(BuildCoarse(*assets.dataset, coarse_factor));
  return assets;
}

AssetCacheOptions AssetCache::DefaultOptions() {
  AssetCacheOptions opts;
  const char* env = std::getenv("SPNERF_ASSET_CACHE");
  if (env == nullptr) {
    opts.disk_root = ".spnerf-cache";
  } else if (std::string(env) == "off" || std::string(env) == "0") {
    opts.disk_root.clear();
  } else {
    opts.disk_root = env;
  }
  if (const char* cap = std::getenv("SPNERF_ASSET_CACHE_ENTRIES")) {
    const long n = std::strtol(cap, nullptr, 10);
    if (n > 0) opts.memory_capacity = static_cast<std::size_t>(n);
  }
  return opts;
}

AssetCache& AssetCache::Global() {
  static AssetCache cache;
  return cache;
}

AssetCache::AssetCache(AssetCacheOptions options)
    : disk_root_(std::move(options.disk_root)),
      live_(options.memory_capacity) {
  if (!disk_root_.empty()) {
    std::error_code ec;
    fs::create_directories(disk_root_, ec);
    if (ec) {
      SPNERF_LOG_WARN << "asset cache: cannot create " << disk_root_ << " ("
                      << ec.message() << "); disk store disabled";
      disk_root_.clear();
    }
  }
}

void AssetCache::RecordTiming(const std::string& name, double wall_ms,
                              unsigned threads, AssetOrigin origin) {
  if (obs::CountersEnabled()) {
    struct CacheMetrics {
      obs::Counter& memory_hits = obs::MetricsRegistry::Global().GetCounter(
          "assets/memory-hits");
      obs::Counter& disk_hits = obs::MetricsRegistry::Global().GetCounter(
          "assets/disk-hits");
      obs::Counter& builds = obs::MetricsRegistry::Global().GetCounter(
          "assets/builds");
      obs::Histogram& acquire_us = obs::MetricsRegistry::Global().GetHistogram(
          "assets/acquire-us");
    };
    static CacheMetrics metrics;
    switch (origin) {
      case AssetOrigin::kMemory: metrics.memory_hits.Add(); break;
      case AssetOrigin::kDisk: metrics.disk_hits.Add(); break;
      case AssetOrigin::kBuilt: metrics.builds.Add(); break;
    }
    metrics.acquire_us.Record(
        wall_ms > 0.0 ? static_cast<u64>(wall_ms * 1000.0) : 0);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  timings_.push_back(AssetTimingEntry{name, wall_ms, threads, origin});
  switch (origin) {
    case AssetOrigin::kMemory: ++stats_.memory_hits; break;
    case AssetOrigin::kDisk: ++stats_.disk_hits; break;
    case AssetOrigin::kBuilt: ++stats_.builds; break;
  }
}

std::string AssetCache::PathFor(const AssetKey& key) const {
  return (fs::path(disk_root_) / key.FileName()).string();
}

void AssetCache::StoreToDisk(
    const AssetKey& key, const std::function<void(std::ostream&)>& save) const {
  if (disk_root_.empty()) return;
  const std::string path = PathFor(key);
  // Unique per-writer temp name: two processes (or threads) cold-building
  // the same key must never interleave writes into one inode; whoever
  // renames last wins with a complete artifact.
  static std::atomic<u64> tmp_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      SPNERF_LOG_WARN << "asset cache: cannot write " << tmp;
      return;
    }
    try {
      save(out);
    } catch (const SpnerfError& e) {
      SPNERF_LOG_WARN << "asset cache: save to " << tmp << " failed ("
                      << e.what() << ")";
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);  // atomic publish on POSIX
  if (ec) {
    SPNERF_LOG_WARN << "asset cache: cannot publish " << path << " ("
                    << ec.message() << ")";
    fs::remove(tmp, ec);
  }
}

template <typename T, typename LoadFn, typename BuildFn, typename SaveFn>
std::shared_ptr<const T> AssetCache::AcquireImpl(const AssetKey& key,
                                                 const std::string& name,
                                                 unsigned build_threads,
                                                 LoadFn&& load, BuildFn&& build,
                                                 SaveFn&& save) {
  const std::string live_key = key.kind + key.hash;
  const auto start = std::chrono::steady_clock::now();
  // Acquisition span tagged with the asset name and, once known, the origin
  // tier it resolved from. Interning per acquire is fine — acquisition is
  // not a per-event hot path.
  obs::TraceSpan acquire_span("assets", "acquire");
  if (acquire_span.Active()) {
    acquire_span.AddStrArg("asset", obs::InternString(name));
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (auto* hit = live_.Find(live_key)) {
      const std::shared_ptr<const void> value = *hit;
      lock.unlock();
      acquire_span.AddStrArg("origin",
                             obs::InternString(AssetOriginName(AssetOrigin::kMemory)));
      RecordTiming(name, ElapsedMs(start), 1, AssetOrigin::kMemory);
      return std::static_pointer_cast<const T>(value);
    }
  }

  // Disk, then build — both outside the lock (concurrent same-key acquires
  // may duplicate work; InsertLocked keeps the first inserted value).
  if (!disk_root_.empty()) {
    std::shared_ptr<const T> loaded;
    if (TryLoad(PathFor(key), [&](std::istream& in) { loaded = load(in); })) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        live_.Insert(live_key, loaded);
      }
      acquire_span.AddStrArg("origin",
                             obs::InternString(AssetOriginName(AssetOrigin::kDisk)));
      RecordTiming(name, ElapsedMs(start), 1, AssetOrigin::kDisk);
      return loaded;
    }
  }

  std::shared_ptr<const T> built = build();
  StoreToDisk(key, [&](std::ostream& out) { save(out, *built); });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.Insert(live_key, built);
  }
  acquire_span.AddStrArg("origin",
                         obs::InternString(AssetOriginName(AssetOrigin::kBuilt)));
  RecordTiming(name, ElapsedMs(start), build_threads, AssetOrigin::kBuilt);
  return built;
}

std::shared_ptr<const SceneDataset> AssetCache::AcquireDataset(
    SceneId id, const DatasetParams& dp) {
  // An explicit cap is honoured even past the global pool size (the
  // voxeliser builds a dedicated pool), matching the bench reporting rule.
  const unsigned threads =
      dp.max_threads ? dp.max_threads : ThreadPool::Global().WorkerCount();
  return AcquireImpl<SceneDataset>(
      DatasetAssetKey(id, dp), std::string("dataset/") + SceneName(id),
      threads,
      [&](std::istream& in) -> std::shared_ptr<const SceneDataset> {
        auto loaded = std::make_shared<SceneDataset>(LoadSceneDataset(in));
        SPNERF_CHECK_MSG(loaded->id == id,
                         "dataset asset holds scene " << SceneName(loaded->id)
                             << ", expected " << SceneName(id));
        return loaded;
      },
      [&] { return std::make_shared<const SceneDataset>(BuildDataset(id, dp)); },
      [](std::ostream& out, const SceneDataset& v) {
        SaveSceneDataset(v, out);
      });
}

std::shared_ptr<const SpNeRFModel> AssetCache::AcquireCodec(
    SceneId id, const DatasetParams& dp, const SpNeRFParams& sp,
    const std::shared_ptr<const SceneDataset>& dataset) {
  SPNERF_CHECK_MSG(dataset != nullptr, "AcquireCodec needs a dataset");
  // A memory hit may carry a different (but identically-built) dataset
  // instance than `dataset`; both decode identically by construction.
  return AcquireImpl<SpNeRFModel>(
      CodecAssetKey(DatasetAssetKey(id, dp), sp),
      std::string("codec/") + SceneName(id), 1,
      [&](std::istream& in) {
        auto loaded = std::make_shared<CodecHolder>();
        loaded->vqrf = dataset->vqrf;
        loaded->model = LoadSpNeRFModel(in, *loaded->vqrf);
        return WrapCodec(std::move(loaded));
      },
      [&] { return MakeCodecAsset(dataset, sp); },
      [](std::ostream& out, const SpNeRFModel& v) { SaveSpNeRFModel(v, out); });
}

std::shared_ptr<const OccupancyOctree> AssetCache::AcquireSkip(
    SceneId id, const DatasetParams& dp, int factor,
    const std::shared_ptr<const SceneDataset>& dataset) {
  SPNERF_CHECK_MSG(dataset != nullptr, "AcquireSkip needs a dataset");
  return AcquireImpl<OccupancyOctree>(
      CoarseAssetKey(DatasetAssetKey(id, dp), factor),
      std::string("coarse/") + SceneName(id), 1,
      [](std::istream& in) { return MakeSkipAsset(LoadCoarseOccupancy(in)); },
      [&] { return MakeSkipAsset(BuildCoarse(*dataset, factor)); },
      [](std::ostream& out, const OccupancyOctree& v) {
        SaveCoarseOccupancy(v.Leaf(), out);
      });
}

PipelineAssets AssetCache::Acquire(SceneId id, const DatasetParams& dp,
                                   const SpNeRFParams& sp, int coarse_factor) {
  PipelineAssets assets;
  assets.dataset = AcquireDataset(id, dp);
  assets.codec = AcquireCodec(id, dp, sp, assets.dataset);
  assets.skip = AcquireSkip(id, dp, coarse_factor, assets.dataset);
  return assets;
}

AssetCache::Stats AssetCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<AssetTimingEntry> AssetCache::DrainTimings() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AssetTimingEntry> out;
  out.swap(timings_);
  return out;
}

void AssetCache::EvictAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.Clear();
}

}  // namespace spnerf
