// Content-addressed cache of built scene assets. Sits between the builders
// (scene/grid/encoding) and the consumers (core/ and everything above):
// cold acquires build once — voxelise + VQRF-compress, SpNeRF-preprocess,
// coarse-reduce — persist the artifact to the on-disk store, and keep the
// live object in a bounded in-memory LRU; warm acquires return the shared
// live object (memory hit) or deserialize the artifact (disk hit) instead
// of rebuilding. The skip structure's live object is the occupancy octree,
// but only its coarse leaf bitmap is persisted: a disk hit re-derives the
// octree (OccupancyOctree::Build), which costs about what loading a stored
// pyramid would and leaves one stored copy of the leaf bits.
//
// Keys come from assets/asset_key.hpp: they hash the scene id, every build
// parameter and the format version, so any parameter change or format bump
// is automatically a miss. Unreadable or corrupt artifacts are also treated
// as misses (deleted and rebuilt), never as errors.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "assets/asset_key.hpp"
#include "common/lru.hpp"
#include "grid/occupancy_octree.hpp"
#include "scene/dataset.hpp"

namespace spnerf {

/// Where an acquired asset came from, in descending order of warmth.
enum class AssetOrigin { kMemory, kDisk, kBuilt };

const char* AssetOriginName(AssetOrigin origin);

/// One acquire-phase measurement, consumed by the bench JSON reports.
struct AssetTimingEntry {
  std::string name;  // e.g. "dataset/lego"
  double wall_ms = 0.0;
  unsigned threads = 1;
  AssetOrigin origin = AssetOrigin::kBuilt;
};

/// The expensive state one ScenePipeline needs. `codec->Source()` points
/// into the dataset's VQRF model, which lives behind its own shared_ptr
/// (`dataset->vqrf`): the codec pins only that compressed model, never the
/// dataset's full-resolution grid.
struct PipelineAssets {
  std::shared_ptr<const SceneDataset> dataset;
  std::shared_ptr<const SpNeRFModel> codec;
  /// Empty-space skip structure: the octree over the coarse bitmap.
  std::shared_ptr<const OccupancyOctree> skip;
};

/// Preprocesses a codec over `dataset`, bundling the dataset with the model
/// so the codec's payload-store reference stays alive for exactly as long
/// as the handed-out pointer. The single implementation of this aliasing
/// pattern — cache and direct-build paths both go through it.
std::shared_ptr<const SpNeRFModel> MakeCodecAsset(
    std::shared_ptr<const SceneDataset> dataset, const SpNeRFParams& params);

/// Builds the full asset bundle directly, bypassing every cache level
/// (ScenePipeline::Build's uncached path).
PipelineAssets BuildPipelineAssets(SceneId id, const DatasetParams& dp,
                                   const SpNeRFParams& sp, int coarse_factor);

struct AssetCacheOptions {
  /// On-disk store root; empty disables persistence (memory LRU only).
  std::string disk_root;
  /// Live assets kept in memory before least-recently-used eviction. Each
  /// dataset entry pins its full-resolution grid, so this trades RAM for
  /// rebuild time; SPNERF_ASSET_CACHE_ENTRIES overrides the default.
  std::size_t memory_capacity = 32;
};

class AssetCache {
 public:
  /// Reads SPNERF_ASSET_CACHE: unset uses ".spnerf-cache" under the working
  /// directory, "off" (or "0") disables the disk store, anything else is
  /// the store root.
  static AssetCacheOptions DefaultOptions();

  /// Process-wide cache (DefaultOptions), created on first use.
  static AssetCache& Global();

  explicit AssetCache(AssetCacheOptions options = DefaultOptions());

  AssetCache(const AssetCache&) = delete;
  AssetCache& operator=(const AssetCache&) = delete;

  /// Dataset bundle for one scene: memory hit, disk hit, or parallel build.
  std::shared_ptr<const SceneDataset> AcquireDataset(SceneId id,
                                                     const DatasetParams& dp);

  /// SpNeRF codec preprocessed from `dataset` (which must have been
  /// acquired from this cache or built with the same params).
  std::shared_ptr<const SpNeRFModel> AcquireCodec(
      SceneId id, const DatasetParams& dp, const SpNeRFParams& sp,
      const std::shared_ptr<const SceneDataset>& dataset);

  /// Skip structure for one dataset + reduction factor: the occupancy
  /// octree over the coarse bitmap. Persists only the coarse bitmap; a disk
  /// hit derives the octree from it.
  std::shared_ptr<const OccupancyOctree> AcquireSkip(
      SceneId id, const DatasetParams& dp, int factor,
      const std::shared_ptr<const SceneDataset>& dataset);

  /// Everything a pipeline needs, acquired in dependency order.
  PipelineAssets Acquire(SceneId id, const DatasetParams& dp,
                         const SpNeRFParams& sp, int coarse_factor);

  struct Stats {
    u64 memory_hits = 0;
    u64 disk_hits = 0;
    u64 builds = 0;
  };
  [[nodiscard]] Stats GetStats() const;

  /// Per-acquire timings accumulated since the last drain.
  std::vector<AssetTimingEntry> DrainTimings();

  /// Drops every live in-memory asset (the disk store is untouched).
  void EvictAll();

  [[nodiscard]] const std::string& DiskRoot() const { return disk_root_; }

 private:
  /// The one acquire protocol every asset kind goes through: memory LRU ->
  /// disk store -> build+persist, with per-origin timing. `load` returns a
  /// typed pointer from a validated stream, `build` constructs cold,
  /// `save` serializes for the disk store. Instantiated only in the .cpp.
  template <typename T, typename LoadFn, typename BuildFn, typename SaveFn>
  std::shared_ptr<const T> AcquireImpl(const AssetKey& key,
                                       const std::string& name,
                                       unsigned build_threads, LoadFn&& load,
                                       BuildFn&& build, SaveFn&& save);

  void RecordTiming(const std::string& name, double wall_ms, unsigned threads,
                    AssetOrigin origin);

  [[nodiscard]] std::string PathFor(const AssetKey& key) const;
  /// Atomically writes an artifact (temp file + rename); failures only warn.
  void StoreToDisk(const AssetKey& key,
                   const std::function<void(std::ostream&)>& save) const;

  std::string disk_root_;  // empty = disk store disabled

  mutable std::mutex mutex_;
  // Values are type-erased; AcquireImpl casts back. A codec entry pins only
  // its source VQRF model (payload stores live there), not the dataset's
  // full-resolution grid, so evicting the dataset entry frees the grid even
  // while codecs stay cached.
  LruList<std::shared_ptr<const void>> live_;  // guarded by mutex_
  Stats stats_;
  std::vector<AssetTimingEntry> timings_;
};

}  // namespace spnerf
