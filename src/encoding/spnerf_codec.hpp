// SpNeRF encoded model: the output of the hash-mapping preprocessing step
// (paper III-A) plus the online decoding procedure (paper III-B).
//
// Preprocessing: non-zero voxels of a VQRF model are partitioned into K
// subgrids by x coordinate; each subgrid maps its points into a private
// hash table whose entries carry the 18-bit unified payload index and the
// INT8 density. The full grid is never restored.
//
// Online decode (per voxel vertex):
//   1. bitmap test              — zero bit => zero voxel (masking);
//   2. Eq. (1) hash             — slot in the subgrid's table;
//   3. unified 18-bit dispatch  — payload < 4096: codebook row,
//                                 else: true-voxel-grid slot (payload-4096);
//   4. INT8 -> float de-quantisation with the shared scale.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "encoding/hash_table.hpp"
#include "encoding/subgrid.hpp"
#include "grid/vqrf_model.hpp"

namespace spnerf {

struct SpNeRFParams {
  /// K: number of x-partitioned subgrids (paper's design point: 64).
  int subgrid_count = 64;
  /// T: entries per subgrid hash table (paper's design point: 32k).
  u32 table_size = 32 * 1024;
  /// Bitmap masking on/off (paper Fig 6(b) compares both).
  bool bitmap_masking = true;
  CollisionPolicy collision_policy = CollisionPolicy::kKeepFirst;
};

/// Outcome class of one vertex decode — which unit retired the query. A
/// decode increments exactly one DecodeCounters bucket; batched decode paths
/// record the class per decoded vertex and count it with AddQuery, so they
/// account identically to scalar Decode() calls.
enum class DecodeClass : u8 {
  kBitmapZero = 0,  // out of range, or masked out by the bitmap
  kEmptySlot,       // hash slot never written
  kCodebook,        // payload dispatched to the color codebook
  kTrueGrid,        // payload dispatched to the true voxel grid
};

/// Counters accumulated across Decode() calls; mirrors what the SGPU units
/// touch so the cycle simulator and benches can account traffic.
struct DecodeCounters {
  u64 queries = 0;
  u64 bitmap_zero = 0;      // masked out by the bitmap
  u64 empty_slot = 0;       // bitmap said non-zero is off OR slot never filled
  u64 codebook_hits = 0;    // payload dispatched to the color codebook
  u64 true_grid_hits = 0;   // payload dispatched to the true voxel grid

  /// Accumulates another shard; exact (integer) in any merge order, so
  /// per-tile shards reduce to the same totals as a sequential count.
  void Merge(const DecodeCounters& other) {
    queries += other.queries;
    bitmap_zero += other.bitmap_zero;
    empty_slot += other.empty_slot;
    codebook_hits += other.codebook_hits;
    true_grid_hits += other.true_grid_hits;
  }

  /// Accounts one decode query that retired with outcome `cls` — what one
  /// scalar Decode() call adds. Integer adds, so batched decodes reduce to
  /// exactly the scalar totals in any order.
  void AddQuery(DecodeClass cls) {
    ++queries;
    switch (cls) {
      case DecodeClass::kBitmapZero: ++bitmap_zero; break;
      case DecodeClass::kEmptySlot: ++empty_slot; break;
      case DecodeClass::kCodebook: ++codebook_hits; break;
      case DecodeClass::kTrueGrid: ++true_grid_hits; break;
    }
  }
};

class SpNeRFModel {
 public:
  SpNeRFModel() = default;

  /// The preprocessing step. Throws if kept voxels overflow the 18-bit
  /// unified space.
  static SpNeRFModel Preprocess(const VqrfModel& vqrf,
                                const SpNeRFParams& params);

  [[nodiscard]] const SpNeRFParams& Params() const { return params_; }
  [[nodiscard]] const GridDims& Dims() const { return dims_; }
  [[nodiscard]] const SubgridPartition& Partition() const { return partition_; }
  [[nodiscard]] const std::vector<SubgridHashTable>& Tables() const {
    return tables_;
  }
  [[nodiscard]] const BitGrid& Bitmap() const { return bitmap_; }
  [[nodiscard]] const VqrfModel& Source() const { return *source_; }

  /// Online decode of one voxel vertex. Out-of-range positions decode to
  /// zero. `counters`, when provided, accumulates unit activity.
  [[nodiscard]] VoxelData Decode(Vec3i position,
                                 DecodeCounters* counters = nullptr) const {
    return Decode(position, params_.bitmap_masking, counters);
  }

  /// Decode with an explicit masking setting (Fig 6(b) compares the same
  /// tables with masking on and off).
  [[nodiscard]] VoxelData Decode(Vec3i position, bool bitmap_masking,
                                 DecodeCounters* counters) const;

  /// Classified decode of one vertex: same payload bytes as Decode(), plus
  /// the outcome class instead of counter side effects, so a batched caller
  /// can count each decode itself (see DecodeCounters::AddQuery).
  [[nodiscard]] VoxelData DecodeClassified(Vec3i position, bool bitmap_masking,
                                           DecodeClass& cls) const;

  /// Batched vertex decode: the wavefront's decode stage. `positions` holds
  /// one entry per (sample, corner) reference of a sample front; every
  /// vertex runs bitmap -> hash -> unified 18-bit dispatch exactly as a
  /// scalar Decode() would, writing its payload to `out[i]` and its outcome
  /// class to `classes[i]`. Counters are the caller's job: one AddQuery per
  /// entry keeps DecodeCounters bit-identical to the scalar path.
  void DecodeBatch(std::span<const Vec3i> positions, bool bitmap_masking,
                   std::span<VoxelData> out,
                   std::span<DecodeClass> classes) const;

  /// Aggregate build-time collision statistics over all subgrid tables.
  [[nodiscard]] HashBuildStats AggregateBuildStats() const;

  /// Fraction of non-zero voxels whose decode returns the wrong payload
  /// (they lost their hash slot to another non-zero point). This is the
  /// residual error bitmap masking cannot remove.
  [[nodiscard]] double NonZeroAliasRate() const;

  // --- Memory accounting (Fig 6(a)) ------------------------------------
  /// Hash tables: K * T * (18 + 8) bits.
  [[nodiscard]] u64 HashTableBytes() const;
  /// Occupancy bitmap: 1 bit per voxel.
  [[nodiscard]] u64 BitmapBytes() const;
  /// Color codebook, INT8.
  [[nodiscard]] u64 CodebookBytes() const;
  /// True voxel grid (kept features), INT8.
  [[nodiscard]] u64 TrueGridBytes() const;
  /// Everything SpNeRF keeps for rendering (the Fig 6(a) numerator).
  [[nodiscard]] u64 TotalBytes() const;

 private:
  friend void SaveSpNeRFModel(const SpNeRFModel&, std::ostream&);
  friend SpNeRFModel LoadSpNeRFModel(std::istream&, const VqrfModel&);

  SpNeRFParams params_;
  GridDims dims_;
  SubgridPartition partition_;
  std::vector<SubgridHashTable> tables_;
  BitGrid bitmap_;
  const VqrfModel* source_ = nullptr;  // non-owning; payload stores live here
};

}  // namespace spnerf
