// VQRF compressed volumetric model (Li et al., CVPR 2023), the representation
// SpNeRF operates on. A dense DVGO-style grid is compressed by:
//   1. voxel pruning       — drop low-importance voxels entirely;
//   2. vector quantisation — most surviving voxels store only a codebook id
//                            into a 4096 x 12 color-feature codebook;
//   3. kept ("true") voxels — the most important fraction keeps its full
//                            feature vector, stored INT8 with one scale.
// Densities of all surviving voxels are stored INT8.
//
// The original VQRF *restores* the full dense grid from this model before
// rendering (Fig. 1 top path). SpNeRF instead preprocesses this model into
// hash tables and decodes online (src/encoding).
#pragma once

#include <iosfwd>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "grid/bitmap.hpp"
#include "grid/codebook.hpp"
#include "grid/dense_grid.hpp"
#include "grid/quantization.hpp"

namespace spnerf {

struct VqrfBuildParams {
  /// Fraction of non-zero voxels pruned away (lowest importance first).
  double prune_fraction = 0.08;
  /// Fraction of surviving voxels kept as full "true" voxels (highest
  /// importance first); the rest are vector-quantised.
  double keep_fraction = 0.20;
  int codebook_size = kCodebookSize;
  int kmeans_iterations = 8;
  /// k-means trains on at most this many sampled feature vectors.
  int max_vq_train_samples = 20000;
  u64 seed = 1;
  /// Worker cap for the parallel build loops (the k-means and VQ
  /// codebook assignments, and the seeding refresh when no SIMD kernel is
  /// active); 0 uses every pool worker. Pure execution policy: the built
  /// model is byte-identical at any value, so asset cache keys exclude it.
  unsigned max_threads = 0;
};

/// One surviving voxel: where it lives and where its payload is.
struct VoxelRecord {
  VoxelIndex index = 0;  // flattened grid position
  bool kept = false;     // true voxel (full features) vs vector-quantised
  u32 payload_id = 0;    // codebook row (if !kept) or kept-slot (if kept)
  i8 density_q = 0;      // INT8 density
};

class VqrfModel {
 public:
  VqrfModel() = default;

  /// Compresses a full-precision dense grid. Importance is
  /// |density| * ||features||_2, a proxy for VQRF's ray-weight importance.
  static VqrfModel Build(const DenseGrid& full, const VqrfBuildParams& params);

  [[nodiscard]] const GridDims& Dims() const { return dims_; }
  [[nodiscard]] const Codebook& GetCodebook() const { return codebook_; }
  [[nodiscard]] const Int8Quantizer& FeatureQuantizer() const {
    return feature_quant_;
  }
  [[nodiscard]] const Int8Quantizer& DensityQuantizer() const {
    return density_quant_;
  }
  [[nodiscard]] const std::vector<VoxelRecord>& Records() const {
    return records_;
  }
  [[nodiscard]] const BitGrid& OccupancyBitmap() const { return bitmap_; }

  [[nodiscard]] u64 NonZeroCount() const { return records_.size(); }
  [[nodiscard]] u64 KeptCount() const { return kept_count_; }
  [[nodiscard]] u64 VqCount() const { return records_.size() - kept_count_; }

  /// Kept ("true grid") INT8 features, kColorFeatureDim per kept slot.
  [[nodiscard]] const std::vector<i8>& KeptFeatures() const {
    return kept_features_;
  }
  /// Codebook rows quantised to INT8 with the shared feature scale (this is
  /// what the on-chip Color Codebook buffer holds).
  [[nodiscard]] const std::vector<i8>& CodebookInt8() const {
    return codebook_int8_;
  }

  /// Dequantised payload for one record (what a perfect lookup returns).
  [[nodiscard]] VoxelData DecodeRecord(const VoxelRecord& rec) const;

  /// Record lookup by voxel index; nullopt when the voxel was pruned/zero.
  [[nodiscard]] std::optional<VoxelRecord> FindRecord(VoxelIndex index) const;

  /// VQRF's rendering-time representation: the restored full dense grid
  /// (dequantised FP32, zeros where pruned). This is the memory the paper's
  /// Fig 6(a) charges to "original VQRF".
  [[nodiscard]] DenseGrid Restore() const;

  /// Bytes of the restored dense grid (FP32 density + 12 FP32 features).
  [[nodiscard]] u64 RestoredBytes() const;

  /// Bytes of the compressed model as stored on disk: codebook INT8 +
  /// kept features INT8 + per-record (density INT8 + 18-bit payload id)
  /// + occupancy bitmap + scales.
  [[nodiscard]] u64 CompressedBytes() const;

 private:
  friend void SaveVqrfModel(const VqrfModel&, std::ostream&);
  friend VqrfModel LoadVqrfModel(std::istream&);

  GridDims dims_;
  Codebook codebook_;
  std::vector<i8> codebook_int8_;
  Int8Quantizer feature_quant_;
  Int8Quantizer density_quant_;
  std::vector<VoxelRecord> records_;  // ascending by index
  std::vector<i8> kept_features_;
  u64 kept_count_ = 0;
  BitGrid bitmap_;
  std::unordered_map<VoxelIndex, u32> record_by_index_;
};

}  // namespace spnerf
