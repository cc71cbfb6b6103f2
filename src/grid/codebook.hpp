// Vector-quantisation codebook for color features (VQRF's 4096 x 12
// codebook). Built with seeded k-means over the features of VQ-eligible
// voxels.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace spnerf {

using FeatureVec = std::array<float, kColorFeatureDim>;

class Codebook {
 public:
  Codebook() = default;
  explicit Codebook(std::vector<FeatureVec> rows);

  /// Trains `size` centroids on `samples` with k-means (k-means++ seeding,
  /// fixed iteration budget). If there are fewer distinct samples than
  /// centroids the surplus rows stay at sampled positions. `max_threads`
  /// caps the parallel Lloyd assignment (NearestBatch) and, when no SIMD
  /// kernel is active, the seeding refresh loop; 0 = every pool worker. The
  /// result is identical for any value and on every SIMD path.
  static Codebook Train(std::span<const FeatureVec> samples, int size,
                        int iterations, Rng& rng, unsigned max_threads = 0);

  [[nodiscard]] int Size() const { return static_cast<int>(rows_.size()); }
  [[nodiscard]] const FeatureVec& Row(int id) const;

  /// Index of the nearest centroid (L2): the lowest index among the
  /// smallest distances, 0 when none is below FLT_MAX.
  [[nodiscard]] int Nearest(const FeatureVec& f) const;

  /// out[i] = Nearest(queries[i]) for every query, across the pool
  /// (`max_threads` caps it; 0 = every pool worker). Runs the active SIMD
  /// path's lane-major kernel, or the Nearest loop when none is active;
  /// the result is identical either way.
  void NearestBatch(std::span<const FeatureVec> queries, std::span<int> out,
                    unsigned max_threads = 0) const;

  /// Squared L2 distance of `f` to its nearest centroid.
  [[nodiscard]] float QuantizationError(const FeatureVec& f) const;

  /// Storage: kColorFeatureDim INT8 values per row (codebook entries are
  /// kept on-chip in the Color Codebook buffer, INT8 like the true grid).
  [[nodiscard]] u64 SizeBytes() const {
    return rows_.size() * kColorFeatureDim;
  }

  [[nodiscard]] const std::vector<FeatureVec>& Rows() const { return rows_; }

 private:
  std::vector<FeatureVec> rows_;
};

}  // namespace spnerf
