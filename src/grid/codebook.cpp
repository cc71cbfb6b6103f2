#include "grid/codebook.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "grid/codebook_kernels.hpp"

namespace spnerf {
namespace {

float Dist2(const FeatureVec& a, const FeatureVec& b) {
  float acc = 0.0f;
  for (int c = 0; c < kColorFeatureDim; ++c) {
    const float d = a[c] - b[c];
    acc += d * d;
  }
  return acc;
}

/// Lane-major copy of feature vectors for the codebook kernels (layout in
/// codebook_kernels::LaneMajorView), padded with +inf vectors.
struct LaneMajor {
  AlignedVector<float> cols;
  std::size_t padded = 0;

  explicit LaneMajor(std::span<const FeatureVec> vecs) {
    constexpr std::size_t kPad = codebook_kernels::kLanePad;
    padded = (vecs.size() + kPad - 1) / kPad * kPad;
    cols.assign(padded * kColorFeatureDim,
                std::numeric_limits<float>::infinity());
    for (std::size_t i = 0; i < vecs.size(); ++i) {
      for (int c = 0; c < kColorFeatureDim; ++c) {
        cols[static_cast<std::size_t>(c) * padded + i] = vecs[i][c];
      }
    }
  }

  [[nodiscard]] codebook_kernels::LaneMajorView View() const {
    return {cols.data(), padded};
  }
};

}  // namespace

Codebook::Codebook(std::vector<FeatureVec> rows) : rows_(std::move(rows)) {
  SPNERF_CHECK_MSG(!rows_.empty(), "codebook cannot be empty");
}

Codebook Codebook::Train(std::span<const FeatureVec> samples, int size,
                         int iterations, Rng& rng, unsigned max_threads) {
  SPNERF_CHECK_MSG(size > 0, "codebook size must be positive");
  SPNERF_CHECK_MSG(!samples.empty(), "cannot train a codebook on zero samples");

  std::vector<FeatureVec> centroids;
  centroids.reserve(static_cast<std::size_t>(size));

  // k-means++ seeding: first centroid uniform, then proportional to D^2.
  // The D^2 refresh against the newest centroid is the seeding hot loop
  // (codebook-size x samples distance computations). With a SIMD kernel it
  // runs serially over a lane-major copy of the samples, fused with the
  // probability total, since one round is too short to pay for a pool
  // dispatch; otherwise the scalar loop runs across the pool and the total
  // is summed after it. Both update each entry independently with the same
  // min, so D^2 is bit-identical on every path and at any worker count. The
  // total is summed sequentially in index order and the walk picks in index
  // order, keeping the picked centroids deterministic too.
  const codebook_kernels::KernelTable* kernels = codebook_kernels::Active();
  const LaneMajor lane_samples(kernels ? samples
                                       : std::span<const FeatureVec>{});
  centroids.push_back(samples[rng.NextBelow(samples.size())]);
  AlignedVector<float> d2(kernels ? lane_samples.padded : samples.size(),
                          std::numeric_limits<float>::max());
  while (static_cast<int>(centroids.size()) < size) {
    const FeatureVec& latest = centroids.back();
    double total = 0.0;
    if (kernels) {
      total = kernels->d2_refresh(
          {lane_samples.View(), samples.size(), &latest, d2.data()});
    } else {
      ParallelFor(
          samples.size(),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              d2[i] = std::min(d2[i], Dist2(samples[i], latest));
            }
          },
          max_threads);
      for (std::size_t i = 0; i < samples.size(); ++i) total += d2[i];
    }
    if (total <= 0.0) {
      // All samples coincide with existing centroids: replicate a sample.
      centroids.push_back(samples[rng.NextBelow(samples.size())]);
      continue;
    }
    double r = rng.NextDouble() * total;
    std::size_t pick = samples.size() - 1;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      r -= d2[i];
      if (r <= 0.0) {
        pick = i;
        break;
      }
    }
    centroids.push_back(samples[pick]);
  }

  // Lloyd iterations (assignment step parallelised; deterministic).
  std::vector<int> assign(samples.size(), 0);
  std::vector<int> next_assign(samples.size(), 0);
  std::vector<FeatureVec> sums(static_cast<std::size_t>(size));
  std::vector<u64> counts(static_cast<std::size_t>(size));
  Codebook book(std::move(centroids));
  for (int it = 0; it < iterations; ++it) {
    book.NearestBatch(samples, next_assign, max_threads);
    bool changed = false;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (next_assign[i] != assign[i]) {
        assign[i] = next_assign[i];
        changed = true;
      }
    }
    if (!changed && it > 0) break;
    for (auto& s : sums) s.fill(0.0f);
    std::fill(counts.begin(), counts.end(), 0ull);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      auto& s = sums[static_cast<std::size_t>(assign[i])];
      for (int c = 0; c < kColorFeatureDim; ++c) s[c] += samples[i][c];
      ++counts[static_cast<std::size_t>(assign[i])];
    }
    for (int k = 0; k < size; ++k) {
      if (counts[static_cast<std::size_t>(k)] == 0) continue;  // keep old row
      FeatureVec& row = book.rows_[static_cast<std::size_t>(k)];
      const float inv = 1.0f / static_cast<float>(counts[static_cast<std::size_t>(k)]);
      for (int c = 0; c < kColorFeatureDim; ++c)
        row[c] = sums[static_cast<std::size_t>(k)][c] * inv;
    }
  }
  return book;
}

const FeatureVec& Codebook::Row(int id) const {
  SPNERF_CHECK_MSG(id >= 0 && id < Size(), "codebook row out of range: " << id);
  return rows_[static_cast<std::size_t>(id)];
}

int Codebook::Nearest(const FeatureVec& f) const {
  int best = 0;
  float bestd = std::numeric_limits<float>::max();
  for (int k = 0; k < Size(); ++k) {
    const float d = Dist2(f, rows_[static_cast<std::size_t>(k)]);
    if (d < bestd) {
      bestd = d;
      best = k;
    }
  }
  return best;
}

void Codebook::NearestBatch(std::span<const FeatureVec> queries,
                            std::span<int> out, unsigned max_threads) const {
  SPNERF_CHECK_MSG(out.size() == queries.size(),
                   "NearestBatch output size " << out.size()
                                               << " != query count "
                                               << queries.size());
  const codebook_kernels::KernelTable* kernels = codebook_kernels::Active();
  if (kernels == nullptr) {
    ParallelFor(
        queries.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            out[i] = Nearest(queries[i]);
          }
        },
        max_threads);
    return;
  }
  // The kernel carries row indices in float lanes, exact below 2^24.
  SPNERF_CHECK_MSG(rows_.size() < (std::size_t{1} << 24),
                   "codebook too large for the lane-major scan: "
                       << rows_.size() << " rows");
  const LaneMajor rows(rows_);
  ParallelFor(
      queries.size(),
      [&](std::size_t begin, std::size_t end) {
        kernels->nearest({rows.View(), queries.data() + begin,
                          out.data() + begin, end - begin});
      },
      max_threads);
}

float Codebook::QuantizationError(const FeatureVec& f) const {
  return Dist2(f, rows_[static_cast<std::size_t>(Nearest(f))]);
}

namespace codebook_kernels {

const KernelTable* ForPath(simd::Path path) {
  switch (path) {
    case simd::Path::kScalar:
      // No table: Codebook::NearestBatch and Train run the scalar loops.
      return nullptr;
    case simd::Path::kAvx2:
      return Avx2Table();
    case simd::Path::kNeon:
      return NeonTable();
  }
  return nullptr;
}

const KernelTable* Active() { return ForPath(simd::ActivePath()); }

}  // namespace codebook_kernels
}  // namespace spnerf
