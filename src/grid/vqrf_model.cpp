#include "grid/vqrf_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace spnerf {
namespace {

double Importance(const DenseGrid& grid, VoxelIndex i) {
  const float* f = grid.Features(i);
  double norm2 = 0.0;
  for (int c = 0; c < kColorFeatureDim; ++c)
    norm2 += static_cast<double>(f[c]) * f[c];
  return std::fabs(static_cast<double>(grid.Density(i))) *
         (1.0 + std::sqrt(norm2));
}

FeatureVec FeaturesOf(const DenseGrid& grid, VoxelIndex i) {
  FeatureVec fv{};
  const float* f = grid.Features(i);
  for (int c = 0; c < kColorFeatureDim; ++c) fv[c] = f[c];
  return fv;
}

}  // namespace

VqrfModel VqrfModel::Build(const DenseGrid& full, const VqrfBuildParams& params) {
  SPNERF_CHECK_MSG(params.prune_fraction >= 0.0 && params.prune_fraction < 1.0,
                   "prune_fraction must be in [0,1)");
  SPNERF_CHECK_MSG(params.keep_fraction >= 0.0 && params.keep_fraction <= 1.0,
                   "keep_fraction must be in [0,1]");
  SPNERF_CHECK_MSG(params.codebook_size > 0, "codebook_size must be positive");

  VqrfModel model;
  model.dims_ = full.Dims();

  // ---- 1. Pruning: sort non-zero voxels by importance, drop the tail. ----
  std::vector<VoxelIndex> nz = full.NonZeroIndices();
  SPNERF_CHECK_MSG(!nz.empty(), "cannot build a VQRF model from an empty grid");

  std::vector<std::pair<double, VoxelIndex>> ranked;
  ranked.reserve(nz.size());
  for (VoxelIndex i : nz) ranked.emplace_back(Importance(full, i), i);
  std::sort(ranked.begin(), ranked.end());

  const auto pruned =
      static_cast<std::size_t>(params.prune_fraction * static_cast<double>(ranked.size()));
  std::vector<VoxelIndex> survivors;
  survivors.reserve(ranked.size() - pruned);
  for (std::size_t r = pruned; r < ranked.size(); ++r)
    survivors.push_back(ranked[r].second);
  std::sort(survivors.begin(), survivors.end());

  // ---- 2. Keep/VQ split by importance rank. ----
  const auto keep_count = static_cast<std::size_t>(
      params.keep_fraction * static_cast<double>(survivors.size()));
  const u64 max_kept = kUnifiedIndexSpace - static_cast<u64>(params.codebook_size);
  SPNERF_CHECK_MSG(keep_count <= max_kept,
                   "kept voxels (" << keep_count
                                   << ") exceed the 18-bit unified address space ("
                                   << max_kept << " true-grid slots)");
  // Highest-importance survivors are kept; recompute the cut via rank.
  // Ranks pair importance with the survivor's position, which orders like
  // its index (survivors are sorted), and the sort compares importance
  // only, so the cut is the one an (importance, index) ranking gives.
  std::vector<std::pair<double, std::size_t>> surv_ranked;
  surv_ranked.reserve(survivors.size());
  for (std::size_t s = 0; s < survivors.size(); ++s)
    surv_ranked.emplace_back(Importance(full, survivors[s]), s);
  std::sort(surv_ranked.begin(), surv_ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<bool> kept(survivors.size(), false);  // by survivor position
  for (std::size_t r = 0; r < keep_count; ++r)
    kept[surv_ranked[r].second] = true;
  std::vector<VoxelIndex> vq_voxels;  // ascending, like survivors
  vq_voxels.reserve(survivors.size() - keep_count);
  for (std::size_t s = 0; s < survivors.size(); ++s)
    if (!kept[s]) vq_voxels.push_back(survivors[s]);

  // ---- 3. Shared feature scale over all surviving features. ----
  std::vector<float> all_feats;
  all_feats.reserve(survivors.size() * kColorFeatureDim);
  std::vector<float> all_density;
  all_density.reserve(survivors.size());
  for (VoxelIndex i : survivors) {
    const float* f = full.Features(i);
    all_feats.insert(all_feats.end(), f, f + kColorFeatureDim);
    all_density.push_back(full.Density(i));
  }
  model.feature_quant_ = Int8Quantizer::FitAbsMax(all_feats);
  model.density_quant_ = Int8Quantizer::FitAbsMax(all_density);

  // ---- 4. Codebook training on a sample of VQ-eligible features. ----
  Rng rng(params.seed);
  std::vector<FeatureVec> train;
  train.reserve(static_cast<std::size_t>(params.max_vq_train_samples));
  {
    // Degenerate case, every survivor kept: train on the survivors.
    const std::vector<VoxelIndex>& pool =
        vq_voxels.empty() ? survivors : vq_voxels;
    const std::size_t want =
        std::min<std::size_t>(pool.size(),
                              static_cast<std::size_t>(params.max_vq_train_samples));
    for (std::size_t s = 0; s < want; ++s) {
      const VoxelIndex i =
          pool[pool.size() == want ? s : rng.NextBelow(pool.size())];
      train.push_back(FeaturesOf(full, i));
    }
  }
  const int book_size =
      std::min<int>(params.codebook_size, static_cast<int>(train.size()));
  model.codebook_ = Codebook::Train(train, std::max(book_size, 1),
                                    params.kmeans_iterations, rng,
                                    params.max_threads);

  // Codebook rows quantised with the shared feature scale (on-chip format).
  model.codebook_int8_.resize(
      static_cast<std::size_t>(model.codebook_.Size()) * kColorFeatureDim);
  for (int k = 0; k < model.codebook_.Size(); ++k) {
    const FeatureVec& row = model.codebook_.Row(k);
    for (int c = 0; c < kColorFeatureDim; ++c) {
      model.codebook_int8_[static_cast<std::size_t>(k) * kColorFeatureDim + c] =
          model.feature_quant_.Quantize(row[c]);
    }
  }

  // ---- 5. Emit records in ascending index order. ----
  // Codebook assignment is the hot loop (VQ voxels x codebook-size distance
  // computations): gather the VQ voxels' features once and assign them in
  // one parallel NearestBatch, then emit sequentially so the record order
  // stays deterministic.
  std::vector<FeatureVec> vq_features;
  vq_features.reserve(vq_voxels.size());
  for (VoxelIndex i : vq_voxels) vq_features.push_back(FeaturesOf(full, i));
  std::vector<int> vq_ids(vq_voxels.size(), 0);
  model.codebook_.NearestBatch(vq_features, vq_ids, params.max_threads);

  model.records_.reserve(survivors.size());
  model.kept_features_.reserve(keep_count * kColorFeatureDim);
  u32 next_kept_slot = 0;
  std::size_t next_vq = 0;
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    const VoxelIndex i = survivors[s];
    VoxelRecord rec;
    rec.index = i;
    rec.density_q = model.density_quant_.Quantize(full.Density(i));
    if (kept[s]) {
      rec.kept = true;
      rec.payload_id = next_kept_slot++;
      const float* f = full.Features(i);
      for (int c = 0; c < kColorFeatureDim; ++c)
        model.kept_features_.push_back(model.feature_quant_.Quantize(f[c]));
    } else {
      rec.kept = false;
      rec.payload_id = static_cast<u32>(vq_ids[next_vq++]);
    }
    model.record_by_index_[i] = static_cast<u32>(model.records_.size());
    model.records_.push_back(rec);
  }
  model.kept_count_ = next_kept_slot;

  // ---- 6. Occupancy bitmap over surviving voxels. ----
  model.bitmap_ = BitGrid(model.dims_);
  for (const VoxelRecord& rec : model.records_) model.bitmap_.Set(rec.index, true);

  SPNERF_LOG_DEBUG << "VQRF build: " << model.records_.size() << " survivors, "
                   << model.kept_count_ << " kept, codebook "
                   << model.codebook_.Size();
  return model;
}

VoxelData VqrfModel::DecodeRecord(const VoxelRecord& rec) const {
  VoxelData v;
  v.density = density_quant_.Dequantize(rec.density_q);
  if (rec.kept) {
    const std::size_t base =
        static_cast<std::size_t>(rec.payload_id) * kColorFeatureDim;
    SPNERF_CHECK_MSG(base + kColorFeatureDim <= kept_features_.size(),
                     "kept slot out of range");
    for (int c = 0; c < kColorFeatureDim; ++c)
      v.features[c] = feature_quant_.Dequantize(kept_features_[base + c]);
  } else {
    const std::size_t base =
        static_cast<std::size_t>(rec.payload_id) * kColorFeatureDim;
    SPNERF_CHECK_MSG(base + kColorFeatureDim <= codebook_int8_.size(),
                     "codebook row out of range");
    for (int c = 0; c < kColorFeatureDim; ++c)
      v.features[c] = feature_quant_.Dequantize(codebook_int8_[base + c]);
  }
  return v;
}

std::optional<VoxelRecord> VqrfModel::FindRecord(VoxelIndex index) const {
  auto it = record_by_index_.find(index);
  if (it == record_by_index_.end()) return std::nullopt;
  return records_[it->second];
}

DenseGrid VqrfModel::Restore() const {
  DenseGrid grid(dims_);
  for (const VoxelRecord& rec : records_) {
    const VoxelData v = DecodeRecord(rec);
    grid.SetDensity(rec.index, v.density);
    float* f = grid.MutableFeatures(rec.index);
    for (int c = 0; c < kColorFeatureDim; ++c) f[c] = v.features[c];
  }
  return grid;
}

u64 VqrfModel::RestoredBytes() const {
  return dims_.VoxelCount() * sizeof(float) * (1 + kColorFeatureDim);
}

u64 VqrfModel::CompressedBytes() const {
  const u64 codebook = codebook_int8_.size();            // INT8 rows
  const u64 kept = kept_features_.size();                // INT8 features
  // Per record: INT8 density + 18-bit payload id, bit-packed.
  const u64 per_record_bits = 8 + kUnifiedIndexBits;
  const u64 records = (records_.size() * per_record_bits + 7) / 8;
  const u64 bitmap = bitmap_.SizeBytes();
  const u64 scales = 2 * sizeof(float);
  return codebook + kept + records + bitmap + scales;
}

}  // namespace spnerf
