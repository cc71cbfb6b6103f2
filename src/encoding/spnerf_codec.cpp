#include "encoding/spnerf_codec.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"

namespace spnerf {
namespace {

/// Maps a VQRF record to the unified 18-bit payload index.
u32 UnifiedPayload(const VoxelRecord& rec, int codebook_size) {
  if (rec.kept) {
    return static_cast<u32>(codebook_size) + rec.payload_id;
  }
  return rec.payload_id;
}

}  // namespace

SpNeRFModel SpNeRFModel::Preprocess(const VqrfModel& vqrf,
                                    const SpNeRFParams& params) {
  SPNERF_CHECK_MSG(params.subgrid_count > 0, "subgrid_count must be positive");
  SPNERF_CHECK_MSG(params.table_size > 0, "table_size must be positive");

  SpNeRFModel model;
  model.params_ = params;
  model.dims_ = vqrf.Dims();
  model.partition_ = SubgridPartition(model.dims_, params.subgrid_count);
  model.bitmap_ = vqrf.OccupancyBitmap();
  model.source_ = &vqrf;

  const int codebook_size = vqrf.GetCodebook().Size();
  const u64 max_unified =
      static_cast<u64>(codebook_size) + vqrf.KeptCount();
  SPNERF_CHECK_MSG(max_unified < HashEntry::kEmptyPayload,
                   "unified payload space overflow: codebook "
                       << codebook_size << " + kept " << vqrf.KeptCount());

  model.tables_.assign(static_cast<std::size_t>(params.subgrid_count),
                       SubgridHashTable(params.table_size));

  // Stage 1+2 of preprocessing: records are already the extracted non-zero
  // set P_nz in ascending index order; bucket them by subgrid.
  for (const VoxelRecord& rec : vqrf.Records()) {
    const Vec3i p = model.dims_.Unflatten(rec.index);
    const int k = model.partition_.SubgridOf(p);
    model.tables_[static_cast<std::size_t>(k)].Insert(
        p, UnifiedPayload(rec, codebook_size), rec.density_q,
        params.collision_policy);
  }

  const HashBuildStats agg = model.AggregateBuildStats();
  SPNERF_LOG_DEBUG << "SpNeRF preprocess: K=" << params.subgrid_count
                   << " T=" << params.table_size << " inserted=" << agg.inserted
                   << " collisions=" << agg.collisions << " (rate "
                   << agg.CollisionRate() << ")";
  return model;
}

VoxelData SpNeRFModel::Decode(Vec3i position, bool bitmap_masking,
                              DecodeCounters* counters) const {
  DecodeClass cls;
  const VoxelData out = DecodeClassified(position, bitmap_masking, cls);
  if (counters) counters->AddQuery(cls);
  return out;
}

VoxelData SpNeRFModel::DecodeClassified(Vec3i position, bool bitmap_masking,
                                        DecodeClass& cls) const {
  SPNERF_CHECK_MSG(source_ != nullptr, "decode on an empty SpNeRFModel");

  if (!dims_.Contains(position)) {
    cls = DecodeClass::kBitmapZero;
    return {};
  }

  // 1. Bitmap masking (BLU): zero bit => decoded value is exactly zero.
  if (bitmap_masking && !bitmap_.Test(position)) {
    cls = DecodeClass::kBitmapZero;
    return {};
  }

  // 2. Hash lookup (HMU) in this position's subgrid table.
  const int k = partition_.SubgridOf(position);
  const HashEntry& entry =
      tables_[static_cast<std::size_t>(k)].Lookup(position);
  if (!entry.Occupied()) {
    // Never-written slot: decodes to zero with or without masking.
    cls = DecodeClass::kEmptySlot;
    return {};
  }

  // 3. Unified 18-bit dispatch + 4. de-quantisation.
  const VqrfModel& src = *source_;
  VoxelData out;
  out.density = src.DensityQuantizer().Dequantize(entry.density_q);
  const int codebook_size = src.GetCodebook().Size();
  if (entry.payload < static_cast<u32>(codebook_size)) {
    cls = DecodeClass::kCodebook;
    const auto base =
        static_cast<std::size_t>(entry.payload) * kColorFeatureDim;
    for (int c = 0; c < kColorFeatureDim; ++c)
      out.features[c] =
          src.FeatureQuantizer().Dequantize(src.CodebookInt8()[base + c]);
  } else {
    cls = DecodeClass::kTrueGrid;
    const auto slot = static_cast<std::size_t>(
        entry.payload - static_cast<u32>(codebook_size));
    const auto base = slot * kColorFeatureDim;
    SPNERF_CHECK_MSG(base + kColorFeatureDim <= src.KeptFeatures().size(),
                     "true-grid slot out of range: " << slot);
    for (int c = 0; c < kColorFeatureDim; ++c)
      out.features[c] =
          src.FeatureQuantizer().Dequantize(src.KeptFeatures()[base + c]);
  }
  return out;
}

void SpNeRFModel::DecodeBatch(std::span<const Vec3i> positions,
                              bool bitmap_masking, std::span<VoxelData> out,
                              std::span<DecodeClass> classes) const {
  SPNERF_CHECK_MSG(out.size() == positions.size() &&
                       classes.size() == positions.size(),
                   "DecodeBatch span sizes must match");
  for (std::size_t i = 0; i < positions.size(); ++i) {
    out[i] = DecodeClassified(positions[i], bitmap_masking, classes[i]);
  }
}

HashBuildStats SpNeRFModel::AggregateBuildStats() const {
  HashBuildStats agg;
  for (const auto& table : tables_) {
    const HashBuildStats& s = table.BuildStats();
    agg.inserted += s.inserted;
    agg.collisions += s.collisions;
    agg.occupied_slots += s.occupied_slots;
  }
  return agg;
}

double SpNeRFModel::NonZeroAliasRate() const {
  SPNERF_CHECK_MSG(source_ != nullptr, "alias rate on an empty SpNeRFModel");
  const int codebook_size = source_->GetCodebook().Size();
  u64 aliased = 0;
  const auto& records = source_->Records();
  for (const VoxelRecord& rec : records) {
    const Vec3i p = dims_.Unflatten(rec.index);
    const int k = partition_.SubgridOf(p);
    const HashEntry& entry =
        tables_[static_cast<std::size_t>(k)].Lookup(p);
    if (!entry.Occupied() ||
        entry.payload != UnifiedPayload(rec, codebook_size)) {
      ++aliased;
    }
  }
  return records.empty()
             ? 0.0
             : static_cast<double>(aliased) / static_cast<double>(records.size());
}

u64 SpNeRFModel::HashTableBytes() const {
  u64 bits = 0;
  for (const auto& t : tables_) bits += t.SizeBits();
  return (bits + 7) / 8;
}

u64 SpNeRFModel::BitmapBytes() const { return bitmap_.SizeBytes(); }

u64 SpNeRFModel::CodebookBytes() const {
  return source_ ? source_->CodebookInt8().size() : 0;
}

u64 SpNeRFModel::TrueGridBytes() const {
  return source_ ? source_->KeptFeatures().size() : 0;
}

u64 SpNeRFModel::TotalBytes() const {
  return HashTableBytes() + BitmapBytes() + CodebookBytes() + TrueGridBytes() +
         2 * sizeof(float);  // de-quantisation scales
}

}  // namespace spnerf
