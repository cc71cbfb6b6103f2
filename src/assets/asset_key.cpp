#include "assets/asset_key.hpp"

#include <bit>
#include <cstdio>

namespace spnerf {
namespace {

u64 Fnv1a64(std::string_view s) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex16(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

AssetKeyBuilder& AssetKeyBuilder::Field(std::string_view name, i64 value) {
  canonical_.append(name).append("=").append(std::to_string(value)).append(";");
  return *this;
}

AssetKeyBuilder& AssetKeyBuilder::Field(std::string_view name, u64 value) {
  canonical_.append(name).append("=u").append(std::to_string(value)).append(";");
  return *this;
}

AssetKeyBuilder& AssetKeyBuilder::Field(std::string_view name, double value) {
  canonical_.append(name).append("=d").append(
      Hex16(std::bit_cast<u64>(value))).append(";");
  return *this;
}

AssetKeyBuilder& AssetKeyBuilder::Field(std::string_view name, float value) {
  canonical_.append(name).append("=f").append(
      Hex16(std::bit_cast<u32>(value))).append(";");
  return *this;
}

AssetKeyBuilder& AssetKeyBuilder::Field(std::string_view name, bool value) {
  canonical_.append(name).append(value ? "=b1;" : "=b0;");
  return *this;
}

AssetKeyBuilder& AssetKeyBuilder::Field(std::string_view name,
                                        std::string_view value) {
  canonical_.append(name).append("=s").append(value).append(";");
  return *this;
}

std::string AssetKeyBuilder::Finish() const { return Hex16(Fnv1a64(canonical_)); }

namespace {

/// Every field of DatasetParams/VqrfBuildParams that shapes the built bytes.
/// `max_threads` is intentionally absent (execution policy, not content).
AssetKeyBuilder DatasetFields(SceneId id, const DatasetParams& p) {
  AssetKeyBuilder b;
  b.Field("format", static_cast<u64>(kAssetFormatVersion))
      .Field("scene", SceneName(id))
      .Field("res", static_cast<i64>(p.resolution_override))
      .Field("prune", p.vqrf.prune_fraction)
      .Field("keep", p.vqrf.keep_fraction)
      .Field("codebook", static_cast<i64>(p.vqrf.codebook_size))
      .Field("kmeans", static_cast<i64>(p.vqrf.kmeans_iterations))
      .Field("vq_samples", static_cast<i64>(p.vqrf.max_vq_train_samples))
      .Field("seed", p.vqrf.seed);
  return b;
}

}  // namespace

AssetKey DatasetAssetKey(SceneId id, const DatasetParams& params) {
  return {"dataset", DatasetFields(id, params).Finish()};
}

AssetKey CodecAssetKey(const AssetKey& dataset_key,
                       const SpNeRFParams& params) {
  AssetKeyBuilder b;
  b.Field("format", static_cast<u64>(kAssetFormatVersion))
      .Field("dataset", dataset_key.hash)
      .Field("subgrids", static_cast<i64>(params.subgrid_count))
      .Field("table", static_cast<u64>(params.table_size))
      .Field("masking", params.bitmap_masking)
      .Field("policy", static_cast<i64>(params.collision_policy));
  return {"codec", b.Finish()};
}

AssetKey CoarseAssetKey(const AssetKey& dataset_key, int factor) {
  AssetKeyBuilder b;
  b.Field("format", static_cast<u64>(kAssetFormatVersion))
      .Field("dataset", dataset_key.hash)
      .Field("factor", static_cast<i64>(factor));
  return {"coarse", b.Finish()};
}

}  // namespace spnerf
