// Content-addressed cache keys for built scene assets. A key is the FNV-1a
// hash of a canonical field string covering everything that changes the
// built bytes: the asset format version, the scene id, and every build
// parameter (DatasetParams/VqrfBuildParams for datasets, SpNeRFParams for
// codecs, the reduction factor for coarse occupancy). Execution-policy
// fields (worker caps) are deliberately excluded: they never change the
// content, so warm caches survive thread-count changes.
//
// On-disk artifacts are stored as `<kind>-<hash16>.spnfa`; bumping
// kAssetFormatVersion changes every key and thereby invalidates every
// previously written artifact without any explicit cleanup pass.
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"
#include "encoding/spnerf_codec.hpp"
#include "scene/dataset.hpp"

namespace spnerf {

/// Bumped whenever any asset serialization layout changes. Hashing it into
/// every key makes stale on-disk artifacts unreachable (miss, not error).
/// v2: added an octree artifact kind, since retired. Retiring it changed no
/// remaining artifact's bytes, so the version stayed and v2 stores stay
/// warm; their octree files are simply never read.
inline constexpr u32 kAssetFormatVersion = 2;

/// Identity of one cached artifact: what kind it is plus the 16-hex-digit
/// content hash of its build inputs.
struct AssetKey {
  std::string kind;  // "dataset" | "codec" | "coarse"
  std::string hash;  // 16 lowercase hex digits (FNV-1a 64)

  [[nodiscard]] std::string FileName() const {
    return kind + "-" + hash + ".spnfa";
  }
  friend bool operator==(const AssetKey&, const AssetKey&) = default;
};

/// Accumulates named, typed fields into a canonical string and hashes it.
/// Floating-point fields hash their exact bit pattern, so keys distinguish
/// every representable value and never depend on formatting.
class AssetKeyBuilder {
 public:
  AssetKeyBuilder& Field(std::string_view name, i64 value);
  AssetKeyBuilder& Field(std::string_view name, u64 value);
  AssetKeyBuilder& Field(std::string_view name, double value);
  AssetKeyBuilder& Field(std::string_view name, float value);
  AssetKeyBuilder& Field(std::string_view name, bool value);
  AssetKeyBuilder& Field(std::string_view name, std::string_view value);
  /// Without this overload a string literal would prefer the standard
  /// pointer->bool conversion over string_view and hash as a boolean.
  AssetKeyBuilder& Field(std::string_view name, const char* value) {
    return Field(name, std::string_view(value));
  }

  /// The canonical field string hashed by Finish (for debugging/tests).
  [[nodiscard]] const std::string& Canonical() const { return canonical_; }

  /// 16-hex-digit FNV-1a 64 hash of the canonical string.
  [[nodiscard]] std::string Finish() const;

 private:
  std::string canonical_;
};

/// Key of the voxelised + VQRF-compressed dataset bundle for one scene.
AssetKey DatasetAssetKey(SceneId id, const DatasetParams& params);

/// Key of the SpNeRF preprocessing output, derived from the dataset it was
/// preprocessed from plus the codec parameters.
AssetKey CodecAssetKey(const AssetKey& dataset_key, const SpNeRFParams& params);

/// Key of the coarse occupancy skip structure for one dataset + factor.
AssetKey CoarseAssetKey(const AssetKey& dataset_key, int factor);

}  // namespace spnerf
