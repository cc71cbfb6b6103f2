// Versioned binary serialization of built scene assets: the dataset bundle
// (full grid + VQRF model), the SpNeRF preprocessing output, and the coarse
// occupancy skip structure. Every artifact starts with the shared "SPNA"
// magic, the asset format version (kAssetFormatVersion), and a kind tag, so
// corrupted, truncated, or stale files are rejected with a clean SpnerfError
// instead of being misparsed.
//
// All payloads are written as explicit little-endian arrays (never host
// struct images), so a save → load → save round trip is byte-identical.
#pragma once

#include <iosfwd>
#include <string>

#include "assets/asset_key.hpp"
#include "grid/occupancy.hpp"
#include "scene/dataset.hpp"

namespace spnerf {

/// "SPNA": shared magic of every asset artifact.
inline constexpr u32 kAssetMagic = 0x53504e41u;

/// Kind tags distinguishing artifact payloads behind the shared header.
enum class AssetPayloadKind : u32 {
  kDataset = 1,
  kCodec = 2,
  kCoarse = 3,
};

/// Writes the shared artifact header (magic + version + kind).
void WriteAssetHeader(std::ostream& out, AssetPayloadKind kind);

/// Validates the shared header; throws SpnerfError on a bad magic, another
/// format version, or a different payload kind.
void ExpectAssetHeader(std::istream& in, AssetPayloadKind kind);

// --- dataset bundle ------------------------------------------------------
// Stores the scene id, the voxelised full grid and the VQRF compression;
// the procedural Scene itself is rebuilt from the id on load (it is a pure
// function of the id and costs microseconds).
void SaveSceneDataset(const SceneDataset& dataset, std::ostream& out);
SceneDataset LoadSceneDataset(std::istream& in);

// --- SpNeRF codec --------------------------------------------------------
// Stores params, dims, the per-subgrid tables (slots + build stats) and the
// bitmap. The payload stores live in the source VqrfModel, so loading
// rewires the codec onto the dataset it was preprocessed from; `source`
// must be that dataset's model (dims are cross-checked).
void SaveSpNeRFModel(const SpNeRFModel& model, std::ostream& out);
SpNeRFModel LoadSpNeRFModel(std::istream& in, const VqrfModel& source);

// --- coarse occupancy ----------------------------------------------------
// The skip structure's only artifact: the occupancy octree is derived from
// it on acquire (assets/asset_cache.hpp).
void SaveCoarseOccupancy(const CoarseOccupancy& coarse, std::ostream& out);
CoarseOccupancy LoadCoarseOccupancy(std::istream& in);

}  // namespace spnerf
