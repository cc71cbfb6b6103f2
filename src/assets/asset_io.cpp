#include "assets/asset_io.hpp"

#include <istream>
#include <ostream>

#include "common/binary_io.hpp"
#include "grid/vqrf_io.hpp"

namespace spnerf {

void WriteAssetHeader(std::ostream& out, AssetPayloadKind kind) {
  WritePod<u32>(out, kAssetMagic);
  WritePod<u32>(out, kAssetFormatVersion);
  WritePod<u32>(out, static_cast<u32>(kind));
}

void ExpectAssetHeader(std::istream& in, AssetPayloadKind kind) {
  ExpectMagic(in, kAssetMagic, "SpNeRF asset");
  ExpectVersion(in, kAssetFormatVersion, "SpNeRF asset");
  const u32 got = ReadPod<u32>(in);
  SPNERF_CHECK_MSG(got == static_cast<u32>(kind),
                   "asset payload kind mismatch: file holds kind " << got
                       << ", expected " << static_cast<u32>(kind));
}

// --- dataset bundle ------------------------------------------------------

void SaveSceneDataset(const SceneDataset& dataset, std::ostream& out) {
  SPNERF_CHECK_MSG(dataset.vqrf != nullptr,
                   "dataset has no VQRF model (not built via BuildDataset?)");
  WriteAssetHeader(out, AssetPayloadKind::kDataset);
  WriteString(out, SceneName(dataset.id));
  const GridDims& dims = dataset.full_grid.Dims();
  WritePod<i32>(out, dims.nx);
  WritePod<i32>(out, dims.ny);
  WritePod<i32>(out, dims.nz);
  WriteVector(out, dataset.full_grid.DensityRaw());
  WriteVector(out, dataset.full_grid.FeaturesRaw());
  SaveVqrfModel(*dataset.vqrf, out);
  SPNERF_CHECK_MSG(out.good(), "dataset asset write failed");
}

SceneDataset LoadSceneDataset(std::istream& in) {
  ExpectAssetHeader(in, AssetPayloadKind::kDataset);
  SceneDataset ds;
  ds.id = SceneFromName(ReadString(in));
  ds.scene = BuildScene(ds.id);
  GridDims dims;
  dims.nx = ReadPod<i32>(in);
  dims.ny = ReadPod<i32>(in);
  dims.nz = ReadPod<i32>(in);
  SPNERF_CHECK_MSG(dims.nx > 0 && dims.ny > 0 && dims.nz > 0,
                   "corrupt dataset asset: non-positive grid dims");
  std::vector<float> density = ReadVector<float>(in);
  std::vector<float> features = ReadVector<float>(in);
  ds.full_grid = DenseGrid::FromRaw(dims, std::move(density),
                                    std::move(features));
  ds.vqrf = std::make_shared<const VqrfModel>(LoadVqrfModel(in));
  SPNERF_CHECK_MSG(ds.vqrf->Dims() == dims,
                   "corrupt dataset asset: VQRF dims disagree with grid");
  return ds;
}

// --- SpNeRF codec --------------------------------------------------------

void SaveSpNeRFModel(const SpNeRFModel& model, std::ostream& out) {
  WriteAssetHeader(out, AssetPayloadKind::kCodec);
  const SpNeRFParams& p = model.params_;
  WritePod<i32>(out, p.subgrid_count);
  WritePod<u32>(out, p.table_size);
  WritePod<u8>(out, p.bitmap_masking ? 1 : 0);
  WritePod<u8>(out, static_cast<u8>(p.collision_policy));
  WritePod<i32>(out, model.dims_.nx);
  WritePod<i32>(out, model.dims_.ny);
  WritePod<i32>(out, model.dims_.nz);

  WritePod<u64>(out, model.tables_.size());
  for (const SubgridHashTable& table : model.tables_) {
    // Slots as parallel arrays so the layout is independent of HashEntry's
    // host padding.
    std::vector<u32> payloads;
    std::vector<i8> densities;
    payloads.reserve(table.Entries().size());
    densities.reserve(table.Entries().size());
    for (const HashEntry& e : table.Entries()) {
      payloads.push_back(e.payload);
      densities.push_back(e.density_q);
    }
    WriteVector(out, payloads);
    WriteVector(out, densities);
    const HashBuildStats& s = table.BuildStats();
    WritePod<u64>(out, s.inserted);
    WritePod<u64>(out, s.collisions);
    WritePod<u64>(out, s.occupied_slots);
  }
  WriteVector(out, model.bitmap_.Words());
  SPNERF_CHECK_MSG(out.good(), "codec asset write failed");
}

SpNeRFModel LoadSpNeRFModel(std::istream& in, const VqrfModel& source) {
  ExpectAssetHeader(in, AssetPayloadKind::kCodec);
  SpNeRFModel model;
  SpNeRFParams p;
  p.subgrid_count = ReadPod<i32>(in);
  p.table_size = ReadPod<u32>(in);
  p.bitmap_masking = ReadPod<u8>(in) != 0;
  p.collision_policy = static_cast<CollisionPolicy>(ReadPod<u8>(in));
  SPNERF_CHECK_MSG(p.subgrid_count > 0 && p.table_size > 0,
                   "corrupt codec asset: bad params");
  model.params_ = p;
  model.dims_.nx = ReadPod<i32>(in);
  model.dims_.ny = ReadPod<i32>(in);
  model.dims_.nz = ReadPod<i32>(in);
  SPNERF_CHECK_MSG(model.dims_ == source.Dims(),
                   "codec asset was preprocessed from a different dataset "
                   "(grid dims disagree)");
  model.partition_ = SubgridPartition(model.dims_, p.subgrid_count);

  const u64 table_count = ReadPod<u64>(in);
  SPNERF_CHECK_MSG(table_count == static_cast<u64>(p.subgrid_count),
                   "corrupt codec asset: " << table_count
                       << " tables for K=" << p.subgrid_count);
  const u64 max_payload = static_cast<u64>(source.GetCodebook().Size()) +
                          source.KeptCount();
  model.tables_.reserve(table_count);
  for (u64 t = 0; t < table_count; ++t) {
    std::vector<u32> payloads = ReadVector<u32>(in);
    std::vector<i8> densities = ReadVector<i8>(in);
    SPNERF_CHECK_MSG(payloads.size() == p.table_size &&
                         densities.size() == p.table_size,
                     "corrupt codec asset: table slot count mismatch");
    std::vector<HashEntry> entries(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      entries[i].payload = payloads[i];
      entries[i].density_q = densities[i];
      SPNERF_CHECK_MSG(!entries[i].Occupied() || payloads[i] < max_payload,
                       "corrupt codec asset: payload " << payloads[i]
                           << " outside the source's unified space");
    }
    HashBuildStats stats;
    stats.inserted = ReadPod<u64>(in);
    stats.collisions = ReadPod<u64>(in);
    stats.occupied_slots = ReadPod<u64>(in);
    model.tables_.push_back(
        SubgridHashTable::FromParts(std::move(entries), stats));
  }
  std::vector<u64> words = ReadVector<u64>(in);
  model.bitmap_ = BitGrid::FromWords(model.dims_, std::move(words));
  model.source_ = &source;
  return model;
}

// --- coarse occupancy ----------------------------------------------------

void SaveCoarseOccupancy(const CoarseOccupancy& coarse, std::ostream& out) {
  WriteAssetHeader(out, AssetPayloadKind::kCoarse);
  WritePod<i32>(out, coarse.Factor());
  const GridDims& dims = coarse.CoarseDims();
  WritePod<i32>(out, dims.nx);
  WritePod<i32>(out, dims.ny);
  WritePod<i32>(out, dims.nz);
  WriteVector(out, coarse.Bits().Words());
  SPNERF_CHECK_MSG(out.good(), "coarse asset write failed");
}

CoarseOccupancy LoadCoarseOccupancy(std::istream& in) {
  ExpectAssetHeader(in, AssetPayloadKind::kCoarse);
  const i32 factor = ReadPod<i32>(in);
  SPNERF_CHECK_MSG(factor >= 1, "corrupt coarse asset: factor " << factor);
  GridDims dims;
  dims.nx = ReadPod<i32>(in);
  dims.ny = ReadPod<i32>(in);
  dims.nz = ReadPod<i32>(in);
  SPNERF_CHECK_MSG(dims.nx > 0 && dims.ny > 0 && dims.nz > 0,
                   "corrupt coarse asset: non-positive dims");
  std::vector<u64> words = ReadVector<u64>(in);
  return CoarseOccupancy::FromBits(BitGrid::FromWords(dims, std::move(words)),
                                   factor);
}

}  // namespace spnerf
