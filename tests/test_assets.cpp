// Asset layer tests: versioned serialization round trips, cache-key
// sensitivity, corrupt-artifact rejection, and the content-addressed
// cache + pipeline repository behaviour (cold build -> disk load ->
// memory hit).
#include "assets/asset_cache.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "assets/asset_io.hpp"
#include "assets/asset_key.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/pipeline_repository.hpp"
#include "grid/vqrf_io.hpp"

namespace spnerf {
namespace {

DatasetParams SmallParams() {
  DatasetParams p;
  p.resolution_override = 40;
  p.vqrf.codebook_size = 64;
  p.vqrf.kmeans_iterations = 2;
  p.vqrf.max_vq_train_samples = 2000;
  return p;
}

SpNeRFParams SmallCodecParams() {
  SpNeRFParams p;
  p.subgrid_count = 8;
  p.table_size = 4096;
  return p;
}

const SceneDataset& SmallDataset() {
  static const SceneDataset ds = BuildDataset(SceneId::kMic, SmallParams());
  return ds;
}

std::string SaveDatasetBytes(const SceneDataset& ds) {
  std::ostringstream out(std::ios::binary);
  SaveSceneDataset(ds, out);
  return out.str();
}

std::string SaveCoarseBytes(const CoarseOccupancy& coarse) {
  std::ostringstream out(std::ios::binary);
  SaveCoarseOccupancy(coarse, out);
  return out.str();
}

const CoarseOccupancy& SmallCoarse() {
  static const CoarseOccupancy coarse =
      CoarseOccupancy::Build(BitGrid::FromGrid(SmallDataset().full_grid), 4);
  return coarse;
}

/// Reads / overwrites the POD at byte `offset` of an artifact.
template <typename T>
T Peek(const std::string& bytes, std::size_t offset) {
  T value{};
  if (offset + sizeof(T) <= bytes.size()) {
    std::memcpy(&value, bytes.data() + offset, sizeof(T));
  }
  return value;
}
template <typename T>
void Poke(std::string& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

// ------------------------------------------------------ codec pinning ---

TEST(CodecAsset, PinsOnlyTheVqrfModelNotTheDataset) {
  // A codec's payload stores live in the dataset's VQRF model, which sits
  // behind its own shared_ptr: holding the codec must keep that model
  // alive, but never the dataset (whose full-resolution grid dominates
  // memory at paper scale).
  auto ds = std::make_shared<const SceneDataset>(
      BuildDataset(SceneId::kMic, SmallParams()));
  std::weak_ptr<const SceneDataset> dataset_watch = ds;
  std::weak_ptr<const VqrfModel> vqrf_watch = ds->vqrf;

  const std::shared_ptr<const SpNeRFModel> codec =
      MakeCodecAsset(ds, SmallCodecParams());
  ds.reset();

  EXPECT_TRUE(dataset_watch.expired())
      << "codec asset still pins the whole dataset (full grid included)";
  EXPECT_FALSE(vqrf_watch.expired())
      << "codec asset must keep its VQRF payload source alive";
  // The codec still decodes against the pinned model.
  const std::shared_ptr<const VqrfModel> vqrf = vqrf_watch.lock();
  ASSERT_NE(vqrf, nullptr);
  ASSERT_FALSE(vqrf->Records().empty());
  const Vec3i p = vqrf->Dims().Unflatten(vqrf->Records().front().index);
  (void)codec->Decode(p);
}

// ---------------------------------------------------- pinned built bytes --

u64 Fnv1a(const std::string& bytes) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A 32^3 grid whose voxels and values all come from Rng::NextBelow, with
/// values k/64: exact binary fractions, so the built bytes depend on no
/// libm routine and can be pinned across hosts.
DenseGrid PinnedGrid() {
  DenseGrid g({32, 32, 32});
  Rng rng(2024);
  for (int n = 0; n < 3000; ++n) {
    const VoxelIndex i = rng.NextBelow(g.VoxelCount());
    g.SetDensity(i, static_cast<float>(1 + rng.NextBelow(640)) / 64.0f);
    float* f = g.MutableFeatures(i);
    for (int c = 0; c < kColorFeatureDim; ++c) {
      f[c] = (static_cast<float>(rng.NextBelow(129)) - 64.0f) / 64.0f;
    }
  }
  return g;
}

TEST(AssetBytes, BuiltArtifactsMatchPinnedHashes) {
  // FNV-1a of the VQRF, codec and coarse artifacts built from PinnedGrid(),
  // recorded when codebook training and the coarse build were scalar. Every
  // compiled SIMD path must build these exact bytes; a change that moves
  // them changes what users' caches hold and needs a format version bump.
  constexpr u64 kVqrf = 0x42085d7cae613bd7ull;
  constexpr u64 kCodec = 0xf2de1734447e73b4ull;
  constexpr u64 kCoarse1 = 0x75308236ff8459deull;
  constexpr u64 kCoarse3 = 0x01664fb2a39347beull;

  const DenseGrid grid = PinnedGrid();
  VqrfBuildParams params;
  params.codebook_size = 64;
  params.max_vq_train_samples = 2000;
  for (const simd::Path p : {simd::Path::kScalar, simd::BestSupportedPath()}) {
    const simd::Path saved = simd::ActivePath();
    simd::SetActivePath(p);
    const VqrfModel vqrf = VqrfModel::Build(grid, params);
    const SpNeRFModel codec = SpNeRFModel::Preprocess(vqrf, SmallCodecParams());
    const BitGrid fine = BitGrid::FromGrid(grid);
    simd::SetActivePath(saved);

    std::ostringstream vqrf_bytes(std::ios::binary);
    SaveVqrfModel(vqrf, vqrf_bytes);
    std::ostringstream codec_bytes(std::ios::binary);
    SaveSpNeRFModel(codec, codec_bytes);
    SCOPED_TRACE(simd::PathName(p));
    EXPECT_EQ(Fnv1a(vqrf_bytes.str()), kVqrf);
    EXPECT_EQ(Fnv1a(codec_bytes.str()), kCodec);
    EXPECT_EQ(Fnv1a(SaveCoarseBytes(CoarseOccupancy::Build(fine, 1))),
              kCoarse1);
    EXPECT_EQ(Fnv1a(SaveCoarseBytes(CoarseOccupancy::Build(fine, 3))),
              kCoarse3);
  }
}

// ---------------------------------------------------------- round trips --

TEST(AssetIo, DatasetRoundTripIsByteIdentical) {
  const std::string first = SaveDatasetBytes(SmallDataset());
  std::istringstream in(first, std::ios::binary);
  const SceneDataset loaded = LoadSceneDataset(in);

  EXPECT_EQ(loaded.id, SmallDataset().id);
  EXPECT_EQ(loaded.full_grid.Dims(), SmallDataset().full_grid.Dims());
  EXPECT_EQ(loaded.full_grid.DensityRaw(),
            SmallDataset().full_grid.DensityRaw());
  EXPECT_EQ(loaded.vqrf->Records().size(), SmallDataset().vqrf->Records().size());

  // save -> load -> save reproduces the exact artifact bytes.
  EXPECT_EQ(SaveDatasetBytes(loaded), first);
}

TEST(AssetIo, CodecRoundTripIsByteIdenticalAndDecodesEqually) {
  const SceneDataset& ds = SmallDataset();
  const SpNeRFModel original =
      SpNeRFModel::Preprocess(*ds.vqrf, SmallCodecParams());

  std::ostringstream out(std::ios::binary);
  SaveSpNeRFModel(original, out);
  const std::string first = out.str();

  std::istringstream in(first, std::ios::binary);
  const SpNeRFModel loaded = LoadSpNeRFModel(in, *ds.vqrf);

  std::ostringstream again(std::ios::binary);
  SaveSpNeRFModel(loaded, again);
  EXPECT_EQ(again.str(), first);

  // Every record decodes identically through the reloaded tables.
  for (const VoxelRecord& rec : ds.vqrf->Records()) {
    const Vec3i p = ds.vqrf->Dims().Unflatten(rec.index);
    const VoxelData a = original.Decode(p);
    const VoxelData b = loaded.Decode(p);
    ASSERT_EQ(a.density, b.density);
    ASSERT_EQ(a.features, b.features);
  }
  EXPECT_EQ(loaded.AggregateBuildStats().collisions,
            original.AggregateBuildStats().collisions);
}

TEST(AssetIo, CoarseRoundTripIsByteIdentical) {
  const CoarseOccupancy& original = SmallCoarse();
  const std::string first = SaveCoarseBytes(original);

  std::istringstream in(first, std::ios::binary);
  const CoarseOccupancy loaded = LoadCoarseOccupancy(in);
  EXPECT_EQ(loaded.Factor(), original.Factor());
  EXPECT_EQ(loaded.CoarseDims(), original.CoarseDims());
  EXPECT_EQ(loaded.Bits().Words(), original.Bits().Words());

  EXPECT_EQ(SaveCoarseBytes(loaded), first);
}

TEST(AssetIo, CodecLoadRejectsMismatchedSource) {
  const SceneDataset& ds = SmallDataset();
  const SpNeRFModel codec = SpNeRFModel::Preprocess(*ds.vqrf, SmallCodecParams());
  std::ostringstream out(std::ios::binary);
  SaveSpNeRFModel(codec, out);

  // A dataset with different dims is not the codec's source.
  DatasetParams other = SmallParams();
  other.resolution_override = 32;
  const SceneDataset wrong = BuildDataset(SceneId::kMic, other);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW((void)LoadSpNeRFModel(in, *wrong.vqrf), SpnerfError);
}

// ----------------------------------------------------- corrupt artifacts --

TEST(AssetIo, RejectsBadMagic) {
  std::string bytes = SaveDatasetBytes(SmallDataset());
  bytes[0] = 'X';
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)LoadSceneDataset(in), SpnerfError);
}

TEST(AssetIo, RejectsOtherFormatVersion) {
  std::string bytes = SaveDatasetBytes(SmallDataset());
  bytes[4] = static_cast<char>(kAssetFormatVersion + 1);  // version word
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)LoadSceneDataset(in), SpnerfError);
}

TEST(AssetIo, RejectsWrongPayloadKind) {
  std::istringstream in(SaveCoarseBytes(SmallCoarse()), std::ios::binary);
  EXPECT_THROW((void)LoadSceneDataset(in), SpnerfError);
}

TEST(AssetIo, RejectsTruncatedStream) {
  const std::string dataset = SaveDatasetBytes(SmallDataset());
  for (const std::size_t keep :
       {dataset.size() / 4, dataset.size() / 2, dataset.size() - 3}) {
    std::istringstream in(dataset.substr(0, keep), std::ios::binary);
    EXPECT_THROW((void)LoadSceneDataset(in), SpnerfError) << keep;
  }
  const std::string coarse = SaveCoarseBytes(SmallCoarse());
  for (const std::size_t keep :
       {coarse.size() / 4, coarse.size() / 2, coarse.size() - 3}) {
    std::istringstream in(coarse.substr(0, keep), std::ios::binary);
    EXPECT_THROW((void)LoadCoarseOccupancy(in), SpnerfError) << keep;
  }
}

// The coarse artifact's layout: header (magic, version, kind: 12 bytes),
// factor (4), dims (3 x 4), word count (8), words.
constexpr std::size_t kCoarseDimsOffset = 16;
constexpr std::size_t kCoarseWordCountOffset = 28;

TEST(AssetIo, InflatedWordCountIsRejectedWithoutAllocatingIt) {
  // 2^32 - 1 words (32 GiB) passes the length limit; the stream holds a
  // few hundred bytes, so the read must fail as it runs out — not try to
  // allocate the claimed length first.
  std::string bytes = SaveCoarseBytes(SmallCoarse());
  ASSERT_EQ(Peek<u64>(bytes, kCoarseWordCountOffset),
            SmallCoarse().Bits().Words().size());
  Poke<u64>(bytes, kCoarseWordCountOffset, (u64{1} << 32) - 1);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)LoadCoarseOccupancy(in), SpnerfError);
}

TEST(AssetIo, InflatedDimsAreRejectedWithoutAllocatingThem) {
  // 32768^3 voxels would be a 4 TiB bitmap; the word count on file says
  // otherwise, and that is checked before any bitmap is sized.
  std::string bytes = SaveCoarseBytes(SmallCoarse());
  ASSERT_EQ(Peek<i32>(bytes, kCoarseDimsOffset), SmallCoarse().CoarseDims().nx);
  for (int axis = 0; axis < 3; ++axis) {
    Poke<i32>(bytes, kCoarseDimsOffset + 4 * static_cast<std::size_t>(axis),
              32768);
  }
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)LoadCoarseOccupancy(in), SpnerfError);
}

// ------------------------------------------------------------ cache keys --

TEST(AssetKey, SensitiveToEveryContentField) {
  const DatasetParams base = SmallParams();
  const std::string base_key = DatasetAssetKey(SceneId::kMic, base).hash;

  EXPECT_NE(DatasetAssetKey(SceneId::kLego, base).hash, base_key);

  DatasetParams p = base;
  p.resolution_override = 41;
  EXPECT_NE(DatasetAssetKey(SceneId::kMic, p).hash, base_key);
  p = base;
  p.vqrf.prune_fraction += 0.01;
  EXPECT_NE(DatasetAssetKey(SceneId::kMic, p).hash, base_key);
  p = base;
  p.vqrf.keep_fraction += 0.01;
  EXPECT_NE(DatasetAssetKey(SceneId::kMic, p).hash, base_key);
  p = base;
  p.vqrf.codebook_size += 1;
  EXPECT_NE(DatasetAssetKey(SceneId::kMic, p).hash, base_key);
  p = base;
  p.vqrf.kmeans_iterations += 1;
  EXPECT_NE(DatasetAssetKey(SceneId::kMic, p).hash, base_key);
  p = base;
  p.vqrf.max_vq_train_samples += 1;
  EXPECT_NE(DatasetAssetKey(SceneId::kMic, p).hash, base_key);
  p = base;
  p.vqrf.seed += 1;
  EXPECT_NE(DatasetAssetKey(SceneId::kMic, p).hash, base_key);

  const AssetKey dk = DatasetAssetKey(SceneId::kMic, base);
  const SpNeRFParams sp = SmallCodecParams();
  const std::string codec_key = CodecAssetKey(dk, sp).hash;
  SpNeRFParams s = sp;
  s.subgrid_count += 1;
  EXPECT_NE(CodecAssetKey(dk, s).hash, codec_key);
  s = sp;
  s.table_size += 1;
  EXPECT_NE(CodecAssetKey(dk, s).hash, codec_key);
  s = sp;
  s.bitmap_masking = !s.bitmap_masking;
  EXPECT_NE(CodecAssetKey(dk, s).hash, codec_key);
  s = sp;
  s.collision_policy = CollisionPolicy::kOverwrite;
  EXPECT_NE(CodecAssetKey(dk, s).hash, codec_key);

  EXPECT_NE(CoarseAssetKey(dk, 4).hash, CoarseAssetKey(dk, 8).hash);
}

TEST(AssetKey, KeysVersionWithTheFormat) {
  // kAssetFormatVersion is hashed into every key; pin the canonical prefix
  // the hash is derived from. The version is 2, and it bumps only when an
  // artifact's bytes change, which makes every older artifact unreachable.
  AssetKeyBuilder b;
  b.Field("format", static_cast<u64>(kAssetFormatVersion));
  EXPECT_EQ(b.Canonical(), "format=u2;");
}

TEST(AssetKey, InsensitiveToExecutionPolicy) {
  // Worker caps never change the built bytes, so a warm cache must survive
  // thread-count changes.
  DatasetParams a = SmallParams();
  DatasetParams b = SmallParams();
  a.max_threads = 1;
  b.max_threads = 8;
  b.vqrf.max_threads = 4;
  EXPECT_EQ(DatasetAssetKey(SceneId::kMic, a).hash,
            DatasetAssetKey(SceneId::kMic, b).hash);
}

TEST(AssetKey, StableAcrossProcessesByConstruction) {
  // FNV-1a over the canonical string: pin one key so accidental canonical
  // format changes (which would orphan every on-disk artifact) are loud.
  AssetKeyBuilder b;
  b.Field("answer", static_cast<i64>(42));
  EXPECT_EQ(b.Canonical(), "answer=42;");
  EXPECT_EQ(b.Finish(), "63d96c511bd2b875");
}

// ------------------------------------------------------------ AssetCache --

class AssetCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("spnerf_assets_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  AssetCacheOptions Options() const {
    AssetCacheOptions opts;
    opts.disk_root = root_.string();
    return opts;
  }

  std::filesystem::path root_;
};

TEST_F(AssetCacheTest, ColdBuildPersistsAndWarmLoadsFromDisk) {
  const DatasetParams dp = SmallParams();
  const SpNeRFParams sp = SmallCodecParams();

  AssetCache cold(Options());
  const PipelineAssets built = cold.Acquire(SceneId::kMic, dp, sp, 4);
  ASSERT_TRUE(built.dataset && built.codec && built.skip);
  EXPECT_EQ(cold.GetStats().builds, 3u);
  EXPECT_EQ(cold.GetStats().disk_hits, 0u);

  // All three artifacts landed on disk, and nothing else: the skip octree
  // persists only its coarse leaf bitmap.
  const AssetKey dk = DatasetAssetKey(SceneId::kMic, dp);
  EXPECT_TRUE(std::filesystem::exists(root_ / dk.FileName()));
  EXPECT_TRUE(
      std::filesystem::exists(root_ / CodecAssetKey(dk, sp).FileName()));
  EXPECT_TRUE(std::filesystem::exists(root_ / CoarseAssetKey(dk, 4).FileName()));
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files.size(), 3u);
  for (const std::string& f : files) {
    EXPECT_NE(f.rfind("octree-", 0), 0u) << f;
  }

  // A fresh cache over the same root deserializes instead of rebuilding,
  // and derives the same octree from the stored bitmap.
  AssetCache warm(Options());
  const PipelineAssets loaded = warm.Acquire(SceneId::kMic, dp, sp, 4);
  EXPECT_EQ(warm.GetStats().builds, 0u);
  EXPECT_EQ(warm.GetStats().disk_hits, 3u);
  EXPECT_EQ(loaded.dataset->full_grid.DensityRaw(),
            built.dataset->full_grid.DensityRaw());
  EXPECT_EQ(loaded.skip->Leaf().Factor(), built.skip->Leaf().Factor());
  ASSERT_EQ(loaded.skip->Levels(), built.skip->Levels());
  for (int l = 0; l < loaded.skip->Levels(); ++l) {
    EXPECT_EQ(loaded.skip->Level(l).Dims(), built.skip->Level(l).Dims()) << l;
    EXPECT_EQ(loaded.skip->Level(l).Words(), built.skip->Level(l).Words())
        << l;
  }

  // Same cache again: everything is a live memory hit, same instances.
  const PipelineAssets again = warm.Acquire(SceneId::kMic, dp, sp, 4);
  EXPECT_EQ(warm.GetStats().memory_hits, 3u);
  EXPECT_EQ(again.dataset.get(), loaded.dataset.get());
  EXPECT_EQ(again.codec.get(), loaded.codec.get());
  EXPECT_EQ(again.skip.get(), loaded.skip.get());
}

TEST_F(AssetCacheTest, CorruptArtifactIsRebuiltNotFatal) {
  const DatasetParams dp = SmallParams();
  AssetCache first(Options());
  (void)first.AcquireDataset(SceneId::kMic, dp);

  // Truncate the artifact on disk.
  const std::filesystem::path path =
      root_ / DatasetAssetKey(SceneId::kMic, dp).FileName();
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  AssetCache second(Options());
  const auto ds = second.AcquireDataset(SceneId::kMic, dp);
  ASSERT_TRUE(ds != nullptr);
  EXPECT_EQ(second.GetStats().builds, 1u);  // rebuilt, no disk hit
  EXPECT_EQ(second.GetStats().disk_hits, 0u);
  // ...and the rebuilt artifact replaced the corrupt one.
  AssetCache third(Options());
  (void)third.AcquireDataset(SceneId::kMic, dp);
  EXPECT_EQ(third.GetStats().disk_hits, 1u);
}

TEST_F(AssetCacheTest, DisabledDiskStoreStillServesMemoryHits) {
  AssetCacheOptions opts;
  opts.disk_root.clear();
  AssetCache cache(opts);
  const auto a = cache.AcquireDataset(SceneId::kMic, SmallParams());
  const auto b = cache.AcquireDataset(SceneId::kMic, SmallParams());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.GetStats().builds, 1u);
  EXPECT_EQ(cache.GetStats().memory_hits, 1u);
}

// ---------------------------------------------------- PipelineRepository --

TEST_F(AssetCacheTest, RepositorySharesPipelinesAndAssets) {
  AssetCache cache(Options());
  PipelineRepository repo(&cache);

  PipelineConfig config;
  config.scene_id = SceneId::kMic;
  config.dataset = SmallParams();
  config.spnerf = SmallCodecParams();

  const auto p1 = repo.Acquire(config);
  const auto p2 = repo.Acquire(config);
  EXPECT_EQ(p1.get(), p2.get());  // live-pipeline LRU hit

  // A render-option change makes a new pipeline over the same assets.
  PipelineConfig other = config;
  other.render.step_size *= 0.5f;
  const auto p3 = repo.Acquire(other);
  EXPECT_NE(p3.get(), p1.get());
  EXPECT_EQ(&p3->Dataset(), &p1->Dataset());
  EXPECT_EQ(&p3->Codec(), &p1->Codec());

  // A build-parameter change misses every level.
  PipelineConfig rebuilt = config;
  rebuilt.spnerf.table_size *= 2;
  const auto p4 = repo.Acquire(rebuilt);
  EXPECT_EQ(&p4->Dataset(), &p1->Dataset());  // dataset key unchanged
  EXPECT_NE(&p4->Codec(), &p1->Codec());
}

TEST_F(AssetCacheTest, RepositoryPipelineRendersIdenticallyToDirectBuild) {
  AssetCache cache(Options());

  PipelineConfig config;
  config.scene_id = SceneId::kMic;
  config.dataset = SmallParams();
  config.spnerf = SmallCodecParams();

  const ScenePipeline direct = ScenePipeline::Build(config);
  const Image want = direct.RenderSpnerf(direct.MakeCamera(24, 24), true);

  // Warm-from-disk pipeline (fresh cache, artifacts written by a throwaway
  // repository first) must march the exact same rays to the same pixels.
  { PipelineRepository warmup(&cache); (void)warmup.Acquire(config); }
  AssetCache reloaded(Options());
  PipelineRepository repo(&reloaded);
  const auto p = repo.Acquire(config);
  EXPECT_EQ(reloaded.GetStats().disk_hits, 3u);
  const Image got = p->RenderSpnerf(p->MakeCamera(24, 24), true);
  ASSERT_EQ(want.Width(), got.Width());
  EXPECT_EQ(Mse(want, got), 0.0);
}

}  // namespace
}  // namespace spnerf
