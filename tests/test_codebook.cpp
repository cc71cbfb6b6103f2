#include "grid/codebook.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "grid/codebook_kernels.hpp"

namespace spnerf {
namespace {

/// Forces the SIMD dispatch path for one scope, restoring on exit.
class ScopedSimdPath {
 public:
  explicit ScopedSimdPath(simd::Path p) : saved_(simd::ActivePath()) {
    simd::SetActivePath(p);
  }
  ~ScopedSimdPath() { simd::SetActivePath(saved_); }
  ScopedSimdPath(const ScopedSimdPath&) = delete;
  ScopedSimdPath& operator=(const ScopedSimdPath&) = delete;

 private:
  simd::Path saved_;
};

/// Scalar plus every path this host runs with compiled codebook kernels.
std::vector<simd::Path> CompiledPaths() {
  std::vector<simd::Path> paths{simd::Path::kScalar};
  for (const simd::Path p : {simd::Path::kAvx2, simd::Path::kNeon}) {
    if (simd::PathSupported(p) && codebook_kernels::ForPath(p) != nullptr) {
      paths.push_back(p);
    }
  }
  return paths;
}

FeatureVec MakeVec(float base) {
  FeatureVec f{};
  for (int c = 0; c < kColorFeatureDim; ++c)
    f[c] = base + 0.01f * static_cast<float>(c);
  return f;
}

TEST(Codebook, EmptyThrows) {
  EXPECT_THROW(Codebook(std::vector<FeatureVec>{}), SpnerfError);
}

TEST(Codebook, NearestFindsExactMatch) {
  std::vector<FeatureVec> rows{MakeVec(0.f), MakeVec(1.f), MakeVec(2.f)};
  const Codebook book(rows);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(book.Nearest(rows[static_cast<std::size_t>(k)]), k);
    EXPECT_FLOAT_EQ(
        book.QuantizationError(rows[static_cast<std::size_t>(k)]), 0.0f);
  }
}

TEST(Codebook, NearestPicksClosest) {
  const Codebook book({MakeVec(0.f), MakeVec(10.f)});
  EXPECT_EQ(book.Nearest(MakeVec(1.f)), 0);
  EXPECT_EQ(book.Nearest(MakeVec(9.f)), 1);
  EXPECT_EQ(book.Nearest(MakeVec(4.9f)), 0);
  EXPECT_EQ(book.Nearest(MakeVec(5.1f)), 1);
}

TEST(Codebook, RowOutOfRangeThrows) {
  const Codebook book({MakeVec(0.f)});
  EXPECT_THROW((void)book.Row(-1), SpnerfError);
  EXPECT_THROW((void)book.Row(1), SpnerfError);
}

TEST(Codebook, SizeBytesIsInt8PerChannel) {
  const Codebook book({MakeVec(0.f), MakeVec(1.f)});
  EXPECT_EQ(book.SizeBytes(), 2u * kColorFeatureDim);
}

TEST(CodebookTrain, RecoverWellSeparatedClusters) {
  // Three tight clusters; k-means with k=3 must place one centroid in each.
  Rng rng(5);
  std::vector<FeatureVec> samples;
  const float centers[3] = {0.f, 5.f, 10.f};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 200; ++i) {
      FeatureVec f = MakeVec(centers[c]);
      for (int d = 0; d < kColorFeatureDim; ++d) f[d] += rng.Uniform(-0.05f, 0.05f);
      samples.push_back(f);
    }
  }
  const Codebook book = Codebook::Train(samples, 3, 20, rng);
  // Every sample must be within cluster noise of its centroid.
  for (const auto& s : samples) {
    EXPECT_LT(book.QuantizationError(s), 0.1f);
  }
  // And the three centroids must be distinct clusters.
  std::set<int> assigned;
  assigned.insert(book.Nearest(MakeVec(0.f)));
  assigned.insert(book.Nearest(MakeVec(5.f)));
  assigned.insert(book.Nearest(MakeVec(10.f)));
  EXPECT_EQ(assigned.size(), 3u);
}

TEST(CodebookTrain, Deterministic) {
  Rng rng1(9), rng2(9);
  std::vector<FeatureVec> samples;
  Rng gen(1);
  for (int i = 0; i < 300; ++i) samples.push_back(MakeVec(gen.Uniform(0.f, 10.f)));
  const Codebook a = Codebook::Train(samples, 16, 8, rng1);
  const Codebook b = Codebook::Train(samples, 16, 8, rng2);
  ASSERT_EQ(a.Size(), b.Size());
  for (int k = 0; k < a.Size(); ++k) {
    for (int c = 0; c < kColorFeatureDim; ++c) {
      EXPECT_EQ(a.Row(k)[static_cast<std::size_t>(c)],
                b.Row(k)[static_cast<std::size_t>(c)]);
    }
  }
}

TEST(CodebookTrain, MoreCentroidsNeverWorse) {
  Rng gen(2);
  std::vector<FeatureVec> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(MakeVec(gen.Uniform(0.f, 20.f)));
  auto total_err = [&](int k) {
    Rng rng(3);
    const Codebook book = Codebook::Train(samples, k, 15, rng);
    double err = 0.0;
    for (const auto& s : samples) err += book.QuantizationError(s);
    return err;
  };
  const double e4 = total_err(4);
  const double e32 = total_err(32);
  EXPECT_LT(e32, e4);
}

TEST(CodebookTrain, HandlesFewerSamplesThanCentroids) {
  Rng rng(4);
  std::vector<FeatureVec> samples{MakeVec(0.f), MakeVec(1.f)};
  const Codebook book = Codebook::Train(samples, 8, 5, rng);
  EXPECT_EQ(book.Size(), 8);
  EXPECT_LT(book.QuantizationError(MakeVec(0.f)), 1e-6f);
  EXPECT_LT(book.QuantizationError(MakeVec(1.f)), 1e-6f);
}

TEST(CodebookTrain, IdenticalSamplesConverge) {
  Rng rng(6);
  std::vector<FeatureVec> samples(50, MakeVec(3.f));
  const Codebook book = Codebook::Train(samples, 4, 5, rng);
  EXPECT_LT(book.QuantizationError(MakeVec(3.f)), 1e-10f);
}

TEST(CodebookTrain, ZeroSamplesThrows) {
  Rng rng(7);
  EXPECT_THROW(Codebook::Train({}, 4, 5, rng), SpnerfError);
}

TEST(CodebookTrain, InvalidSizeThrows) {
  Rng rng(8);
  std::vector<FeatureVec> samples{MakeVec(0.f)};
  EXPECT_THROW(Codebook::Train(samples, 0, 5, rng), SpnerfError);
}

// ---------------------------------------- SIMD kernel differentials ---

TEST(CodebookKernels, EveryCompiledTableIsComplete) {
  // NearestBatch and Train check only the table, never an entry: scalar has
  // no table, and every compiled table sets both kernels.
  EXPECT_EQ(codebook_kernels::ForPath(simd::Path::kScalar), nullptr);
  for (const simd::Path p : {simd::Path::kAvx2, simd::Path::kNeon}) {
    const codebook_kernels::KernelTable* kt = codebook_kernels::ForPath(p);
    if (kt == nullptr) continue;
    EXPECT_NE(kt->nearest, nullptr);
    EXPECT_NE(kt->d2_refresh, nullptr);
  }
}

/// Rows with duplicates at different indices (the lowest must win) and, in
/// larger books, one row so far out that its distances overflow to +inf.
std::vector<FeatureVec> MakeRows(int size, Rng& rng) {
  std::vector<FeatureVec> rows(static_cast<std::size_t>(size));
  for (FeatureVec& r : rows) {
    for (float& v : r) v = rng.Uniform(-1.f, 1.f);
  }
  if (size >= 3) rows.back() = rows.front();
  if (size >= 5) rows[static_cast<std::size_t>(size / 2 + 1)] =
      rows[static_cast<std::size_t>(size / 2)];
  if (size >= 7) rows[1].fill(1e30f);
  return rows;
}

/// Random queries, every row itself, and queries with NaN, +inf, -inf and
/// overflowing components (no distance below FLT_MAX: index 0).
std::vector<FeatureVec> MakeQueries(const std::vector<FeatureVec>& rows,
                                    Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<FeatureVec> queries;
  for (int i = 0; i < 40; ++i) {
    FeatureVec q{};
    for (float& v : q) v = rng.Uniform(-1.2f, 1.2f);
    queries.push_back(q);
  }
  const std::size_t stride = rows.size() > 64 ? rows.size() / 64 : 1;
  for (std::size_t k = 0; k < rows.size(); k += stride) {
    queries.push_back(rows[k]);
  }
  queries.push_back(rows.back());
  for (const float special :
       {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf, 1e30f}) {
    FeatureVec one = queries.front();
    one[5] = special;
    queries.push_back(one);
    FeatureVec all{};
    all.fill(special);
    queries.push_back(all);
  }
  return queries;
}

TEST(CodebookKernels, NearestBatchMatchesScalarScanOnEveryPath) {
  for (const int size : {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 4096}) {
    Rng rng(100 + static_cast<u64>(size));
    const Codebook book(MakeRows(size, rng));
    const std::vector<FeatureVec> queries = MakeQueries(book.Rows(), rng);
    std::vector<int> want(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      want[q] = book.Nearest(queries[q]);
    }
    for (const simd::Path p : CompiledPaths()) {
      const ScopedSimdPath g(p);
      for (const unsigned threads : {1u, 0u}) {
        std::vector<int> got(queries.size(), -1);
        book.NearestBatch(queries, got, threads);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          EXPECT_EQ(got[q], want[q])
              << "size " << size << ", path " << simd::PathName(p)
              << ", threads " << threads << ", query " << q;
        }
      }
    }
  }
}

TEST(CodebookKernels, NearestBatchRejectsMismatchedOutput) {
  const Codebook book({MakeVec(0.f), MakeVec(1.f)});
  std::vector<int> out(1);
  EXPECT_THROW(book.NearestBatch(std::vector<FeatureVec>(2), out),
               SpnerfError);
}

TEST(CodebookKernels, TrainIsBitIdenticalOnEveryPathAndWorkerCount) {
  // Clustered samples with exact duplicates, so seeding meets ties and
  // zero distances.
  Rng gen(21);
  std::vector<FeatureVec> centers(40);
  for (FeatureVec& c : centers) {
    for (float& v : c) v = gen.Uniform(-1.f, 1.f);
  }
  std::vector<FeatureVec> samples;
  for (int i = 0; i < 2500; ++i) {
    FeatureVec f = centers[gen.NextBelow(centers.size())];
    for (float& v : f) v += gen.Uniform(-0.05f, 0.05f);
    samples.push_back(f);
    if (i % 50 == 0) samples.push_back(f);
  }
  std::vector<std::vector<u32>> built;
  std::vector<std::string> labels;
  for (const simd::Path p : CompiledPaths()) {
    const ScopedSimdPath g(p);
    for (const unsigned threads : {1u, 0u}) {
      Rng rng(5);
      const Codebook book = Codebook::Train(samples, 256, 8, rng, threads);
      std::vector<u32> bits;
      for (const FeatureVec& row : book.Rows()) {
        for (const float v : row) bits.push_back(std::bit_cast<u32>(v));
      }
      built.push_back(std::move(bits));
      labels.push_back(std::string(simd::PathName(p)) + "/" +
                       std::to_string(threads));
    }
  }
  ASSERT_EQ(built.front().size(), 256u * kColorFeatureDim);
  for (std::size_t b = 1; b < built.size(); ++b) {
    EXPECT_EQ(built[b], built.front())
        << labels[b] << " differs from " << labels.front();
  }
}

}  // namespace
}  // namespace spnerf
