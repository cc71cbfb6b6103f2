#include "render/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/half.hpp"
#include "render/wavefront_kernels.hpp"

namespace spnerf {
namespace {

void InitXavier(std::vector<float>& w, int fan_in, int fan_out, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& v : w) v = rng.Uniform(-bound, bound);
}

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Samples shaded together by the scalar forward passes, sized so both
// hidden activations (2 x kBlock x 128 floats = 32 KiB) stay L1/L2-resident
// while each weight row is reused kBlock times.
constexpr std::size_t kBlock = 32;

}  // namespace

Mlp Mlp::Random(u64 seed) {
  Mlp mlp;
  Rng rng(seed);
  const int dims[4] = {kMlpInputDim, kMlpHiddenDim, kMlpHiddenDim,
                       kMlpOutputDim};
  for (int layer = 0; layer < 3; ++layer) {
    mlp.w_[layer].resize(static_cast<std::size_t>(dims[layer + 1]) *
                         static_cast<std::size_t>(dims[layer]));
    mlp.b_[layer].assign(static_cast<std::size_t>(dims[layer + 1]), 0.0f);
    InitXavier(mlp.w_[layer], dims[layer], dims[layer + 1], rng);
    for (float& b : mlp.b_[layer]) b = rng.Uniform(-0.05f, 0.05f);
    for (const float w : mlp.w_[layer]) {
      mlp.wq_[layer].push_back(Half(w).ToFloat());
    }
    for (const float b : mlp.b_[layer]) {
      mlp.bq_[layer].push_back(Half(b).ToFloat());
    }
  }
  return mlp;
}

Vec3f Mlp::Forward(const std::array<float, kMlpInputDim>& in) const {
  SPNERF_CHECK_MSG(!w_[0].empty(), "MLP is uninitialised");
  Vec3f rgb;
  ForwardScalar({&in, 1}, {&rgb, 1});
  return rgb;
}

Vec3f Mlp::ForwardFp16(const std::array<float, kMlpInputDim>& in) const {
  SPNERF_CHECK_MSG(!w_[0].empty(), "MLP is uninitialised");
  Vec3f rgb;
  ForwardFp16Scalar({&in, 1}, {&rgb, 1});
  return rgb;
}

void Mlp::ForwardBatch(std::span<const std::array<float, kMlpInputDim>> in,
                       std::span<Vec3f> out) const {
  SPNERF_CHECK_MSG(out.size() == in.size(),
                   "ForwardBatch span sizes must match");
  if (in.empty()) return;  // an empty front never touches the weights
  SPNERF_CHECK_MSG(!w_[0].empty(), "MLP is uninitialised");
  const wavefront::KernelTable* kt = wavefront::Active();
  if (kt == nullptr) {
    ForwardScalar(in, out);
    return;
  }
  wavefront::MlpBatchArgs args;
  for (int layer = 0; layer < 3; ++layer) {
    args.weights.w[layer] = w_[layer].data();
    args.weights.b[layer] = b_[layer].data();
  }
  args.in = in.data();
  args.out = out.data();
  args.n = in.size();
  kt->mlp_forward_fp32(args);
}

void Mlp::ForwardFp16Batch(std::span<const std::array<float, kMlpInputDim>> in,
                           std::span<Vec3f> out) const {
  SPNERF_CHECK_MSG(out.size() == in.size(),
                   "ForwardBatch span sizes must match");
  if (in.empty()) return;  // an empty front never touches the weights
  SPNERF_CHECK_MSG(!w_[0].empty(), "MLP is uninitialised");
  const wavefront::KernelTable* kt = wavefront::Active();
  if (kt == nullptr) {
    ForwardFp16Scalar(in, out);
    return;
  }
  wavefront::MlpBatchArgs args;
  for (int layer = 0; layer < 3; ++layer) {
    args.weights.wq[layer] = wq_[layer].data();
    args.weights.bq[layer] = bq_[layer].data();
  }
  args.in = in.data();
  args.out = out.data();
  args.n = in.size();
  kt->mlp_forward_fp16(args);
}

void Mlp::ForwardScalar(std::span<const std::array<float, kMlpInputDim>> in,
                        std::span<Vec3f> out) const {
  float h1[kBlock][kMlpHiddenDim];
  float h2[kBlock][kMlpHiddenDim];
  for (std::size_t b0 = 0; b0 < in.size(); b0 += kBlock) {
    const std::size_t m = std::min(kBlock, in.size() - b0);
    for (int o = 0; o < kMlpHiddenDim; ++o) {
      const float bias = b_[0][static_cast<std::size_t>(o)];
      const float* row = &w_[0][static_cast<std::size_t>(o) * kMlpInputDim];
      for (std::size_t s = 0; s < m; ++s) {
        const float* x = in[b0 + s].data();
        float acc = bias;
        for (int i = 0; i < kMlpInputDim; ++i) acc += row[i] * x[i];
        h1[s][o] = acc > 0.0f ? acc : 0.0f;
      }
    }
    for (int o = 0; o < kMlpHiddenDim; ++o) {
      const float bias = b_[1][static_cast<std::size_t>(o)];
      const float* row = &w_[1][static_cast<std::size_t>(o) * kMlpHiddenDim];
      for (std::size_t s = 0; s < m; ++s) {
        float acc = bias;
        for (int i = 0; i < kMlpHiddenDim; ++i) acc += row[i] * h1[s][i];
        h2[s][o] = acc > 0.0f ? acc : 0.0f;
      }
    }
    for (int o = 0; o < kMlpOutputDim; ++o) {
      const float bias = b_[2][static_cast<std::size_t>(o)];
      const float* row = &w_[2][static_cast<std::size_t>(o) * kMlpHiddenDim];
      for (std::size_t s = 0; s < m; ++s) {
        float acc = bias;
        for (int i = 0; i < kMlpHiddenDim; ++i) acc += row[i] * h2[s][i];
        out[b0 + s][o] = Sigmoid(acc);
      }
    }
  }
}

void Mlp::ForwardFp16Scalar(
    std::span<const std::array<float, kMlpInputDim>> in,
    std::span<Vec3f> out) const {
  float h1[kBlock][kMlpHiddenDim];
  float h2[kBlock][kMlpHiddenDim];
  for (std::size_t b0 = 0; b0 < in.size(); b0 += kBlock) {
    const std::size_t m = std::min(kBlock, in.size() - b0);
    for (int o = 0; o < kMlpHiddenDim; ++o) {
      const float bias = b_[0][static_cast<std::size_t>(o)];
      const float* row = &w_[0][static_cast<std::size_t>(o) * kMlpInputDim];
      for (std::size_t s = 0; s < m; ++s) {
        const float* x = in[b0 + s].data();
        Half acc(bias);
        for (int i = 0; i < kMlpInputDim; ++i) {
          acc = Half::Fma(Half(row[i]), Half(x[i]), acc);
        }
        const float a = acc.ToFloat();
        h1[s][o] = a > 0.0f ? a : 0.0f;
      }
    }
    for (int o = 0; o < kMlpHiddenDim; ++o) {
      const float bias = b_[1][static_cast<std::size_t>(o)];
      const float* row = &w_[1][static_cast<std::size_t>(o) * kMlpHiddenDim];
      for (std::size_t s = 0; s < m; ++s) {
        Half acc(bias);
        for (int i = 0; i < kMlpHiddenDim; ++i) {
          acc = Half::Fma(Half(row[i]), Half(h1[s][i]), acc);
        }
        const float a = acc.ToFloat();
        h2[s][o] = a > 0.0f ? a : 0.0f;
      }
    }
    for (int o = 0; o < kMlpOutputDim; ++o) {
      const float bias = b_[2][static_cast<std::size_t>(o)];
      const float* row = &w_[2][static_cast<std::size_t>(o) * kMlpHiddenDim];
      for (std::size_t s = 0; s < m; ++s) {
        Half acc(bias);
        for (int i = 0; i < kMlpHiddenDim; ++i) {
          acc = Half::Fma(Half(row[i]), Half(h2[s][i]), acc);
        }
        out[b0 + s][o] = Sigmoid(acc.ToFloat());
      }
    }
  }
}

const std::vector<float>& Mlp::W(int layer) const {
  SPNERF_CHECK(layer >= 0 && layer < 3);
  return w_[layer];
}

const std::vector<float>& Mlp::B(int layer) const {
  SPNERF_CHECK(layer >= 0 && layer < 3);
  return b_[layer];
}

}  // namespace spnerf
