// The rendering MLP: 3 layers with channel sizes 128, 128, 3 (paper IV-C),
// ReLU hidden activations and sigmoid RGB output — the DVGO/VQRF "rgbnet".
// Weights are seeded deterministically (the repo has no training loop; the
// MLP is a fixed decoder, identical across all compared pipelines, so any
// feature error propagates to RGB exactly as in the real system).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/vec.hpp"

namespace spnerf {

class Mlp {
 public:
  Mlp() = default;

  /// Xavier-uniform initialisation from a seed.
  static Mlp Random(u64 seed);

  /// Forward pass for one 39-d input; returns RGB in [0,1]. Runs the
  /// scalar implementation on one sample.
  [[nodiscard]] Vec3f Forward(const std::array<float, kMlpInputDim>& in) const;

  /// Forward pass with every intermediate rounded to FP16 — bit-faithful to
  /// the accelerator's systolic datapath (FP16 MACs, FP32 accumulate is NOT
  /// used; the array is FP16 end-to-end).
  [[nodiscard]] Vec3f ForwardFp16(
      const std::array<float, kMlpInputDim>& in) const;

  /// Batched forward pass: the active SIMD kernel, else the scalar
  /// implementation. `out[i]` is bit-identical to `Forward(in[i])`.
  void ForwardBatch(std::span<const std::array<float, kMlpInputDim>> in,
                    std::span<Vec3f> out) const;

  /// FP16 flavour of ForwardBatch; `out[i]` is bit-identical to
  /// `ForwardFp16(in[i])`.
  void ForwardFp16Batch(std::span<const std::array<float, kMlpInputDim>> in,
                        std::span<Vec3f> out) const;

  /// MAC count of one forward pass (used by performance models):
  /// 39*128 + 128*128 + 128*3.
  static constexpr u64 MacsPerSample() {
    return static_cast<u64>(kMlpInputDim) * kMlpHiddenDim +
           static_cast<u64>(kMlpHiddenDim) * kMlpHiddenDim +
           static_cast<u64>(kMlpHiddenDim) * kMlpOutputDim;
  }

  /// Total parameter count (weights + biases).
  static constexpr u64 ParameterCount() {
    return static_cast<u64>(kMlpInputDim) * kMlpHiddenDim + kMlpHiddenDim +
           static_cast<u64>(kMlpHiddenDim) * kMlpHiddenDim + kMlpHiddenDim +
           static_cast<u64>(kMlpHiddenDim) * kMlpOutputDim + kMlpOutputDim;
  }

  /// Weight-buffer bytes when stored FP16 on chip.
  static constexpr u64 WeightBytesFp16() { return ParameterCount() * 2; }

  // Row-major weight accessors (layer 0: [hidden x in], 1: [hidden x hidden],
  // 2: [out x hidden]); used by the systolic-array simulator.
  [[nodiscard]] const std::vector<float>& W(int layer) const;
  [[nodiscard]] const std::vector<float>& B(int layer) const;

 private:
  // The one scalar implementation of each forward pass, which every SIMD
  // kernel must match bit for bit. It is a blocked matrix product: each
  // weight row streams across a block of samples while it is hot in cache,
  // the software analogue of the systolic array's weight-stationary reuse.
  // Blocking leaves each sample's accumulation chain (bias first, then
  // inputs in index order) unchanged, and makes forced-scalar frames ~1.1x
  // faster than a per-sample loop.
  void ForwardScalar(std::span<const std::array<float, kMlpInputDim>> in,
                     std::span<Vec3f> out) const;
  void ForwardFp16Scalar(std::span<const std::array<float, kMlpInputDim>> in,
                         std::span<Vec3f> out) const;

  std::vector<float> w_[3];
  std::vector<float> b_[3];
  // Half(w).ToFloat() of every weight and bias: the binary16 values the
  // fp16 kernels multiply by, rounded once at initialisation.
  std::vector<float> wq_[3];
  std::vector<float> bq_[3];
};

}  // namespace spnerf
