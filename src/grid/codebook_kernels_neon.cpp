// AArch64 NEON instantiation of the generic codebook kernels. Advanced
// SIMD is architectural baseline on ARMv8-A so no target flags are needed;
// the TU still carries -ffp-contract=off so intrinsic mul/add pairs are
// never fused.
#include "grid/codebook_kernels.hpp"

#if defined(__aarch64__)

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/simd_lanes_neon.hpp"

#define SPNF_LANES ::spnerf::simd::LanesNeon

namespace spnerf::codebook_kernels {
namespace neonimpl {
#include "grid/codebook_kernels_impl.inl"
}  // namespace neonimpl

const KernelTable* NeonTable() { return &neonimpl::kTable; }

}  // namespace spnerf::codebook_kernels

#else  // !__aarch64__

namespace spnerf::codebook_kernels {
const KernelTable* NeonTable() { return nullptr; }
}  // namespace spnerf::codebook_kernels

#endif
