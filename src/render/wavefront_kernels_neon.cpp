// AArch64 NEON instantiation of the generic wavefront kernels. Advanced
// SIMD is architectural baseline on ARMv8-A so no target flags are needed;
// the TU still carries -ffp-contract=off so intrinsic mul/add pairs are
// never fused.
#include "render/wavefront_kernels.hpp"

#if defined(__aarch64__)

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "common/aligned.hpp"
#include "common/simd_lanes_neon.hpp"

#define SPNF_LANES ::spnerf::simd::LanesNeon

namespace spnerf::wavefront {
namespace neonimpl {
#include "render/wavefront_kernels_impl.inl"
}  // namespace neonimpl

const KernelTable* NeonTable() { return &neonimpl::kTable; }

}  // namespace spnerf::wavefront

#else  // !__aarch64__

namespace spnerf::wavefront {
const KernelTable* NeonTable() { return nullptr; }
}  // namespace spnerf::wavefront

#endif
