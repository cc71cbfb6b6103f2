// AVX2 instantiation of the generic codebook kernels. This TU is compiled
// with -mavx2 -mf16c -ffp-contract=off (see CMakeLists.txt); the kernels
// are only ever dispatched to after a runtime __builtin_cpu_supports check
// (common/simd.cpp), so building them in does not raise the binary's
// baseline ISA.
#include "grid/codebook_kernels.hpp"

#if defined(__AVX2__) && defined(__F16C__)

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/simd_lanes_avx2.hpp"

#define SPNF_LANES ::spnerf::simd::LanesAvx2

namespace spnerf::codebook_kernels {
namespace avx2impl {
#include "grid/codebook_kernels_impl.inl"
}  // namespace avx2impl

const KernelTable* Avx2Table() { return &avx2impl::kTable; }

}  // namespace spnerf::codebook_kernels

#else  // !(__AVX2__ && __F16C__)

namespace spnerf::codebook_kernels {
const KernelTable* Avx2Table() { return nullptr; }
}  // namespace spnerf::codebook_kernels

#endif
