// AVX2 + F16C instantiation of the generic wavefront kernels. This TU is
// compiled with -mavx2 -mf16c -ffp-contract=off (see CMakeLists.txt); the
// kernels are only ever dispatched to after a runtime
// __builtin_cpu_supports check (common/simd.cpp), so building them in does
// not raise the binary's baseline ISA.
#include "render/wavefront_kernels.hpp"

#if defined(__AVX2__) && defined(__F16C__)

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "common/aligned.hpp"
#include "common/simd_lanes_avx2.hpp"

#define SPNF_LANES ::spnerf::simd::LanesAvx2

namespace spnerf::wavefront {
namespace avx2impl {
#include "render/wavefront_kernels_impl.inl"
}  // namespace avx2impl

const KernelTable* Avx2Table() { return &avx2impl::kTable; }

}  // namespace spnerf::wavefront

#else  // !(__AVX2__ && __F16C__)

namespace spnerf::wavefront {
const KernelTable* Avx2Table() { return nullptr; }
}  // namespace spnerf::wavefront

#endif
