#include "render/wavefront_kernels.hpp"

namespace spnerf::wavefront {

const KernelTable* ForPath(simd::Path path) {
  switch (path) {
    case simd::Path::kScalar:
      // No table: each batch entry point runs its one scalar
      // implementation, the same code the differential tests compare the
      // kernels against.
      return nullptr;
    case simd::Path::kAvx2:
      return Avx2Table();
    case simd::Path::kNeon:
      return NeonTable();
  }
  return nullptr;
}

const KernelTable* Active() { return ForPath(simd::ActivePath()); }

}  // namespace spnerf::wavefront
