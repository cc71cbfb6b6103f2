// Portable SIMD layer: runtime ISA detection and dispatch-path selection
// for the vectorised wavefront kernels (see render/wavefront_kernels.hpp)
// and codebook-training kernels (grid/codebook_kernels.hpp).
//
// Design:
//   * Every kernel has one scalar implementation — the field sources'
//     Sample functions, Mlp's blocked ForwardScalar/ForwardFp16Scalar,
//     Codebook::Nearest and the seeding D^2 loop — which its entry point
//     runs whenever no kernel is active, and the SIMD paths are required
//     to be BIT-identical to it. Vectorisation is across independent
//     results (samples, or codebook rows in the nearest scan), so each
//     lane's accumulation chain keeps the exact scalar op order: no FMA
//     contraction, no reassociation.
//   * The dispatch path is process-global, resolved once from the
//     SPNF_SIMD environment variable ("scalar" | "avx2" | "neon"); absent
//     or unparseable values resolve to the best host-supported path. A
//     forced path the host cannot run degrades to scalar (never silently
//     to a different vector ISA), so a forced run is always deterministic.
//   * Tests and benches flip the path programmatically via SetActivePath;
//     render workers only ever read it (one relaxed atomic load), so
//     flipping between renders is race-free.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace spnerf::simd {

/// Dispatchable instruction-set paths. kScalar is always available and is
/// the correctness oracle the vector paths are differentially tested
/// against.
enum class Path : u8 {
  kScalar = 0,
  kAvx2,  // x86-64 AVX2 + F16C (every AVX2 core ships F16C)
  kNeon,  // AArch64 Advanced SIMD (baseline on every ARMv8-A core)
};

/// Lower-case path name ("scalar", "avx2", "neon") — used in bench entry
/// names and the SPNF_SIMD override.
[[nodiscard]] const char* PathName(Path path);

/// Parses a path name; returns false (and leaves `out` untouched) for
/// unknown strings. Case-sensitive: the override contract is lower-case.
bool ParsePathName(std::string_view name, Path& out);

/// True when the *host CPU* can execute `path` (kScalar always can).
/// Whether kernels for it were compiled into this binary is the kernel
/// table's concern — a supported path with no compiled table simply runs
/// scalar.
[[nodiscard]] bool PathSupported(Path path);

/// The widest host-supported path (what auto-detection resolves to).
[[nodiscard]] Path BestSupportedPath();

/// The path the SIMD kernels currently dispatch on. First call
/// resolves the SPNF_SIMD override / auto-detection; later calls are one
/// relaxed atomic load.
[[nodiscard]] Path ActivePath();

/// Forces the dispatch path (tests, benches, operational override).
/// Requesting a path the host cannot run degrades to kScalar. Returns the
/// path actually activated.
Path SetActivePath(Path requested);

/// Pure resolution rule for an override string, exposed for tests:
/// nullptr/empty -> BestSupportedPath(); a parseable supported name -> that
/// path; a parseable unsupported name -> kScalar (graceful degradation);
/// garbage -> BestSupportedPath().
[[nodiscard]] Path ResolveOverride(const char* value);

/// Compiler tag for bench host metadata, e.g. "gcc-13.2" / "clang-17.0".
[[nodiscard]] const char* CompilerName();

}  // namespace spnerf::simd
