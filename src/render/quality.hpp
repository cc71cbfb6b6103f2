// Discrete quality ladder for degrade-before-drop serving: ~4 rungs of pure
// execution-cost knobs over the render options. Rung 0 is today's full
// quality — ApplyRung() returns the base options untouched, so the existing
// differential suites remain the bit-identity oracle. Higher rungs trade
// bounded PSNR for large latency wins: coarser march step and earlier ray
// termination (rung 1), half-resolution render + deterministic bilinear
// upsample to the requested size (rung 2), 4x step at quarter resolution
// (rung 3). Every rung is a pure function of the base options — no RNG, no
// wall clock — so a given (request, rung) renders byte-identical pixels on
// any worker count or SIMD path.
//
// This header is deliberately light (enum + spec table + declarations), so
// the serving stats layer can size per-rung counters without pulling the
// renderer in; quality.cpp owns the RenderOptions-typed definitions.
#pragma once

#include <cstddef>

namespace spnerf {

struct RenderOptions;

/// Ladder rungs, ascending degradation (descending execution cost).
enum class QualityRung : int {
  kFull = 0,     // the unmodified render — bit-identical to no ladder
  kCoarse = 1,   // 2x step, earlier termination
  kHalf = 2,     // rung-1 knobs at half resolution + upsample
  kPreview = 3,  // 4x step at quarter resolution
};

inline constexpr std::size_t kQualityRungCount = 4;

const char* QualityRungName(QualityRung rung);

/// One rung's execution-cost knobs. `cost_scale` is the static prior for
/// the rung's render cost relative to rung 0 (rays x samples-per-ray, with
/// a fixed-overhead allowance); the QualityGovernor seeds a scene's ladder
/// from its first full-quality render via these scales, then refines each
/// rung from observed wall times.
struct RungSpec {
  /// Multiplies RenderOptions::step_size.
  float step_scale = 1.0f;
  /// Floor on RenderOptions::termination_transmittance (the base value wins
  /// when already higher, so a rung never *extends* a march).
  float min_termination_transmittance = 0.0f;
  /// Render at (w/d, h/d) and bilinear-upsample back to (w, h).
  int resolution_divisor = 1;
  /// Static cost prior relative to rung 0.
  double cost_scale = 1.0;
};

[[nodiscard]] const RungSpec& RungSpecFor(QualityRung rung);

[[nodiscard]] inline int RungResolutionDivisor(QualityRung rung) {
  return RungSpecFor(rung).resolution_divisor;
}
[[nodiscard]] inline double RungCostScale(QualityRung rung) {
  return RungSpecFor(rung).cost_scale;
}

/// Image dimension after a rung's resolution divisor (never below 1).
[[nodiscard]] inline int ReducedDim(int full, int divisor) {
  const int d = divisor < 1 ? 1 : divisor;
  const int reduced = full / d;
  return reduced < 1 ? 1 : reduced;
}

/// Applies a rung's knobs to the base options. Rung 0 returns `base`
/// byte-identical (not a single field is touched) — the ladder's
/// full-quality contract.
[[nodiscard]] RenderOptions ApplyRung(const RenderOptions& base,
                                      QualityRung rung);

}  // namespace spnerf
