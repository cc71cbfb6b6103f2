#include "sim/sgpu.hpp"

#include "common/error.hpp"

namespace spnerf {

SgpuModel::SgpuModel(int lanes) : lanes_(lanes) {
  SPNERF_CHECK_MSG(lanes > 0, "SGPU needs at least one lane");
}

SgpuTiming SgpuModel::Time(const SgpuActivity& activity) const {
  const u64 work = activity.vertex_lookups + activity.coarse_skip_probes;
  SgpuTiming t;
  t.cycles = (work + static_cast<u64>(lanes_) - 1) /
             static_cast<u64>(lanes_);
  t.lane_utilization =
      t.cycles ? static_cast<double>(work) /
                     (static_cast<double>(t.cycles) * lanes_)
               : 0.0;
  return t;
}

double SgpuModel::LogicEnergyJ(const SgpuActivity& activity,
                               const Tech28& tech) const {
  double pj = 0.0;
  // GID: Eq. (2) weight computation — 6 FP16 mul/sub pairs per sample, plus
  // ceil/round logic (counted within the ALU figure).
  pj += static_cast<double>(activity.samples) * 6.0 * tech.fp16_mul_pj;
  // Density interpolation runs for every sample (alpha is needed before the
  // feature path is gated): 8 FP16 FMAs per sample.
  pj += static_cast<double>(activity.samples) * 8.0 * tech.fp16_mac_pj;
  // BLU probes: every vertex lookup and every empty-space jump touches one
  // bit.
  pj += static_cast<double>(activity.vertex_lookups +
                            activity.coarse_skip_probes) *
        tech.bit_probe_pj;
  // HMU: Eq. (1) hash per non-masked lookup.
  pj += static_cast<double>(activity.hash_lookups) * tech.hash_unit_pj;
  // TIU: 13 FP16 FMAs (12 feature channels + density) per contributing
  // vertex, 8 vertices per interpolated sample, plus INT8 de-quantisation.
  pj += static_cast<double>(activity.interpolated_samples) * 8.0 *
        (13.0 * tech.fp16_mac_pj + 13.0 * tech.int8_op_pj);
  return pj * 1e-12;
}

}  // namespace spnerf
