// Sparse Grid Processing Unit model (paper IV-B): GID, BLU, HMU and TIU as
// parallel lookup lanes. Functional decode lives in encoding/; this model
// charges cycles and energy for the exact per-vertex unit activity the
// decode counters report.
#pragma once

#include "common/types.hpp"
#include "model/power_model.hpp"
#include "model/tech28.hpp"

namespace spnerf {

/// Per-frame SGPU activity (scaled from decode/render counters).
struct SgpuActivity {
  u64 samples = 0;            // interpolated sample points
  u64 coarse_skip_probes = 0; // one BLU probe per empty-space jump
  u64 vertex_lookups = 0;     // 8 per sample
  u64 bitmap_zero = 0;        // lookups answered by the bitmap alone
  u64 hash_lookups = 0;       // lookups that proceeded to the HMU
  u64 codebook_fetches = 0;
  u64 true_grid_fetches = 0;
  u64 interpolated_samples = 0;  // samples whose TIU accumulation ran
};

struct SgpuTiming {
  u64 cycles = 0;
  double lane_utilization = 0.0;
};

class SgpuModel {
 public:
  explicit SgpuModel(int lanes);

  [[nodiscard]] int Lanes() const { return lanes_; }

  /// Pipeline cycles to process a frame's activity: each lane retires one
  /// vertex lookup (or skip probe) per cycle, fully pipelined.
  [[nodiscard]] SgpuTiming Time(const SgpuActivity& activity) const;

  /// Datapath energy (GID weight ALUs + hash units + bitmap probes + TIU
  /// FMAs + INT8 de-quantisation), excluding SRAM access energy which is
  /// accounted by the buffer models.
  [[nodiscard]] double LogicEnergyJ(const SgpuActivity& activity,
                                    const Tech28& tech) const;

 private:
  int lanes_;
};

}  // namespace spnerf
