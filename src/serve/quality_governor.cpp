#include "serve/quality_governor.hpp"

#include <algorithm>
#include <array>

namespace spnerf {

namespace {

/// A rung fits a deadline when predicted cost <= remaining * headroom.
constexpr double kDeadlineHeadroom = 0.8;
/// Queue-occupancy thresholds (depth / capacity) flooring the rung, indexed
/// by rung; entry 0 is unused. Batch-class requests ignore these.
constexpr std::array<double, kQualityRungCount> kLoadFloors{0.0, 0.5, 0.75,
                                                             0.9};
/// Rung floor while the pressure window is open (every class).
constexpr int kPressureFloor = 2;
/// The pressure window closes when the dispatcher observes
/// depth <= kPressureLowWater * capacity.
constexpr double kPressureLowWater = 0.5;
/// EWMA smoothing factor for online cost refinement.
constexpr double kEwmaAlpha = 0.2;

int ClampRung(int rung) {
  return std::clamp(rung, 0, static_cast<int>(kQualityRungCount) - 1);
}

}  // namespace

QualityRung QualityGovernor::Decide(std::size_t priority_class,
                                    bool has_deadline, double remaining_ms,
                                    std::size_t queue_depth,
                                    const std::string& key) const {
  if (!options_.enabled) return QualityRung::kFull;
  int rung = 0;

  // 1. Load floor — skipped for the batch class (index 0): offline work
  // keeps full quality until a deadline or the pressure window says
  // otherwise.
  if (priority_class != 0 && capacity_ > 0) {
    const double occupancy = static_cast<double>(queue_depth) /
                             static_cast<double>(capacity_);
    for (int r = static_cast<int>(kQualityRungCount) - 1; r >= 1; --r) {
      if (occupancy >= kLoadFloors[static_cast<std::size_t>(r)]) {
        rung = r;
        break;
      }
    }
  }

  // 2. Pressure window: a full queue degrades every class.
  if (pressure_.load(std::memory_order_relaxed)) {
    rung = std::max(rung, kPressureFloor);
  }

  // 3. Deadline fit: escalate until the predicted cost fits the remaining
  // budget; past the last rung it's best effort.
  const int ceiling = ClampRung(options_.max_rung);
  rung = std::min(rung, ceiling);
  if (has_deadline) {
    const double budget = remaining_ms * kDeadlineHeadroom;
    while (rung < ceiling &&
           PredictMs(key, static_cast<QualityRung>(rung)) > budget) {
      ++rung;
    }
  }
  return static_cast<QualityRung>(rung);
}

double QualityGovernor::PredictLocked(const Ladder* ladder,
                                      QualityRung rung) const {
  const auto r = static_cast<std::size_t>(rung);
  if (ladder != nullptr) {
    if ((*ladder)[r].seeded) return (*ladder)[r].value;
    // Calibrated-from-warmup path: the key's observed full-quality cost,
    // scaled by the static rung priors.
    if ((*ladder)[0].seeded) return (*ladder)[0].value * RungCostScale(rung);
  }
  if (global_[r].seeded) return global_[r].value;
  if (global_[0].seeded) return global_[0].value * RungCostScale(rung);
  return options_.default_cost_ms * RungCostScale(rung);
}

double QualityGovernor::PredictMs(const std::string& key,
                                  QualityRung rung) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = costs_.find(key);
  return PredictLocked(it != costs_.end() ? &it->second : nullptr, rung);
}

void QualityGovernor::SeedCost(const std::string& key, double rung0_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  Ewma& slot = costs_[key][0];
  slot.value = rung0_ms;
  slot.seeded = true;
}

void QualityGovernor::Observe(const std::string& key, QualityRung rung,
                              double ms) {
  if (options_.freeze_costs || ms < 0.0) return;
  const auto r = static_cast<std::size_t>(rung);
  std::lock_guard<std::mutex> lock(mutex_);
  for (Ewma* slot : {&costs_[key][r], &global_[r]}) {
    if (slot->seeded) {
      slot->value = (1.0 - kEwmaAlpha) * slot->value + kEwmaAlpha * ms;
    } else {
      slot->value = ms;
      slot->seeded = true;
    }
  }
}

void QualityGovernor::NotePressure() {
  pressure_.store(true, std::memory_order_relaxed);
}

void QualityGovernor::NoteDepth(std::size_t depth) {
  if (!pressure_.load(std::memory_order_relaxed)) return;
  const double low_water = kPressureLowWater * static_cast<double>(capacity_);
  if (static_cast<double>(depth) <= low_water) {
    pressure_.store(false, std::memory_order_relaxed);
  }
}

}  // namespace spnerf
