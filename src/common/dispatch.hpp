// Scheduler identity for run stamps. ThreadPool and RenderService have one
// scheduler, the mutex + condition-variable path; this header only names it
// so reports that record the active dispatch mode keep a stable field.
#pragma once

#include "common/types.hpp"

namespace spnerf::dispatch {

/// Scheduler implementations. There is one.
enum class Mode : u8 {
  kLocked = 0,
};

/// Lower-case mode name, as recorded in run stamps.
[[nodiscard]] inline const char* ModeName(Mode) { return "locked"; }

/// The scheduler every ThreadPool and RenderService runs.
[[nodiscard]] inline Mode ActiveMode() { return Mode::kLocked; }

}  // namespace spnerf::dispatch
