// Persistent task-scheduler thread pool and the parallel-for primitives
// built on it. The pool keeps its workers alive across calls (no per-call
// thread spawn) and schedules *regions* — fork-join parallel sections — so
// independent threads can have several regions in flight at once: each
// region keeps its own claim cursor and completion latch, and a region
// finishing never blocks another from starting. Parallel regions hand out
// contiguous index chunks from an atomic cursor, so load balances
// dynamically while every index is visited exactly once. Results must be
// written to disjoint, pre-sized outputs so runs are bit-reproducible
// regardless of the worker count, the schedule, or what other regions the
// pool is running concurrently.
//
// Scheduling is one mutex + two condition variables: a FIFO of regions with
// unclaimed slots, whose slots are claimed under the lock (see
// ARCHITECTURE.md, "Rendering flow", for why there is no lock-free variant).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace spnerf {

/// A fixed set of worker threads executing parallel regions. Blocking
/// regions (RunOnWorkers) are driven jointly by the pool threads and the
/// dispatching thread, which claims slots of its own region alongside the
/// workers; detached regions (Submit) run entirely on pool threads and
/// report completion through a callback. Regions from independent threads
/// interleave on the shared workers instead of serialising — the pool is
/// work-conserving across concurrent dispatchers.
///
/// Use the process-wide lazy singleton via Global() for rendering and
/// preprocessing; construct explicit instances in tests or when isolating
/// workloads. Regions dispatched from inside a pool worker run inline on
/// that worker (no nested fan-out, no deadlock).
class ThreadPool {
 public:
  /// `workers = 0` sizes the pool to std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned workers = 0);
  /// Waits for every live region (blocking and detached) to finish, then
  /// joins the workers. Detached completions always run before destruction
  /// returns.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallel slots available to a region (pool threads + calling thread).
  [[nodiscard]] unsigned WorkerCount() const { return worker_count_; }

  /// Parallelism a worker cap resolves to: 0 means every worker, anything
  /// else clamps to WorkerCount(). The one rule shared by ParallelFor, the
  /// render engine and the bench reporting.
  [[nodiscard]] unsigned ResolveWorkers(unsigned cap) const {
    return cap ? std::min(cap, worker_count_) : worker_count_;
  }

  /// Process-wide pool, created on first use.
  static ThreadPool& Global();

  /// Invokes fn(slot) for every slot in [0, slots), each exactly once, and
  /// returns when all slots finish. `slots` is clamped to WorkerCount().
  /// The calling thread participates by claiming slots of its own region
  /// alongside the pool workers (so progress never depends on a free pool
  /// thread); which thread runs which slot is unspecified. Regions
  /// dispatched from inside a running region (any slot) execute inline on
  /// that thread; concurrent dispatches from independent threads interleave
  /// on the shared workers. If any slot body throws, every slot still runs
  /// and the first exception is rethrown here once the region completes —
  /// a throw never unwinds the scheduler or kills a pool worker.
  template <typename Fn>
  void RunOnWorkers(unsigned slots, Fn&& fn) {
    using Callable = std::remove_reference_t<Fn>;
    Dispatch(
        [](void* ctx, unsigned slot) { (*static_cast<Callable*>(ctx))(slot); },
        const_cast<std::remove_const_t<Callable>*>(&fn), slots);
  }

  /// Detached region: enqueues fn(slot) for every slot in [0, slots) on the
  /// pool threads and returns immediately; `on_complete` (if any) runs on
  /// the worker that finishes the last slot, after every slot has returned.
  /// `slots` is clamped to WorkerCount(), exactly like RunOnWorkers — slots
  /// are parallelism seats, not work items; hand out work inside fn via a
  /// shared cursor. The region record is heap-allocated here and freed by
  /// that worker once the completion returned. When the pool has no worker
  /// threads (WorkerCount() == 1), or is already shutting down, the region
  /// — completion included — runs inline on the calling thread before
  /// Submit returns: the sequential fallback, same results, no asynchrony.
  void Submit(unsigned slots, std::function<void(unsigned)> fn,
              std::function<void()> on_complete = {});

 private:
  /// One live parallel region. After publication every mutable field is
  /// only touched under the pool mutex; the callable fields are immutable
  /// and read outside it.
  struct Region {
    void (*invoke)(void*, unsigned) = nullptr;  // blocking regions
    void* ctx = nullptr;
    std::function<void(unsigned)> body;  // detached regions own their fn
    std::function<void()> on_complete;   // detached only
    unsigned slots = 0;
    unsigned next_slot = 0;  // claim cursor
    unsigned remaining = 0;  // completion latch
    bool detached = false;
    bool done = false;  // blocking regions: completion flag
    /// Trace-clock stamp of the detached region's submission; 0 = tracing
    /// off. The last finisher emits the region-lifetime span from it.
    u64 trace_start_ns = 0;
    /// First exception a slot body threw. Blocking dispatchers rethrow it
    /// after the region completes; detached regions drop it (their
    /// submitters guard their own bodies).
    std::exception_ptr error;

    void Run(unsigned slot) { invoke ? invoke(ctx, slot) : body(slot); }
  };

  void Dispatch(void (*invoke)(void*, unsigned), void* ctx, unsigned slots);
  /// Publishes `region` to the workers. Caller holds mutex_.
  void Enqueue(Region* region);
  /// Removes a fully claimed region from open_. Caller holds mutex_.
  void Close(Region* region);
  /// Retires one finished slot; the last one completes the region (and, for
  /// a detached region, runs its completion with `lock` released, then
  /// frees the record). Caller holds `lock`.
  void FinishSlot(Region* region, std::unique_lock<std::mutex>& lock);
  void WorkerLoop();

  unsigned worker_count_ = 1;

  std::mutex mutex_;
  std::condition_variable work_ready_;   // workers: work exists
  std::condition_variable region_done_;  // dispatchers + destructor
  std::deque<Region*> open_;       // guarded: regions with unclaimed slots
  std::size_t live_regions_ = 0;   // guarded: enqueued, not fully finished
  bool stopping_ = false;          // guarded

  std::vector<std::thread> threads_;  // worker_count_ - 1 entries
};

/// Invokes fn(begin, end) on contiguous chunks of [0, n) across the pool's
/// workers (ThreadPool::Global() unless `pool` is given). fn must only touch
/// state disjoint per index. `max_threads` caps the parallelism; 0 uses
/// every worker. Safe to call from any number of threads concurrently: each
/// call is its own region with its own cursor, and the chunk decomposition
/// depends only on (n, workers) — never on what else the pool is running —
/// so outputs stay bit-identical to a sequential run.
template <typename Fn>
void ParallelFor(std::size_t n, Fn&& fn, unsigned max_threads = 0,
                 ThreadPool* pool = nullptr) {
  if (n == 0) return;
  ThreadPool& tp = pool ? *pool : ThreadPool::Global();
  unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(tp.ResolveWorkers(max_threads), n));
  if (workers <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  // ~4 chunks per worker: coarse enough to amortise the atomic cursor, fine
  // enough to balance uneven per-index cost.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(workers) * 4));
  std::atomic<std::size_t> cursor{0};
  tp.RunOnWorkers(workers, [&](unsigned) {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk);
      if (begin >= n) break;
      fn(begin, std::min(n, begin + chunk));
    }
  });
}

}  // namespace spnerf
