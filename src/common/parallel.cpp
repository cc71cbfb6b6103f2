#include "common/parallel.hpp"

#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spnerf {
namespace {

// The pool whose region this thread is currently executing (or whose worker
// it permanently is). Dispatching onto the same pool from such a thread runs
// inline instead of re-entering the busy scheduler; dispatching onto a
// different, idle pool still fans out.
thread_local ThreadPool* tls_current_pool = nullptr;

/// Regions dispatched (blocking and detached), resolved once per process.
/// Recording is gated on obs::CountersEnabled() — the off level costs one
/// relaxed load per site.
obs::Counter& RegionsCounter() {
  static obs::Counter& regions =
      obs::MetricsRegistry::Global().GetCounter("pool/regions");
  return regions;
}

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  worker_count_ = workers;
  threads_.reserve(workers - 1);
  for (unsigned i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  work_ready_.notify_all();
  // Drain every live region — blocking dispatchers finish on their own, and
  // detached completions must run before the workers join.
  region_done_.wait(lock, [this] { return live_regions_ == 0; });
  lock.unlock();
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::Enqueue(Region* region) {
  open_.push_back(region);
  ++live_regions_;
  work_ready_.notify_all();
}

void ThreadPool::Close(Region* region) {
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if (*it == region) {
      open_.erase(it);
      return;
    }
  }
}

void ThreadPool::FinishSlot(Region* region,
                            std::unique_lock<std::mutex>& lock) {
  if (--region->remaining != 0) return;
  --live_regions_;
  region_done_.notify_all();  // the destructor waits on live_regions_
  if (!region->detached) {
    region->done = true;
    return;
  }
  if (region->trace_start_ns != 0 && obs::FullTracingEnabled()) {
    obs::TraceEvent ev;
    ev.category = "pool";
    ev.name = "region-detached";
    ev.start_ns = region->trace_start_ns;
    ev.end_ns = obs::TraceNowNs();
    ev.AddArg("slots", static_cast<i64>(region->slots));
    obs::Emit(ev);
  }
  // Every slot has returned, so this thread is the record's last user. The
  // body's captured state dies first, outside the lock, so the completion
  // is the last of the region to run.
  std::unique_ptr<Region> owned(region);
  lock.unlock();
  owned->body = nullptr;
  if (owned->on_complete) {
    // Same contract as detached slot bodies: an escaped exception is
    // dropped, never propagated into the worker loop (where it would
    // std::terminate the process). Submitters guard their own callbacks.
    try {
      owned->on_complete();
    } catch (...) {
    }
  }
  owned.reset();
  lock.lock();
}

void ThreadPool::WorkerLoop() {
  tls_current_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !open_.empty(); });
    if (open_.empty()) {
      if (stopping_) return;
      continue;  // queued regions drain even during shutdown
    }
    // FIFO by region: the front region always has unclaimed slots (fully
    // claimed regions leave the queue immediately), so claiming is O(1).
    Region* region = open_.front();
    const unsigned slot = region->next_slot++;
    if (slot + 1 == region->slots) open_.pop_front();
    lock.unlock();
    // A throwing body must not unwind the region protocol (the published
    // Region would be freed mid-use) or escape the worker (terminate):
    // capture the first exception for the region's dispatcher to rethrow.
    std::exception_ptr error;
    try {
      region->Run(slot);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !region->error) region->error = error;
    FinishSlot(region, lock);
  }
}

void ThreadPool::Dispatch(void (*invoke)(void*, unsigned), void* ctx,
                          unsigned slots) {
  slots = std::min(std::max(slots, 1u), worker_count_);
  if (slots == 1 || threads_.empty() || tls_current_pool == this) {
    // Sequential fallback; nested regions on the same pool also land here
    // so they cannot re-enter the scheduler from inside a slot. A different
    // pool's worker dispatching here still fans out.
    for (unsigned s = 0; s < slots; ++s) invoke(ctx, s);
    return;
  }
  if (obs::CountersEnabled()) RegionsCounter().Add();
  obs::TraceSpan region_span("pool", "region");
  region_span.AddArg("slots", static_cast<i64>(slots));
  Region region;
  region.invoke = invoke;
  region.ctx = ctx;
  region.slots = slots;
  region.remaining = slots;

  std::unique_lock<std::mutex> lock(mutex_);
  Enqueue(&region);
  // The dispatching thread claims slots of its own region alongside the
  // workers: progress never depends on a free pool thread, and a second
  // dispatcher arriving while the pool is busy still drives its own region.
  // It may itself belong to another pool; mark it as ours for the duration
  // so same-pool nesting stays inline, then restore.
  ThreadPool* const previous = tls_current_pool;
  tls_current_pool = this;
  while (region.next_slot < region.slots) {
    const unsigned slot = region.next_slot++;
    if (slot + 1 == region.slots) Close(&region);
    lock.unlock();
    std::exception_ptr error;
    try {
      invoke(ctx, slot);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !region.error) region.error = error;
    FinishSlot(&region, lock);
  }
  tls_current_pool = previous;
  region_done_.wait(lock, [&region] { return region.done; });
  // Rethrow only after every slot finished: the Region leaves the scheduler
  // intact whichever thread threw.
  if (region.error) {
    std::exception_ptr error = region.error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::Submit(unsigned slots, std::function<void(unsigned)> fn,
                        std::function<void()> on_complete) {
  slots = std::min(std::max(slots, 1u), worker_count_);
  if (obs::CountersEnabled()) RegionsCounter().Add();
  if (!threads_.empty()) {
    auto region = std::make_unique<Region>();
    region->body = std::move(fn);
    region->on_complete = std::move(on_complete);
    region->slots = slots;
    region->remaining = slots;
    region->detached = true;
    region->trace_start_ns = obs::FullTracingEnabled() ? obs::TraceNowNs() : 0;
    std::lock_guard<std::mutex> lock(mutex_);
    // Checking stopping_ and publishing the region is one step under the
    // lock, so the destructor's live-region wait covers every region it
    // lets through.
    if (!stopping_) {
      Enqueue(region.release());
      return;
    }
    fn = std::move(region->body);
    on_complete = std::move(region->on_complete);
  }
  // No workers to hand the region to (single-threaded pool, or shutdown
  // already draining): run it inline, completion included.
  for (unsigned s = 0; s < slots; ++s) fn(s);
  if (on_complete) on_complete();
}

}  // namespace spnerf
