#include "render/render_engine.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spnerf {
namespace {

/// One (job, tile) work unit; its position in the task list indexes the
/// tile's stat accumulator shard.
struct TileTask {
  std::size_t job = 0;
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

struct TileAccum {
  RenderStats stats;
  DecodeCounters counters;
};

/// Engine-layer metric handles, resolved once per process.
struct EngineMetrics {
  obs::Counter& batches = obs::MetricsRegistry::Global().GetCounter(
      "render/batches");
  obs::Counter& tiles = obs::MetricsRegistry::Global().GetCounter(
      "render/tiles");
  obs::Histogram& batch_jobs = obs::MetricsRegistry::Global().GetHistogram(
      "render/batch-jobs");
};

EngineMetrics& Metrics() {
  static EngineMetrics metrics;
  return metrics;
}

}  // namespace

/// Everything one in-flight batch owns: the deterministic (job, tile) task
/// list, the per-tile stat shards, the per-job completion latches and the
/// promises the futures hang off. Shared by every thread draining the tile
/// cursor and kept alive (shared_ptr) until the detached region finishes.
struct RenderEngine::BatchState {
  std::vector<RenderJob> jobs;
  std::vector<VolumeRenderer> renderers;   // one per job
  std::vector<TileTask> tasks;             // job-major, row-major tiles
  std::vector<std::size_t> job_first;      // per job: first task index (+end)
  std::vector<TileAccum> shards;           // one per task
  std::vector<Image> images;               // one per job, written by tiles
  std::vector<std::promise<RenderResult>> promises;
  // Per-job completion latches, one per job (atomics are not movable, so
  // not a vector).
  std::unique_ptr<std::atomic<int>[]> tiles_left;
  std::atomic<std::size_t> cursor{0};        // next unclaimed task
  std::chrono::steady_clock::time_point issued;
  u64 trace_issue_ns = 0;  // trace-clock issue stamp; 0 = tracing off
  std::mutex error_mutex;
  // First render error per job; delivered through the job's future so a
  // throwing tile never escapes a detached pool worker (std::terminate).
  std::vector<std::exception_ptr> job_errors;

  void RenderTile(std::size_t task_index);
  /// Ordered reduction of the job's shards (shard order == tile enumeration
  /// order, fixed by the image sizes alone) and promise fulfillment. Runs
  /// exactly once per job, on whichever thread finishes its last tile.
  void FinalizeJob(std::size_t job_index);
  /// Claims tiles from the shared cursor until the batch runs dry.
  void DrainTiles();
  /// One future per job, in job order.
  [[nodiscard]] std::vector<std::future<RenderResult>> TakeFutures();
  /// Parallelism seats for this batch on `pool` under the engine's cap.
  [[nodiscard]] unsigned Slots(const ThreadPool& pool, unsigned cap) const {
    return static_cast<unsigned>(
        std::min<std::size_t>(pool.ResolveWorkers(cap), tasks.size()));
  }
};

std::vector<std::future<RenderResult>> RenderEngine::BatchState::TakeFutures() {
  std::vector<std::future<RenderResult>> futures;
  futures.reserve(promises.size());
  for (std::promise<RenderResult>& p : promises) {
    futures.push_back(p.get_future());
  }
  return futures;
}

void RenderEngine::BatchState::RenderTile(std::size_t task_index) {
  const TileTask& t = tasks[task_index];
  const RenderJob& job = jobs[t.job];
  RenderStats* stats = job.collect_stats ? &shards[task_index].stats : nullptr;
  DecodeCounters* counters =
      job.collect_stats ? &shards[task_index].counters : nullptr;
  Image& img = images[t.job];
  const VolumeRenderer& renderer = renderers[t.job];
  renderer.RenderTile(*job.source, *job.mlp, job.camera, t.x0, t.y0, t.x1,
                      t.y1, img, stats, counters);
}

void RenderEngine::BatchState::FinalizeJob(std::size_t job_index) {
  {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (job_errors[job_index]) {
      promises[job_index].set_exception(job_errors[job_index]);
      return;
    }
  }
  RenderResult result;
  result.image = std::move(images[job_index]);
  if (jobs[job_index].collect_stats) {
    for (std::size_t i = job_first[job_index]; i < job_first[job_index + 1];
         ++i) {
      result.stats.Merge(shards[i].stats);
      result.counters.Merge(shards[i].counters);
    }
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - issued)
                       .count();
  if (trace_issue_ns != 0 && obs::FullTracingEnabled()) {
    // The job's issue-to-finalize span on the engine layer, correlated to
    // the submitting request through the job's flow id.
    obs::TraceEvent ev;
    ev.category = "render";
    ev.name = "render";
    ev.start_ns = trace_issue_ns;
    ev.end_ns = obs::TraceNowNs();
    ev.flow = jobs[job_index].trace_flow;
    ev.AddArg("tiles", static_cast<i64>(job_first[job_index + 1] -
                                        job_first[job_index]));
    obs::Emit(ev);
  }
  promises[job_index].set_value(std::move(result));
}

void RenderEngine::BatchState::DrainTiles() {
  const bool counters = obs::CountersEnabled();
  for (;;) {
    const std::size_t i = cursor.fetch_add(1);
    if (i >= tasks.size()) break;
    const std::size_t j = tasks[i].job;
    if (counters) Metrics().tiles.Add();
    {
      // Scoped so the tile span closes before FinalizeJob's own span opens
      // — keeps per-thread spans properly nested for the Chrome viewer.
      obs::TraceSpan tile_span("render", "tile", jobs[j].trace_flow);
      try {
        RenderTile(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!job_errors[j]) job_errors[j] = std::current_exception();
      }
    }
    // acq_rel: the finalizing thread must see every other thread's shard
    // and pixel writes for this job.
    if (tiles_left[j].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FinalizeJob(j);
    }
  }
}

RenderEngine::RenderEngine(RenderEngineOptions options) : options_(options) {
  SPNERF_CHECK_MSG(options_.tile_size > 0, "tile size must be positive");
  if (options_.pool == nullptr && options_.max_threads != 0 &&
      options_.max_threads > ThreadPool::Global().WorkerCount()) {
    // Explicit oversubscription: the caller asked for more workers than the
    // global pool detected cores, so give them a pool of that size.
    dedicated_ = std::make_unique<ThreadPool>(options_.max_threads);
  }
}

// Out-of-line: BatchState is complete only here.
RenderEngine::~RenderEngine() = default;

ThreadPool& RenderEngine::SchedulePool() const {
  if (options_.pool != nullptr) return *options_.pool;
  if (dedicated_ != nullptr) return *dedicated_;
  return ThreadPool::Global();
}

const RenderEngine& RenderEngine::Shared() {
  static const RenderEngine engine;
  return engine;
}

RenderResult RenderEngine::Render(const RenderJob& job) const {
  std::vector<RenderResult> results = RenderBatch({job});
  return std::move(results.front());
}

std::shared_ptr<RenderEngine::BatchState> RenderEngine::PrepareBatch(
    std::vector<RenderJob> jobs) const {
  // The record owns nothing of the engine's, so the batch may still be
  // draining after the engine itself was destroyed (only the sources, the
  // MLPs and the thread pool must outlive it).
  auto state = std::make_shared<BatchState>();
  state->issued = std::chrono::steady_clock::now();
  state->trace_issue_ns = obs::FullTracingEnabled() ? obs::TraceNowNs() : 0;
  state->jobs = std::move(jobs);
  const std::size_t n = state->jobs.size();
  if (obs::CountersEnabled()) {
    Metrics().batches.Add();
    Metrics().batch_jobs.Record(n);
  }
  state->renderers.reserve(n);
  state->images.resize(n);
  state->promises.resize(n);
  state->tiles_left = std::make_unique<std::atomic<int>[]>(n);
  state->job_errors.resize(n);
  state->job_first.reserve(n + 1);

  // Deterministic tile decomposition: row-major tiles per job, jobs in batch
  // order. Shard indices follow the same enumeration, so every reduction is
  // a fixed-order fold for a given batch regardless of scheduling or what
  // other batches share the pool.
  const int tile = options_.tile_size;
  for (std::size_t j = 0; j < n; ++j) {
    const RenderJob& job = state->jobs[j];
    SPNERF_CHECK_MSG(job.source != nullptr && job.mlp != nullptr,
                     "render job needs a field source and an MLP");
    state->renderers.emplace_back(job.options);
    state->images[j] = Image(job.camera.Width(), job.camera.Height());
    state->job_first.push_back(state->tasks.size());
    for (int y = 0; y < job.camera.Height(); y += tile) {
      for (int x = 0; x < job.camera.Width(); x += tile) {
        TileTask t;
        t.job = j;
        t.x0 = x;
        t.y0 = y;
        t.x1 = std::min(x + tile, job.camera.Width());
        t.y1 = std::min(y + tile, job.camera.Height());
        state->tasks.push_back(t);
      }
    }
    state->tiles_left[j].store(
        static_cast<int>(state->tasks.size() - state->job_first[j]),
        std::memory_order_relaxed);
  }
  state->job_first.push_back(state->tasks.size());
  state->shards.assign(state->tasks.size(), TileAccum{});

  // A job with a zero-area camera has no tiles; its future must still
  // resolve.
  for (std::size_t j = 0; j < n; ++j) {
    if (state->job_first[j] == state->job_first[j + 1]) state->FinalizeJob(j);
  }
  return state;
}

std::vector<std::future<RenderResult>> RenderEngine::SubmitBatch(
    std::vector<RenderJob> jobs) const {
  std::shared_ptr<BatchState> state = PrepareBatch(std::move(jobs));
  std::vector<std::future<RenderResult>> futures = state->TakeFutures();
  if (state->tasks.empty()) return futures;
  ThreadPool& pool = SchedulePool();
  pool.Submit(state->Slots(pool, options_.max_threads),
              [state](unsigned) { state->DrainTiles(); });
  return futures;
}

void RenderEngine::SubmitBatch(
    std::vector<RenderJob> jobs,
    std::function<void(std::vector<std::future<RenderResult>>)> on_complete)
    const {
  std::shared_ptr<BatchState> state = PrepareBatch(std::move(jobs));
  // The harvest runs after every job's promise is fulfilled (the region
  // completes only once all tiles returned), so every delivered future is
  // ready; the callback's own get() calls surface per-job render errors.
  auto futures = std::make_shared<std::vector<std::future<RenderResult>>>(
      state->TakeFutures());
  auto harvest = [futures, callback = std::move(on_complete)]() {
    callback(std::move(*futures));
  };
  if (state->tasks.empty()) {
    harvest();
    return;
  }
  ThreadPool& pool = SchedulePool();
  pool.Submit(state->Slots(pool, options_.max_threads),
              [state](unsigned) { state->DrainTiles(); }, std::move(harvest));
}

std::vector<RenderResult> RenderEngine::RenderBatch(
    const std::vector<RenderJob>& jobs) const {
  std::shared_ptr<BatchState> state = PrepareBatch(jobs);
  std::vector<std::future<RenderResult>> futures = state->TakeFutures();
  if (!state->tasks.empty()) {
    ThreadPool& pool = SchedulePool();
    const unsigned workers = state->Slots(pool, options_.max_threads);
    // The calling thread takes one of the seats and helps drain the tile
    // queue — blocking callers never leave their own core idle — while the
    // remaining seats go to the pool as a detached region.
    if (workers > 1) {
      pool.Submit(workers - 1, [state](unsigned) { state->DrainTiles(); });
    }
    state->DrainTiles();
  }
  std::vector<RenderResult> results;
  results.reserve(futures.size());
  for (std::future<RenderResult>& f : futures) results.push_back(f.get());
  return results;
}

}  // namespace spnerf
