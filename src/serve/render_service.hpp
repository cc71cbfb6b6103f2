// RenderService: the multi-tenant request-serving layer above core/.
//
// Callers Submit() asynchronous RenderRequests (scene + build params +
// camera view + priority + optional deadline) and get a future. A
// dispatcher thread runs the scheduling decisions of the *issue half*
// (pop, coalesce, claim the in-flight seat), while the heavy part of the
// issue — pipeline acquisition (possibly a cold build) and job setup —
// runs as a detached task on the engine's pool; the *completion half* runs
// on the engine's pool workers as batches finish. So up to
// `max_inflight_batches` engine batches with distinct batch keys overlap
// on the shared ThreadPool instead of serialising, and many tiny batches
// cannot bottleneck on one thread doing their setup:
//
//   * Admission. The queue holds at most `queue_capacity` requests. When it
//     is full, the lowest-ranked queued request is shed (explicit kRejected
//     status) if the incoming one outranks it; otherwise the incoming
//     request is rejected immediately. The service never grows an unbounded
//     backlog — overload turns into rejections, not latency collapse.
//     A full queue first sheds every expired entry (kExpired) in one
//     compaction pass; only a queue still full of live work evicts or
//     rejects. Admission is one step under the service mutex: the capacity
//     check, that pass or the eviction, and the entry's place in the ranked
//     queue. Every shed future resolves before Submit returns.
//   * Scheduling order. Highest priority first; within a priority class,
//     earliest absolute deadline first (requests without a deadline sort
//     last); FIFO as the tie-break. Deterministic for a fixed submit order.
//   * Deadline shedding. A request whose deadline passes while it waits is
//     completed with kExpired without rendering, by the next expiry pass (a
//     dispatch, or an admission into a full queue) — queue time is never
//     spent on work nobody can use. Once rendering starts a request always
//     completes (the result is already paid for); a deadline that lapses
//     mid-render is reported via RenderResponse::missed_deadline.
//   * Batching. The issue half pops the best-ranked request whose batch key
//     — pipeline key (scene, build params, render options, camera
//     intrinsics, MLP seed) plus masking flag — has no batch already in
//     flight, then coalesces every queued same-key request (in scheduling
//     order, up to `max_batch` jobs) into one RenderEngine batch, so tiles
//     of concurrent same-scene requests interleave across the shared
//     ThreadPool instead of serialising per request.
//   * Concurrency. Batches are issued through RenderEngine::SubmitBatch and
//     complete via callback; while one batch renders, the dispatcher issues
//     the next one as long as fewer than `max_inflight_batches` are in
//     flight. At most one batch per key is in flight at a time — same-key
//     requests coalesce into the *next* batch rather than racing the
//     current one, which keeps per-key dispatch order intact.
//   * Quality ladder (opt-in, options.ladder.enabled). At issue time the
//     QualityGovernor maps (remaining deadline, queue depth, per-rung EWMA
//     cost model, priority class) to a quality rung (render/quality.hpp);
//     the whole batch renders at that rung — coalescing is keyed on
//     (pipeline key, rung), so a mate only joins when its own decision
//     matches the leader's — reduced-resolution rungs upsample back to the
//     requested size in the completion half, and the chosen rung is
//     recorded in the response and the per-rung stats/obs counters. A
//     full-queue admission opens the governor's pressure window (degrade
//     over reject). Rung 0 output is bit-identical to the ladder-off
//     service; rung decisions are pure functions of scheduling state, so
//     they replay deterministically under a ManualClock.
//
// Rendering itself inherits the engine's determinism: response images are
// bit-identical for any worker count, batch composition or number of
// concurrently in-flight batches.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "core/pipeline_repository.hpp"
#include "serve/quality_governor.hpp"
#include "serve/service_stats.hpp"

namespace spnerf {

/// Scheduling classes, ascending urgency. kInteractive models a live viewer
/// waiting on the frame; kBatch models offline re-renders that should only
/// soak up spare capacity.
enum class RequestPriority : int {
  kBatch = 0,
  kNormal = 1,
  kInteractive = 2,
};

const char* RequestPriorityName(RequestPriority priority);

// The per-class ServiceStats counters index by the priority value; a new
// scheduling class must widen them, not silently alias an existing bucket.
static_assert(static_cast<std::size_t>(RequestPriority::kInteractive) + 1 ==
                  kPriorityClassCount,
              "kPriorityClassCount must cover every RequestPriority value");

/// One frame request. `config` names the pipeline (resolved through the
/// PipelineRepository, so same-config requests share built assets); the
/// view fields pick the orbit camera.
struct RenderRequest {
  PipelineConfig config;
  int image_width = 64;
  int image_height = 64;
  int view = 0;
  int n_views = 8;
  /// Render the SpNeRF path with (paper default) or without bitmap masking.
  bool bitmap_masking = true;
  RequestPriority priority = RequestPriority::kNormal;
  /// Relative deadline from submission, in ms; <= 0 means none. A request
  /// still queued past its deadline is shed with kExpired.
  double deadline_ms = 0.0;
};

enum class RequestStatus {
  kCompleted,  // image rendered
  kRejected,   // shed by admission control (queue full) or shutdown
  kExpired,    // deadline passed while queued; not rendered
};

const char* RequestStatusName(RequestStatus status);

struct RenderResponse {
  RequestStatus status = RequestStatus::kRejected;
  Image image;  // empty unless kCompleted
  /// Submit -> issue (the batch handed to the engine); for shed requests,
  /// submit -> shed (their whole queued lifetime, ~0 when dropped straight
  /// at admission).
  double queue_ms = 0.0;
  /// Submit -> response ready.
  double total_ms = 0.0;
  /// Number of requests coalesced into the engine batch that served this
  /// one (>= 1 for completed requests).
  std::size_t batch_size = 0;
  /// Monotonically increasing per-batch issue counter; requests of one
  /// batch share it. Exposes the issue order to tests and benches — under
  /// concurrent batches, completion order may differ from issue order.
  u64 dispatch_index = 0;
  /// Completed, but after the request's deadline lapsed mid-render.
  bool missed_deadline = false;
  /// Quality rung the request was served at (render/quality.hpp). kFull
  /// unless the ladder is enabled and the governor degraded under pressure;
  /// kFull responses are bit-identical to the ladder-off service's.
  QualityRung rung = QualityRung::kFull;
};

struct RenderServiceOptions {
  /// Bound on queued (admitted, not yet dispatched) requests.
  std::size_t queue_capacity = 256;
  /// Cap on requests coalesced into one engine batch.
  std::size_t max_batch = 8;
  /// Cap on engine batches in flight at once. 1 reproduces the serial
  /// dispatcher (each batch finishes before the next issues); higher values
  /// let distinct-key batches overlap on the shared pool. Same-key requests
  /// never overlap regardless (one in-flight batch per key).
  std::size_t max_inflight_batches = 4;
  /// Tile scheduler configuration for every render the service issues (the
  /// request's own PipelineConfig::engine is ignored: execution policy is
  /// service-owned, and it never changes the rendered bytes).
  RenderEngineOptions engine;
  /// Pipeline source; nullptr uses PipelineRepository::Global().
  PipelineRepository* repository = nullptr;
  /// Scheduling clock (submit stamps, deadlines, queue ages); nullptr uses
  /// the real steady clock. Tests inject a ManualClock and advance virtual
  /// time past deadlines instead of sleeping wall time (common/clock.hpp).
  ClockSource* clock = nullptr;
  /// Start with dispatching paused; Start() (or Drain()) begins it. Lets
  /// tests and benches stage a backlog deterministically.
  bool start_paused = false;
  /// Adaptive quality ladder (degrade-before-drop). Disabled by default:
  /// every request renders at full quality, bit-identical to the
  /// pre-ladder service.
  QualityLadderOptions ladder;
};

class RenderService {
 public:
  explicit RenderService(RenderServiceOptions options = {});
  /// Drains nothing: queued requests are completed as kRejected, in-flight
  /// batches finish, then the dispatcher joins. Call Drain() first for a
  /// graceful stop.
  ~RenderService();

  RenderService(const RenderService&) = delete;
  RenderService& operator=(const RenderService&) = delete;

  /// Non-blocking admission. The returned future always becomes ready:
  /// kCompleted with the image, or kRejected/kExpired when shed. A request
  /// shed at admission resolves immediately.
  std::future<RenderResponse> Submit(RenderRequest request);

  /// Begins dispatching (no-op unless constructed start_paused).
  void Start();

  /// Blocks until the queue is empty and no batch is in flight. Implies
  /// Start(). New submissions during a drain extend it.
  void Drain();

  [[nodiscard]] ServiceStatsSnapshot Stats() const { return stats_.Snapshot(); }
  /// The ladder's governor — benches/tests seed or inspect the cost model
  /// through it (SeedCost is how determinism tests inject a frozen model).
  [[nodiscard]] QualityGovernor& Governor() { return governor_; }
  [[nodiscard]] const QualityGovernor& Governor() const { return governor_; }
  [[nodiscard]] std::size_t QueueDepth() const;
  [[nodiscard]] std::size_t InflightBatches() const;

  /// Batch-coalescing identity of a request: the pipeline key plus every
  /// request field that changes decoding (masking). Exposed for tests.
  [[nodiscard]] static std::string BatchKey(const RenderRequest& request);

 private:
  struct Pending;
  struct InflightBatch;

  using PendingHandle = std::unique_ptr<Pending>;

  void DispatcherLoop();
  /// Issue half, heavy part: acquires the pipeline, builds the jobs and
  /// hands the batch to RenderEngine::SubmitBatch. Runs as a detached task
  /// on the engine's pool (inline on the dispatcher when the pool has no
  /// worker threads), outside the service lock — the batch's seat and key
  /// were already claimed by the dispatcher.
  void IssueBatch(std::shared_ptr<InflightBatch> batch);
  /// Completion half: fulfills the batch's response futures (per-entry
  /// render errors become per-entry future exceptions) and releases its
  /// key/in-flight seat. Runs on an engine pool worker (or inline on the
  /// dispatcher when the pool has no worker threads).
  void CompleteBatch(const std::shared_ptr<InflightBatch>& batch,
                     std::vector<std::future<RenderResult>> results);
  /// Marks `batch` no longer in flight and wakes the dispatcher + drains.
  void ReleaseBatch(const InflightBatch& batch);
  /// Completes `entry` as shed with `status` and records stats.
  void Shed(Pending& entry, RequestStatus status);
  /// The one expiry pass, run by a full-queue admission and by the
  /// dispatcher before it picks a batch: a stable compaction that moves
  /// every entry expired at `now` from the queue into `out`. One pass over
  /// at most `queue_capacity` entries. Caller must hold mutex_ and Shed()
  /// the moved entries after releasing it.
  void TakeExpiredLocked(std::chrono::steady_clock::time_point now,
                         std::vector<PendingHandle>& out);
  /// True when some queued request's batch key has no batch in flight.
  /// Caller must hold mutex_.
  [[nodiscard]] bool HasDispatchableLocked() const;

  RenderServiceOptions options_;
  PipelineRepository& repository_;
  /// Injected scheduling clock (options.clock or the system clock). The
  /// tracing layer keeps its own real clock — see common/clock.hpp.
  ClockSource& clock_;
  RenderEngine engine_;
  ServiceStats stats_;
  /// Quality-ladder policy (options_.ladder); a disabled governor always
  /// answers kFull.
  QualityGovernor governor_;

  /// Request correlation ids for the tracing layer: every admitted request
  /// gets one (relaxed fetch_add, before admission takes the lock), and
  /// every span/instant of its lifetime carries it as the trace flow id.
  std::atomic<u64> next_request_id_{1};

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // dispatcher wakeups
  std::condition_variable idle_cv_;   // Drain() wakeups
  /// Admitted requests not yet dispatched or shed. Its size is the
  /// admission capacity gate. Guarded by mutex_.
  std::vector<PendingHandle> queue_;
  std::unordered_set<std::string> inflight_keys_;  // guarded by mutex_
  std::size_t inflight_batches_ = 0;  // guarded by mutex_
  u64 next_sequence_ = 0;             // guarded by mutex_
  u64 next_dispatch_ = 0;             // guarded by mutex_
  bool paused_ = false;               // guarded by mutex_
  bool stopping_ = false;             // guarded by mutex_
  std::thread dispatcher_;
};

}  // namespace spnerf
