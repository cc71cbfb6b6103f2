#include "serve/render_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "render/field_source.hpp"
#include "render/quality.hpp"

namespace spnerf {

using Clock = std::chrono::steady_clock;

namespace {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::size_t PriorityClass(RequestPriority priority) {
  return static_cast<std::size_t>(priority);
}

/// Interned tag ids for the request-span args, resolved once per process so
/// full-trace recording never re-probes the intern table for fixed names.
u32 PriorityTagId(RequestPriority priority) {
  static const u32 ids[kPriorityClassCount] = {
      obs::InternString("batch"), obs::InternString("normal"),
      obs::InternString("interactive")};
  return ids[PriorityClass(priority)];
}

u32 OutcomeTagId(RequestStatus status) {
  static const u32 ids[3] = {obs::InternString("completed"),
                             obs::InternString("rejected"),
                             obs::InternString("expired")};
  return ids[static_cast<std::size_t>(status)];
}

constexpr std::size_t kNoBest = static_cast<std::size_t>(-1);

}  // namespace

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kBatch: return "batch";
    case RequestPriority::kNormal: return "normal";
    case RequestPriority::kInteractive: return "interactive";
  }
  return "?";
}

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kCompleted: return "completed";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kExpired: return "expired";
  }
  return "?";
}

/// One admitted request waiting in the queue.
struct RenderService::Pending {
  RenderRequest request;
  std::promise<RenderResponse> promise;
  std::string batch_key;
  Clock::time_point submitted{};
  /// Absolute deadline; Clock::time_point::max() when none.
  Clock::time_point deadline = Clock::time_point::max();
  u64 sequence = 0;
  /// Trace correlation id (flow of every span this request emits).
  u64 request_id = 0;
  /// Trace-clock submit stamp (obs::TraceNowNs — NOT the scheduling clock),
  /// recorded only under full tracing; 0 otherwise. Start of the request's
  /// "request" and "queue" spans.
  u64 trace_submit_ns = 0;
  /// Interned batch key for span tags (0 unless full tracing).
  u32 trace_key_id = 0;

  [[nodiscard]] bool ExpiredAt(Clock::time_point now) const {
    return deadline != Clock::time_point::max() && now >= deadline;
  }

  /// True when this entry outranks `other` in scheduling order: priority
  /// first, then earliest deadline, then FIFO. Total and deterministic for
  /// a fixed submission order (sequences are unique).
  [[nodiscard]] bool Outranks(const Pending& other) const {
    if (request.priority != other.request.priority) {
      return static_cast<int>(request.priority) >
             static_cast<int>(other.request.priority);
    }
    if (deadline != other.deadline) return deadline < other.deadline;
    return sequence < other.sequence;
  }

  /// Emits this request's envelope "request" span, submit -> `end_ns`,
  /// carrying every tag the timeline reconstruction needs.
  void EmitRequestSpan(u64 end_ns, RequestStatus outcome) const {
    obs::TraceEvent ev;
    ev.start_ns = trace_submit_ns;
    ev.end_ns = end_ns;
    ev.category = "serve";
    ev.name = "request";
    ev.flow = request_id;
    ev.AddStrArg("priority", PriorityTagId(request.priority));
    ev.AddStrArg("key", trace_key_id);
    ev.AddStrArg("outcome", OutcomeTagId(outcome));
    obs::Emit(ev);
  }
};

/// One issued engine batch. Owns everything the render references until the
/// completion half runs: the coalesced requests, the acquired pipeline and
/// the stateless field source backing every job.
struct RenderService::InflightBatch {
  std::vector<PendingHandle> entries;
  std::string key;
  /// Quality rung the whole batch renders at — coalescing is keyed on
  /// (batch key, rung), so every entry shares these options.
  QualityRung rung = QualityRung::kFull;
  u64 dispatch_index = 0;
  Clock::time_point issued{};
  /// Trace-clock issue stamp (end of each entry's "queue" span, start of
  /// the batch's "issue" span); 0 unless full tracing.
  u64 trace_issue_ns = 0;
  std::shared_ptr<const ScenePipeline> pipeline;
  std::unique_ptr<SpNeRFFieldSource> source;
};

std::string RenderService::BatchKey(const RenderRequest& request) {
  // Engine fields are execution policy (service-owned, never change the
  // rendered bytes): exclude them so requests differing only there still
  // coalesce.
  PipelineConfig config = request.config;
  config.engine = RenderEngineOptions{};
  return PipelineRepository::PipelineKey(config) +
         (request.bitmap_masking ? "+mask" : "-mask");
}

RenderService::RenderService(RenderServiceOptions options)
    : options_(options),
      repository_(options.repository ? *options.repository
                                     : PipelineRepository::Global()),
      clock_(options.clock ? *options.clock : SystemClock()),
      engine_(options.engine),
      governor_(options.ladder, options.queue_capacity),
      paused_(options.start_paused) {
  SPNERF_CHECK_MSG(options_.queue_capacity > 0,
                   "serve: queue capacity must be positive");
  SPNERF_CHECK_MSG(options_.max_batch > 0,
                   "serve: max batch must be positive");
  SPNERF_CHECK_MSG(options_.max_inflight_batches > 0,
                   "serve: max inflight batches must be positive");
  stats_.SetClock(&clock_);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

RenderService::~RenderService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    paused_ = false;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void RenderService::Shed(Pending& entry, RequestStatus status) {
  RenderResponse response;
  response.status = status;
  response.total_ms = MsBetween(entry.submitted, clock_.Now());
  // A shed request spent its whole life queued (~0 when dropped straight
  // at admission); report that wait.
  response.queue_ms = response.total_ms;
  if (status == RequestStatus::kExpired) {
    stats_.RecordExpired(PriorityClass(entry.request.priority));
  } else {
    stats_.RecordRejected(PriorityClass(entry.request.priority));
  }
  // A shed request's whole timeline is its queue wait: submit -> shed.
  if (entry.trace_submit_ns != 0) {
    entry.EmitRequestSpan(obs::TraceNowNs(), status);
  }
  entry.promise.set_value(std::move(response));
}

void RenderService::TakeExpiredLocked(Clock::time_point now,
                                      std::vector<PendingHandle>& out) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < queue_.size(); ++read) {
    if (queue_[read]->ExpiredAt(now)) {
      out.push_back(std::move(queue_[read]));
    } else {
      if (write != read) queue_[write] = std::move(queue_[read]);
      ++write;
    }
  }
  queue_.resize(write);
}

std::future<RenderResponse> RenderService::Submit(RenderRequest request) {
  auto entry = std::make_unique<Pending>();
  entry->request = std::move(request);
  // Execution policy is service-owned: normalising the ignored engine
  // fields keeps requests differing only in them on one batch key and one
  // PipelineRepository entry (engine options never change rendered bytes).
  entry->request.config.engine = RenderEngineOptions{};
  entry->batch_key = BatchKey(entry->request);
  entry->submitted = clock_.Now();
  if (entry->request.deadline_ms > 0.0) {
    entry->deadline =
        entry->submitted + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   entry->request.deadline_ms));
  }
  entry->request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (obs::FullTracingEnabled()) {
    // Stamp the span start on the trace clock and intern the batch key once
    // per request — every later event of this request reuses both. The
    // intern lookup is lock-free (allocation only on a key's first-ever
    // occurrence), so tracing adds no lock to admission.
    entry->trace_submit_ns = obs::TraceNowNs();
    entry->trace_key_id = obs::InternString(entry->batch_key);
    obs::EmitInstant("serve", "admit", entry->request_id);
  }
  std::future<RenderResponse> future = entry->promise.get_future();

  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    lock.unlock();
    stats_.RecordSubmitted(0);
    Shed(*entry, RequestStatus::kRejected);
    return future;
  }
  entry->sequence = next_sequence_++;

  std::vector<PendingHandle> dead;
  // A full queue may be holding already-expired entries; shed them all
  // first — dead work must neither consume capacity nor hold its
  // (earliest-deadline, hence highest) rank against live arrivals. The
  // queue is bounded, so this costs at most one pass over queue_capacity
  // entries, the same scan every dispatch makes.
  if (queue_.size() >= options_.queue_capacity) {
    TakeExpiredLocked(clock_.Now(), dead);
  }
  if (queue_.size() < options_.queue_capacity) {
    queue_.push_back(std::move(entry));
    const std::size_t depth = queue_.size();
    lock.unlock();
    for (PendingHandle& e : dead) Shed(*e, RequestStatus::kExpired);
    stats_.RecordSubmitted(depth);
    work_cv_.notify_one();
    return future;
  }

  // Still full of live work (the pass freed nothing, so `dead` is empty):
  // degrade over reject — open the governor's pressure window before any
  // shedding decision, so subsequent issues run cheap rungs, the queue
  // drains faster and the next admission finds a seat instead of this dead
  // end. (A disabled governor ignores it.)
  if (governor_.Enabled()) governor_.NotePressure();

  // Load shedding: drop the lowest-ranked request
  // — the incoming one, unless it outranks something already queued (a
  // full queue of batch work must not lock out an interactive request).
  // Outranks() is a strict total order, so max_element under it is the
  // worst entry.
  auto worst = std::max_element(
      queue_.begin(), queue_.end(),
      [](const PendingHandle& a, const PendingHandle& b) {
        return a->Outranks(*b);
      });
  if (worst != queue_.end() && entry->Outranks(**worst)) {
    PendingHandle evicted = std::move(*worst);
    queue_.erase(worst);
    queue_.push_back(std::move(entry));
    const std::size_t depth = queue_.size();
    lock.unlock();
    stats_.RecordSubmitted(depth);
    Shed(*evicted, RequestStatus::kRejected);
    work_cv_.notify_one();
    return future;
  }
  const std::size_t depth = queue_.size();
  lock.unlock();
  stats_.RecordSubmitted(depth);
  Shed(*entry, RequestStatus::kRejected);
  return future;
}

void RenderService::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void RenderService::Drain() {
  Start();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() && inflight_batches_ == 0) || stopping_;
  });
}

std::size_t RenderService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t RenderService::InflightBatches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_batches_;
}

bool RenderService::HasDispatchableLocked() const {
  if (queue_.empty()) return false;
  if (inflight_keys_.empty()) return true;
  for (const PendingHandle& e : queue_) {
    if (inflight_keys_.count(e->batch_key) == 0) return true;
  }
  return false;
}

void RenderService::ReleaseBatch(const InflightBatch& batch) {
  // The dispatcher may be waiting for a free in-flight seat or for this
  // batch's key; Drain() and the destructor wait for inflight to hit zero.
  // Notify while holding the lock: the moment a waiter observes
  // inflight_batches_ == 0 it may destroy the service, so the notify must
  // complete before that observation is possible.
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_keys_.erase(batch.key);
  --inflight_batches_;
  work_cv_.notify_all();
  idle_cv_.notify_all();
}

void RenderService::CompleteBatch(
    const std::shared_ptr<InflightBatch>& batch,
    std::vector<std::future<RenderResult>> results) {
  const Clock::time_point done = clock_.Now();
  const u64 done_ns =
      obs::FullTracingEnabled() ? obs::TraceNowNs() : 0;
  // Explicitly reset (emitted) BEFORE ReleaseBatch: once the in-flight seat
  // frees (what Drain() and teardown wait on), every span of the batch is
  // already in its ring — a trace drain right after Drain() sees them all.
  std::optional<obs::TraceSpan> complete_span;
  complete_span.emplace("serve", "complete",
                        batch->entries.front()->request_id);
  complete_span->AddArg("batch",
                        static_cast<i64>(batch->dispatch_index));
  // Online cost-model refinement: the batch's issue->complete span on the
  // service's scheduling clock (virtual under ManualClock — deterministic
  // tests never see measured wall time), amortised per request. Also how
  // warmup full-quality renders calibrate a scene's ladder.
  if (governor_.Enabled() && !batch->entries.empty()) {
    governor_.Observe(batch->key, batch->rung,
                      MsBetween(batch->issued, done) /
                          static_cast<double>(batch->entries.size()));
  }
  const std::size_t rung_index = static_cast<std::size_t>(batch->rung);
  const int divisor = RungResolutionDivisor(batch->rung);
  for (std::size_t i = 0; i < batch->entries.size(); ++i) {
    Pending& entry = *batch->entries[i];
    try {
      RenderResult result = results[i].get();  // ready; rethrows job errors
      RenderResponse response;
      response.status = RequestStatus::kCompleted;
      // Reduced-resolution rungs upsample back to the requested size here,
      // off the render hot path; rung 0 moves the full-quality image
      // through untouched.
      if (divisor > 1) {
        response.image = UpsampleBilinear(
            result.image, entry.request.image_width,
            entry.request.image_height);
      } else {
        response.image = std::move(result.image);
      }
      response.queue_ms = MsBetween(entry.submitted, batch->issued);
      response.total_ms = MsBetween(entry.submitted, done);
      response.batch_size = batch->entries.size();
      response.dispatch_index = batch->dispatch_index;
      response.missed_deadline = entry.ExpiredAt(done);
      response.rung = batch->rung;
      stats_.RecordCompleted(response.queue_ms, response.total_ms,
                             PriorityClass(entry.request.priority),
                             rung_index);
      if (entry.trace_submit_ns != 0 && done_ns != 0) {
        entry.EmitRequestSpan(done_ns, RequestStatus::kCompleted);
      }
      entry.promise.set_value(std::move(response));
    } catch (const std::exception& e) {
      // A render error must not wedge the service: fail this request's
      // future with the error and keep serving the rest of the batch.
      SPNERF_LOG_WARN << "serve: request failed mid-render (" << e.what()
                      << ")";
      entry.promise.set_exception(std::current_exception());
    } catch (...) {
      // Non-std exceptions too: the completion half runs on a pool worker
      // whose region drops escaped errors, so anything not caught here
      // would leave this future unfulfilled forever.
      SPNERF_LOG_WARN << "serve: request failed mid-render (non-std error)";
      entry.promise.set_exception(std::current_exception());
    }
  }
  complete_span.reset();
  ReleaseBatch(*batch);
}

void RenderService::IssueBatch(std::shared_ptr<InflightBatch> batch) {
  if (batch->trace_issue_ns != 0) {
    // Retroactive "queue" span per coalesced request: submit -> issue, on
    // timestamps captured at those moments (spans carry explicit times, so
    // recording after the fact costs the hot path nothing).
    for (const PendingHandle& entry : batch->entries) {
      if (entry->trace_submit_ns == 0) continue;
      obs::TraceEvent ev;
      ev.start_ns = entry->trace_submit_ns;
      ev.end_ns = batch->trace_issue_ns;
      ev.category = "serve";
      ev.name = "queue";
      ev.flow = entry->request_id;
      ev.AddStrArg("priority", PriorityTagId(entry->request.priority));
      ev.AddArg("batch", static_cast<i64>(batch->dispatch_index));
      obs::Emit(ev);
    }
  }
  obs::TraceSpan issue_span("serve", "issue",
                            batch->entries.front()->request_id);
  issue_span.AddArg("batch", static_cast<i64>(batch->dispatch_index));
  issue_span.AddArg("jobs", static_cast<i64>(batch->entries.size()));
  issue_span.AddArg("rung", static_cast<i64>(batch->rung));
  issue_span.AddStrArg("key", batch->entries.front()->trace_key_id);
  try {
    // One pipeline serves the whole batch (identical batch key ==
    // identical pipeline key); one stateless source backs every job. Both
    // live in the batch context until the completion half retires it.
    const RenderRequest& front = batch->entries.front()->request;
    batch->pipeline = repository_.Acquire(front.config);
    batch->source = std::make_unique<SpNeRFFieldSource>(
        batch->pipeline->Codec(), front.config.render.fp16_mlp);
    batch->source->SetMasking(front.bitmap_masking);

    // One set of rung-applied options serves the whole batch — coalescing
    // guaranteed every entry the same rung. Rung 0 leaves the options (and
    // below, the camera dims) untouched, so the ladder-off render path is
    // replayed byte for byte. Reduced-resolution rungs render at (w/d, h/d)
    // and the completion half upsamples back to the requested size.
    const RenderOptions rung_options =
        ApplyRung(batch->pipeline->RenderOptionsWithSkip(), batch->rung);
    const int divisor = RungResolutionDivisor(batch->rung);

    std::vector<RenderJob> jobs;
    jobs.reserve(batch->entries.size());
    for (const PendingHandle& entry : batch->entries) {
      const RenderRequest& r = entry->request;
      RenderJob job;
      job.source = batch->source.get();
      job.mlp = &batch->pipeline->GetMlp();
      job.camera = batch->pipeline->MakeCamera(
          ReducedDim(r.image_width, divisor),
          ReducedDim(r.image_height, divisor), r.view, r.n_views);
      job.options = rung_options;
      // Links the engine's render/tile spans into this request's timeline.
      job.trace_flow = entry->request_id;
      jobs.push_back(job);
    }
    engine_.SubmitBatch(
        std::move(jobs),
        [this, batch](std::vector<std::future<RenderResult>> results) {
          CompleteBatch(batch, std::move(results));
        });
  } catch (const std::exception& e) {
    // A failed pipeline build or job setup must not wedge the service:
    // fail the batch's futures with the error instead of fulfilling them,
    // and free the in-flight seat so the dispatcher keeps going. (Render
    // errors surface per entry in CompleteBatch, not here.) The catch must
    // be total: this runs inside a detached pool region, which drops
    // escaped exceptions — anything uncaught would leak the batch's seat
    // and key and wedge Drain()/teardown forever.
    SPNERF_LOG_WARN << "serve: batch failed (" << e.what() << ")";
    for (PendingHandle& entry : batch->entries) {
      entry->promise.set_exception(std::current_exception());
    }
    ReleaseBatch(*batch);
  } catch (...) {
    SPNERF_LOG_WARN << "serve: batch failed (non-std error)";
    for (PendingHandle& entry : batch->entries) {
      entry->promise.set_exception(std::current_exception());
    }
    ReleaseBatch(*batch);
  }
}

void RenderService::DispatcherLoop() {
  for (;;) {
    std::shared_ptr<InflightBatch> batch;
    std::vector<PendingHandle> expired;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return stopping_ ||
               (!paused_ &&
                inflight_batches_ < options_.max_inflight_batches &&
                HasDispatchableLocked());
      });

      if (stopping_) {
        // Complete the backlog as rejected so no future dangles, then wait
        // out the in-flight batches — their completion halves touch the
        // service and must finish before it tears down. Admission checks
        // stopping_ under this lock, so nothing joins the queue after the
        // swap.
        std::vector<PendingHandle> drained;
        drained.swap(queue_);
        work_cv_.wait(lock, [this] { return inflight_batches_ == 0; });
        lock.unlock();
        for (PendingHandle& entry : drained) {
          Shed(*entry, RequestStatus::kRejected);
        }
        idle_cv_.notify_all();
        return;
      }

      if (!paused_ && inflight_batches_ < options_.max_inflight_batches) {
        // Shed anything already past its deadline, then pick the
        // best-ranked survivor whose key has no batch in flight (same-key
        // requests wait and coalesce into the next batch).
        const Clock::time_point now = clock_.Now();
        TakeExpiredLocked(now, expired);
        std::size_t best = kNoBest;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          if (inflight_keys_.count(queue_[i]->batch_key) == 0 &&
              (best == kNoBest || queue_[i]->Outranks(*queue_[best]))) {
            best = i;
          }
        }

        if (best != kNoBest) {
          batch = std::make_shared<InflightBatch>();
          batch->key = queue_[best]->batch_key;
          // Quality-ladder decision, made once per batch at issue time. A
          // pure function of (priority, remaining deadline on the service
          // clock, queue depth now, cost model), so a staged backlog
          // replays the identical rung sequence at any worker count. A
          // disabled governor always answers kFull. The depth is taken
          // after expiry compaction and before the batch leaves the queue.
          const std::size_t depth_at_issue = queue_.size();
          const auto decide_rung = [&](const Pending& e) {
            const bool has_deadline =
                e.deadline != Clock::time_point::max();
            const double remaining_ms =
                has_deadline ? MsBetween(now, e.deadline) : 0.0;
            return governor_.Decide(PriorityClass(e.request.priority),
                                    has_deadline, remaining_ms,
                                    depth_at_issue, e.batch_key);
          };
          batch->rung = decide_rung(*queue_[best]);
          batch->entries.push_back(std::move(queue_[best]));
          // Mates join in scheduling order, not submission order: when
          // max_batch binds, the seats go to the highest-ranked same-key
          // requests (a batch-class mate must never displace an interactive
          // one into a later dispatch). Under the ladder, coalescing is
          // keyed on (batch key, rung): a mate only joins when its own
          // governor decision matches the leader's, so every entry of a
          // batch shares one set of render options; mismatched mates wait
          // for the next dispatch of their key.
          std::vector<std::size_t> mates;
          if (options_.max_batch > 1) {
            for (std::size_t i = 0; i < queue_.size(); ++i) {
              if (i != best && queue_[i]->batch_key == batch->key &&
                  decide_rung(*queue_[i]) == batch->rung) {
                mates.push_back(i);
              }
            }
            std::sort(mates.begin(), mates.end(),
                      [this](std::size_t a, std::size_t b) {
                        return queue_[a]->Outranks(*queue_[b]);
                      });
            if (mates.size() > options_.max_batch - 1) {
              mates.resize(options_.max_batch - 1);
            }
          }
          for (std::size_t idx : mates) {
            batch->entries.push_back(std::move(queue_[idx]));
          }
          // The leader and its mates left null handles behind.
          queue_.erase(std::remove(queue_.begin(), queue_.end(), nullptr),
                       queue_.end());
          inflight_keys_.insert(batch->key);
          ++inflight_batches_;
          batch->dispatch_index = next_dispatch_++;
          batch->issued = clock_.Now();
          stats_.RecordBatch(batch->entries.size());
          if (obs::FullTracingEnabled()) {
            batch->trace_issue_ns = obs::TraceNowNs();
          }
        }
      }
      const std::size_t depth = queue_.size();
      stats_.RecordQueueDepth(depth);
      // Close the pressure window once the backlog has drained below the
      // low-water mark (no-op while it isn't open).
      governor_.NoteDepth(depth);
    }

    for (PendingHandle& entry : expired) {
      Shed(*entry, RequestStatus::kExpired);
    }
    if (!batch) {
      idle_cv_.notify_all();
      continue;
    }
    // The issue half (pipeline acquisition — possibly a cold build — and
    // job setup) runs detached on the engine's pool, not on this thread:
    // many tiny batches with distinct keys no longer serialise behind one
    // dispatcher doing their setup, and the dispatcher loops straight back
    // to pop the next dispatchable key. The batch's in-flight seat and key
    // were claimed above under the lock, so per-key ordering and the
    // inflight cap are unaffected by issue tasks completing out of order.
    // On a pool with no worker threads Submit runs inline — the previous
    // serial behaviour. The task only borrows `this` until SubmitBatch
    // returns, which happens before the completion half can release the
    // seat that a tearing-down destructor waits on.
    engine_.Pool().Submit(1, [this, batch = std::move(batch)](unsigned) {
      IssueBatch(batch);
    });
  }
}

}  // namespace spnerf
