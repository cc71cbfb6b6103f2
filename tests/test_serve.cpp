#include "serve/render_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "obs/trace.hpp"
#include "serve/load_generator.hpp"

namespace spnerf {
namespace {

/// Tiny build parameters so service tests stay fast; every test isolates
/// itself behind a memory-only AssetCache (no disk store) and its own
/// repository, so nothing leaks across tests or into the global cache.
RenderRequest SmallRequest(SceneId id = SceneId::kMic, int view = 0) {
  RenderRequest r;
  r.config.scene_id = id;
  r.config.dataset.resolution_override = 32;
  r.config.dataset.vqrf.codebook_size = 64;
  r.config.dataset.vqrf.kmeans_iterations = 2;
  r.config.dataset.vqrf.max_vq_train_samples = 2000;
  r.config.spnerf.subgrid_count = 8;
  r.config.spnerf.table_size = 4096;
  r.image_width = r.image_height = 24;
  r.view = view;
  return r;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : cache_(AssetCacheOptions{/*disk_root=*/"", /*memory_capacity=*/16}),
        repository_(&cache_, /*capacity=*/8) {}

  RenderServiceOptions PausedOptions(std::size_t capacity,
                                     std::size_t max_batch = 8) {
    RenderServiceOptions opts;
    opts.queue_capacity = capacity;
    opts.max_batch = max_batch;
    opts.repository = &repository_;
    opts.start_paused = true;
    return opts;
  }

  AssetCache cache_;
  PipelineRepository repository_;
};

TEST_F(ServeTest, CompletesARequestEndToEnd) {
  RenderService service(PausedOptions(8));
  std::future<RenderResponse> f = service.Submit(SmallRequest());
  service.Drain();
  const RenderResponse r = f.get();
  EXPECT_EQ(r.status, RequestStatus::kCompleted);
  EXPECT_EQ(r.image.Width(), 24);
  EXPECT_EQ(r.image.Height(), 24);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_GE(r.total_ms, r.queue_ms);
}

TEST_F(ServeTest, BoundedQueueRejectsOverflowExplicitly) {
  // Paused service: nothing dispatches, so the queue fills exactly to
  // capacity and every overflow submission resolves immediately.
  RenderService service(PausedOptions(/*capacity=*/3));
  std::vector<std::future<RenderResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.Submit(SmallRequest(SceneId::kMic, i % 8)));
  }
  EXPECT_EQ(service.QueueDepth(), 3u);
  // The two overflow futures are already resolved as rejected.
  for (int i = 3; i < 5; ++i) {
    auto& f = futures[static_cast<std::size_t>(i)];
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().status, RequestStatus::kRejected);
  }
  service.Drain();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status,
              RequestStatus::kCompleted);
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_LE(stats.queue_peak, 3u);
}

TEST_F(ServeTest, HigherPriorityEvictsLowestWhenFull) {
  RenderService service(PausedOptions(/*capacity=*/2));
  RenderRequest batch = SmallRequest();
  batch.priority = RequestPriority::kBatch;
  std::future<RenderResponse> b0 = service.Submit(batch);
  std::future<RenderResponse> b1 = service.Submit(batch);

  RenderRequest interactive = SmallRequest();
  interactive.priority = RequestPriority::kInteractive;
  std::future<RenderResponse> hi = service.Submit(interactive);

  // The interactive request displaced the worst-ranked queued batch
  // request (the later of the two, FIFO tie-break).
  ASSERT_EQ(b1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(b1.get().status, RequestStatus::kRejected);
  service.Drain();
  EXPECT_EQ(hi.get().status, RequestStatus::kCompleted);
  EXPECT_EQ(b0.get().status, RequestStatus::kCompleted);
}

TEST_F(ServeTest, LowPriorityNeverEvictsEqualRank) {
  RenderService service(PausedOptions(/*capacity=*/2));
  std::future<RenderResponse> a = service.Submit(SmallRequest());
  std::future<RenderResponse> b = service.Submit(SmallRequest());
  // Same priority as everything queued: the incoming request is the one
  // shed, never an already-admitted equal.
  std::future<RenderResponse> c = service.Submit(SmallRequest());
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(c.get().status, RequestStatus::kRejected);
  service.Drain();
  EXPECT_EQ(a.get().status, RequestStatus::kCompleted);
  EXPECT_EQ(b.get().status, RequestStatus::kCompleted);
}

TEST_F(ServeTest, ExpiredDeadlineIsShedWithoutRendering) {
  // Deadlines run on the injected scheduling clock: advance virtual time
  // past the deadline instead of sleeping real wall time.
  ManualClock clock;
  RenderServiceOptions opts = PausedOptions(8);
  opts.clock = &clock;
  RenderService service(opts);
  RenderRequest doomed = SmallRequest();
  doomed.deadline_ms = 1.0;
  RenderRequest fine = SmallRequest(SceneId::kMic, 1);
  std::future<RenderResponse> f_doomed = service.Submit(doomed);
  std::future<RenderResponse> f_fine = service.Submit(fine);
  clock.AdvanceMs(20.0);
  service.Drain();

  const RenderResponse r = f_doomed.get();
  EXPECT_EQ(r.status, RequestStatus::kExpired);
  EXPECT_TRUE(r.image.Empty());
  EXPECT_EQ(f_fine.get().status, RequestStatus::kCompleted);
  EXPECT_EQ(service.Stats().expired, 1u);
}

TEST_F(ServeTest, PriorityOrdersDispatchUnderBacklog) {
  // A paused service is a saturated one: the backlog is staged in full
  // before the dispatcher runs, so dispatch order must be pure scheduling
  // policy — interactive before normal before batch, FIFO within a class.
  // max_batch=1 keeps every request its own dispatch.
  RenderService service(PausedOptions(/*capacity=*/16, /*max_batch=*/1));
  const std::vector<RequestPriority> submit_order = {
      RequestPriority::kBatch,       RequestPriority::kNormal,
      RequestPriority::kInteractive, RequestPriority::kBatch,
      RequestPriority::kInteractive, RequestPriority::kNormal,
  };
  std::vector<std::future<RenderResponse>> futures;
  for (std::size_t i = 0; i < submit_order.size(); ++i) {
    RenderRequest r = SmallRequest(SceneId::kMic, static_cast<int>(i) % 8);
    r.priority = submit_order[i];
    futures.push_back(service.Submit(r));
  }
  service.Drain();

  std::vector<u64> dispatch(submit_order.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const RenderResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kCompleted);
    dispatch[i] = r.dispatch_index;
  }
  // Interactive submissions (2, 4) dispatch first, then normal (1, 5),
  // then batch (0, 3); FIFO inside each class.
  const std::vector<std::size_t> expected_order = {2, 4, 1, 5, 0, 3};
  for (std::size_t rank = 0; rank < expected_order.size(); ++rank) {
    EXPECT_EQ(dispatch[expected_order[rank]], rank)
        << "submission " << expected_order[rank];
  }
}

TEST_F(ServeTest, EarlierDeadlineDispatchesFirstWithinPriority) {
  RenderService service(PausedOptions(/*capacity=*/8, /*max_batch=*/1));
  RenderRequest relaxed = SmallRequest(SceneId::kMic, 0);
  relaxed.deadline_ms = 60000.0;
  RenderRequest urgent = SmallRequest(SceneId::kMic, 1);
  urgent.deadline_ms = 30000.0;
  std::future<RenderResponse> f_relaxed = service.Submit(relaxed);
  std::future<RenderResponse> f_urgent = service.Submit(urgent);
  service.Drain();
  const RenderResponse r_relaxed = f_relaxed.get();
  const RenderResponse r_urgent = f_urgent.get();
  ASSERT_EQ(r_relaxed.status, RequestStatus::kCompleted);
  ASSERT_EQ(r_urgent.status, RequestStatus::kCompleted);
  EXPECT_LT(r_urgent.dispatch_index, r_relaxed.dispatch_index);
}

TEST_F(ServeTest, SameSceneRequestsCoalesceIntoOneBatch) {
  // One interactive lego request with no queued mate, then four mic
  // requests: the lego leader dispatches first and alone, and the four mic
  // requests share the next batch.
  RenderService service(PausedOptions(/*capacity=*/16, /*max_batch=*/8));
  RenderRequest lego = SmallRequest(SceneId::kLego);
  lego.priority = RequestPriority::kInteractive;
  std::future<RenderResponse> f_lego = service.Submit(lego);
  std::vector<std::future<RenderResponse>> futures;
  for (int v = 0; v < 4; ++v) {
    futures.push_back(service.Submit(SmallRequest(SceneId::kMic, v)));
  }
  service.Drain();
  const RenderResponse r_lego = f_lego.get();
  ASSERT_EQ(r_lego.status, RequestStatus::kCompleted);
  EXPECT_EQ(r_lego.batch_size, 1u);
  EXPECT_EQ(r_lego.dispatch_index, 0u);
  u64 dispatch = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const RenderResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kCompleted);
    EXPECT_EQ(r.batch_size, 4u);
    if (i == 0) {
      dispatch = r.dispatch_index;
    } else {
      EXPECT_EQ(r.dispatch_index, dispatch);  // one engine call served all
    }
  }
  EXPECT_EQ(service.Stats().batches, 2u);
}

TEST_F(ServeTest, MaskingSplitsTheBatchKey) {
  RenderRequest masked = SmallRequest();
  RenderRequest unmasked = SmallRequest();
  unmasked.bitmap_masking = false;
  EXPECT_NE(RenderService::BatchKey(masked),
            RenderService::BatchKey(unmasked));
  EXPECT_EQ(RenderService::BatchKey(masked),
            RenderService::BatchKey(SmallRequest(SceneId::kMic, 3)));
}

TEST_F(ServeTest, ExpiredEntriesYieldTheirSeatsAtAdmission) {
  // A full queue holding dead work must not reject live arrivals: the
  // admission path sheds every expired entry before deciding to shed live
  // work, and keeps the live entry queued between the dead ones.
  ManualClock clock;
  RenderServiceOptions opts = PausedOptions(/*capacity=*/3);
  opts.clock = &clock;
  RenderService service(opts);
  RenderRequest doomed = SmallRequest();
  doomed.deadline_ms = 1.0;
  std::future<RenderResponse> d0 = service.Submit(doomed);
  std::future<RenderResponse> live0 =
      service.Submit(SmallRequest(SceneId::kMic, 1));
  std::future<RenderResponse> d1 = service.Submit(doomed);
  clock.AdvanceMs(20.0);

  std::future<RenderResponse> live1 =
      service.Submit(SmallRequest(SceneId::kMic, 2));
  // Both dead entries were shed to make room; both live requests are
  // queued.
  ASSERT_EQ(d0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(d1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(d0.get().status, RequestStatus::kExpired);
  EXPECT_EQ(d1.get().status, RequestStatus::kExpired);
  EXPECT_EQ(service.QueueDepth(), 2u);
  service.Drain();
  EXPECT_EQ(live0.get().status, RequestStatus::kCompleted);
  EXPECT_EQ(live1.get().status, RequestStatus::kCompleted);
}

TEST_F(ServeTest, BindingBatchCapSeatsHigherPriorityMatesFirst) {
  // max_batch=2 with three same-key requests: the two interactive ones
  // share the first dispatch; the batch-class request rides the next one.
  RenderService service(PausedOptions(/*capacity=*/8, /*max_batch=*/2));
  RenderRequest low = SmallRequest(SceneId::kMic, 0);
  low.priority = RequestPriority::kBatch;
  RenderRequest hi1 = SmallRequest(SceneId::kMic, 1);
  hi1.priority = RequestPriority::kInteractive;
  RenderRequest hi2 = SmallRequest(SceneId::kMic, 2);
  hi2.priority = RequestPriority::kInteractive;
  std::future<RenderResponse> f_low = service.Submit(low);
  std::future<RenderResponse> f_hi1 = service.Submit(hi1);
  std::future<RenderResponse> f_hi2 = service.Submit(hi2);
  service.Drain();

  const RenderResponse r_low = f_low.get();
  const RenderResponse r_hi1 = f_hi1.get();
  const RenderResponse r_hi2 = f_hi2.get();
  ASSERT_EQ(r_low.status, RequestStatus::kCompleted);
  EXPECT_EQ(r_hi1.batch_size, 2u);
  EXPECT_EQ(r_hi2.batch_size, 2u);
  EXPECT_EQ(r_hi1.dispatch_index, r_hi2.dispatch_index);
  EXPECT_EQ(r_low.batch_size, 1u);
  EXPECT_GT(r_low.dispatch_index, r_hi1.dispatch_index);
}

TEST_F(ServeTest, DistinctPipelineBatchesOverlap) {
  // The concurrent-region scheduler end-to-end: two batches with distinct
  // batch keys (different scenes) issued back-to-back must genuinely
  // overlap — the second is issued before the first completes — instead of
  // serialising behind one dispatcher. Both pipelines are pre-built so the
  // issue half is cheap; an explicit 4-worker pool keeps the engine truly
  // asynchronous even on single-core machines.
  ThreadPool pool(4);
  {
    // Warm both pipelines into the shared repository first.
    RenderServiceOptions warm_opts = PausedOptions(8);
    warm_opts.engine.pool = &pool;
    RenderService warm(warm_opts);
    std::future<RenderResponse> a = warm.Submit(SmallRequest(SceneId::kMic));
    std::future<RenderResponse> b = warm.Submit(SmallRequest(SceneId::kLego));
    warm.Drain();
    ASSERT_EQ(a.get().status, RequestStatus::kCompleted);
    ASSERT_EQ(b.get().status, RequestStatus::kCompleted);
  }

  RenderServiceOptions opts = PausedOptions(8);
  opts.engine.pool = &pool;
  opts.max_inflight_batches = 2;
  RenderService service(opts);
  // Larger images than the usual test request: each render takes tens of
  // milliseconds, so the microsecond-scale issue path between the two
  // batches cannot plausibly lose the overlap to scheduler preemption.
  RenderRequest req_a = SmallRequest(SceneId::kMic);
  RenderRequest req_b = SmallRequest(SceneId::kLego);
  req_a.image_width = req_a.image_height = 48;
  req_b.image_width = req_b.image_height = 48;
  std::future<RenderResponse> fa = service.Submit(req_a);
  std::future<RenderResponse> fb = service.Submit(req_b);
  EXPECT_NE(RenderService::BatchKey(req_a), RenderService::BatchKey(req_b));
  service.Drain();

  const RenderResponse ra = fa.get();
  const RenderResponse rb = fb.get();
  ASSERT_EQ(ra.status, RequestStatus::kCompleted);
  ASSERT_EQ(rb.status, RequestStatus::kCompleted);
  // Two distinct keys, two batches, issued in scheduling order.
  EXPECT_EQ(ra.batch_size, 1u);
  EXPECT_EQ(rb.batch_size, 1u);
  EXPECT_EQ(ra.dispatch_index, 0u);
  EXPECT_EQ(rb.dispatch_index, 1u);
  // Overlap is observable in the timings: each batch was issued (queue_ms
  // after a ~simultaneous submit) before the other completed (total_ms).
  EXPECT_LT(rb.queue_ms, ra.total_ms);
  EXPECT_LT(ra.queue_ms, rb.total_ms);
}

TEST_F(ServeTest, SingleInflightSeatSerialisesDistinctKeys) {
  // max_inflight_batches=1 restores the serial dispatcher: the second
  // batch may not issue until the first completed.
  ThreadPool pool(4);
  RenderServiceOptions opts = PausedOptions(8);
  opts.engine.pool = &pool;
  opts.max_inflight_batches = 1;
  RenderService service(opts);
  std::future<RenderResponse> fa = service.Submit(SmallRequest(SceneId::kMic));
  std::future<RenderResponse> fb = service.Submit(SmallRequest(SceneId::kLego));
  service.Drain();
  const RenderResponse ra = fa.get();
  const RenderResponse rb = fb.get();
  ASSERT_EQ(ra.status, RequestStatus::kCompleted);
  ASSERT_EQ(rb.status, RequestStatus::kCompleted);
  // The first-issued batch fully precedes the second's issue.
  EXPECT_LT(ra.dispatch_index, rb.dispatch_index);
  EXPECT_GE(rb.queue_ms, ra.total_ms - ra.queue_ms);
}

TEST_F(ServeTest, EngineFieldsNeverSplitTheBatchKey) {
  // Execution policy is service-owned: two clients asking for the same
  // scene with different (ignored) engine settings must share one batch
  // key and one repository entry.
  RenderRequest a = SmallRequest();
  RenderRequest b = SmallRequest();
  b.config.engine.tile_size = 7;
  b.config.engine.max_threads = 4;
  EXPECT_EQ(RenderService::BatchKey(a), RenderService::BatchKey(b));
}

// ------------------------------------------------------------ tracing ---

TEST_F(ServeTest, FullTracingReconstructsRequestTimelines) {
  // End-to-end contract for the observability layer: under SPNF_TRACE=full
  // every request's lifetime is reconstructible from the drained trace via
  // its flow id — an admit instant, a queue span nested inside the request
  // envelope span, and the envelope tagged with priority class, pipeline
  // key and outcome.
  obs::DrainTrace();  // discard events any earlier test left behind
  const obs::TraceLevel prev_level =
      obs::SetActiveTraceLevel(obs::TraceLevel::kFull);
  {
    RenderService service(PausedOptions(/*capacity=*/8, /*max_batch=*/8));
    std::future<RenderResponse> f0 =
        service.Submit(SmallRequest(SceneId::kMic, 0));
    std::future<RenderResponse> f1 =
        service.Submit(SmallRequest(SceneId::kMic, 1));
    service.Drain();
    ASSERT_EQ(f0.get().status, RequestStatus::kCompleted);
    ASSERT_EQ(f1.get().status, RequestStatus::kCompleted);
  }  // service destruction joins every emitting thread before the drain
  obs::SetActiveTraceLevel(prev_level);

  const obs::TraceSnapshot snap = obs::DrainTrace();
  for (const u64 flow : {u64{1}, u64{2}}) {  // per-service ids start at 1
    const std::vector<obs::TraceEvent> events = snap.EventsForFlow(flow);
    const obs::TraceEvent* admit = nullptr;
    const obs::TraceEvent* queue = nullptr;
    const obs::TraceEvent* request = nullptr;
    for (const obs::TraceEvent& e : events) {
      const std::string_view name = e.name;
      if (name == "admit") admit = &e;
      if (name == "queue") queue = &e;
      if (name == "request") request = &e;
    }
    ASSERT_NE(admit, nullptr) << "flow " << flow;
    ASSERT_NE(queue, nullptr) << "flow " << flow;
    ASSERT_NE(request, nullptr) << "flow " << flow;
    EXPECT_TRUE(admit->IsInstant());
    // The queue wait nests inside the request envelope.
    EXPECT_GE(queue->start_ns, request->start_ns);
    EXPECT_LE(queue->end_ns, request->end_ns);
    // The envelope carries every tag the timeline viewer filters on.
    const auto tag = [&](const char* key) {
      return std::string_view(obs::InternedString(
          static_cast<u32>(request->ArgValue(key))));
    };
    EXPECT_EQ(tag("priority"), "normal");
    EXPECT_NE(tag("key"), "?");  // the interned pipeline key
    EXPECT_EQ(tag("outcome"), "completed");
  }
  // Same key, one coalesced batch: the issue and complete spans ride the
  // batch leader's flow (the first submission).
  bool has_issue = false, has_complete = false;
  for (const obs::TraceEvent& e : snap.EventsForFlow(1)) {
    const std::string_view name = e.name;
    has_issue |= name == "issue";
    has_complete |= name == "complete";
  }
  EXPECT_TRUE(has_issue);
  EXPECT_TRUE(has_complete);
}

// ----------------------------------------------------- load generation --

TEST(LoadGenerator, SameSeedSameTrace) {
  LoadGeneratorOptions opts;
  opts.request_count = 64;
  opts.deadline_fraction = 0.4;
  const std::vector<TimedRequest> a = LoadGenerator(opts).GenerateTrace();
  const std::vector<TimedRequest> b = LoadGenerator(opts).GenerateTrace();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms) << i;
    EXPECT_EQ(a[i].request.config.scene_id, b[i].request.config.scene_id);
    EXPECT_EQ(a[i].request.view, b[i].request.view);
    EXPECT_EQ(a[i].request.priority, b[i].request.priority);
    EXPECT_EQ(a[i].request.deadline_ms, b[i].request.deadline_ms);
  }
}

TEST(LoadGenerator, DifferentSeedDifferentTrace) {
  LoadGeneratorOptions opts;
  opts.request_count = 64;
  const std::vector<TimedRequest> a = LoadGenerator(opts).GenerateTrace();
  opts.seed += 1;
  const std::vector<TimedRequest> b = LoadGenerator(opts).GenerateTrace();
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].arrival_ms != b[i].arrival_ms ||
              a[i].request.config.scene_id != b[i].request.config.scene_id ||
              a[i].request.view != b[i].request.view;
  }
  EXPECT_TRUE(differs);
}

TEST(LoadGenerator, HotScenesDominateTheMix) {
  LoadGeneratorOptions opts;
  opts.request_count = 400;
  opts.scenes = {SceneId::kLego, SceneId::kChair, SceneId::kMic,
                 SceneId::kShip};
  opts.hot_scene_count = 1;
  opts.hot_fraction = 0.8;
  std::size_t hot_hits = 0;
  for (const TimedRequest& t : LoadGenerator(opts).GenerateTrace()) {
    if (t.request.config.scene_id == SceneId::kLego) ++hot_hits;
  }
  // 80% +- a wide tolerance for 400 draws.
  EXPECT_GT(hot_hits, 400 * 0.7);
  EXPECT_LT(hot_hits, 400 * 0.9);
}

TEST_F(ServeTest, TraceRendersIdenticallyAcrossWorkerCounts) {
  // The serving determinism guarantee end-to-end: the same generated trace
  // produces bit-identical response images whether the service renders on
  // 1, 2 or 8 workers (the engine's tile scheduling never leaks into
  // pixels, and the trace itself is worker-independent by construction).
  LoadGeneratorOptions load;
  load.request_count = 6;
  load.arrival_rate_rps = 10000.0;  // effectively a burst
  load.scenes = {SceneId::kMic};
  load.hot_scene_count = 1;
  load.base = SmallRequest();
  const std::vector<TimedRequest> trace = LoadGenerator(load).GenerateTrace();

  std::vector<std::vector<Image>> images;
  for (unsigned workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    RenderServiceOptions opts = PausedOptions(/*capacity=*/16);
    opts.engine.pool = &pool;
    opts.start_paused = false;
    RenderService service(opts);
    ReplayResult replay = ReplayTrace(service, trace);
    service.Drain();
    std::vector<Image> run;
    for (RenderResponse& r : replay.responses) {
      ASSERT_EQ(r.status, RequestStatus::kCompleted);
      run.push_back(std::move(r.image));
    }
    images.push_back(std::move(run));
  }
  for (std::size_t w = 1; w < images.size(); ++w) {
    ASSERT_EQ(images[w].size(), images[0].size());
    for (std::size_t i = 0; i < images[w].size(); ++i) {
      ASSERT_EQ(images[w][i].Pixels(), images[0][i].Pixels())
          << "request " << i << " differs at worker set " << w;
    }
  }
}

// ---------------------------------------------------- staged backlog ----

TEST_F(ServeTest, StagedBacklogEvictsRejectsAndCoalesces) {
  // A fully staged backlog (paused service) drains through deterministic
  // scheduling decisions: admission control evicts and rejects the
  // batch-class entries, and the two interactive requests share the first
  // batch.
  RenderService service(PausedOptions(/*capacity=*/4, /*max_batch=*/2));
  const std::vector<RequestPriority> priorities = {
      RequestPriority::kNormal,      RequestPriority::kBatch,
      RequestPriority::kInteractive, RequestPriority::kNormal,
      RequestPriority::kInteractive,  // full queue: evicts the batch entry
      RequestPriority::kBatch,        // full queue, lowest rank: rejected
  };
  std::vector<std::future<RenderResponse>> futures;
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    RenderRequest r = SmallRequest(SceneId::kMic, static_cast<int>(i));
    r.priority = priorities[i];
    futures.push_back(service.Submit(r));
  }
  service.Drain();
  std::vector<RenderResponse> o;
  for (auto& f : futures) o.push_back(f.get());
  EXPECT_EQ(o[1].status, RequestStatus::kRejected);  // evicted by request 4
  EXPECT_EQ(o[5].status, RequestStatus::kRejected);  // shed at admission
  for (const std::size_t i : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(o[i].status, RequestStatus::kCompleted) << "request " << i;
  }
  EXPECT_EQ(o[2].dispatch_index, o[4].dispatch_index);
  EXPECT_EQ(o[2].batch_size, 2u);
  EXPECT_EQ(o[2].dispatch_index, 0u);  // interactive first
  EXPECT_EQ(o[0].dispatch_index, 1u);  // then the two normal requests
  EXPECT_EQ(o[3].dispatch_index, 1u);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.queue_peak, 4u);
}

TEST_F(ServeTest, DeepExpiredBacklogDoesNotStallAdmission) {
  // Admission into a queue full of dead work sheds the whole backlog in
  // its one expiry pass: the live request is seated, and every dead future
  // resolves before the dispatcher runs.
  constexpr std::size_t kCapacity = 256;
  ManualClock clock;
  RenderServiceOptions manual_opts = PausedOptions(kCapacity);
  manual_opts.clock = &clock;
  RenderService service(manual_opts);
  RenderRequest doomed = SmallRequest();
  doomed.deadline_ms = 0.0001;
  std::vector<std::future<RenderResponse>> dead;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    dead.push_back(service.Submit(doomed));
  }
  clock.AdvanceMs(5.0);

  std::future<RenderResponse> live =
      service.Submit(SmallRequest(SceneId::kMic, 1));
  // Seated, not shed: the future is still pending on the paused service.
  EXPECT_NE(live.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  // One pass shed every expired entry: only the live request is queued.
  EXPECT_EQ(service.QueueDepth(), 1u);
  for (auto& f : dead) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }

  service.Drain();
  EXPECT_EQ(live.get().status, RequestStatus::kCompleted);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.expired, kCapacity);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  for (auto& f : dead) {
    EXPECT_EQ(f.get().status, RequestStatus::kExpired);
  }
}

}  // namespace
}  // namespace spnerf
