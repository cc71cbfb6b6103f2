// serve-overload: one generator thread replays a seeded
// open-loop trace (Poisson arrivals at a fixed absolute rate, hot/cold scene
// skew, a priority mix, optional per-class deadline bands) against a
// RenderService. Every request is timed from when the trace scheduled it.
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "render/field_source.hpp"
#include "render/quality.hpp"
#include "serve/load_generator.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace spnerf;

namespace {

struct ServeSpec {
  std::vector<SceneId> scenes;
  LoadGeneratorOptions load;
  RenderServiceOptions service;
  double rate_rps = 0.0;
  double limit_ms = 0.0;  // for deadline-free requests
  double psnr_floor = 0.0;
  int setup_reps = 1;
};

std::vector<SceneId> ParseScenes(const std::string& list) {
  std::vector<SceneId> out;
  std::stringstream ss(list);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (!name.empty()) out.push_back(SceneFromName(name));
  }
  return out;
}

DeadlineBand Band(const Config& v, const std::string& cls) {
  return DeadlineBand{v.GetDouble(cls + "_deadline_min_ms", 0.0),
                      v.GetDouble(cls + "_deadline_max_ms", 0.0),
                      v.GetDouble(cls + "_deadline_fraction", 0.0)};
}

ServeSpec ParseSpec(const Args& args) {
  const Config& v = args.values;
  ServeSpec s;
  s.scenes = ParseScenes(v.GetString("scenes", "lego,chair,ship"));
  s.rate_rps = v.GetDouble("rate_rps", 10.0);
  s.limit_ms = v.GetDouble("latency_limit_ms", 250.0);
  s.psnr_floor = v.GetDouble("psnr_floor_db", 0.0);
  s.setup_reps = v.GetInt("setup_reps", 1);

  RenderRequest base;
  base.config.dataset.resolution_override = v.GetInt("res", 0);
  base.config.coarse_factor = v.GetInt("coarse_factor", 4);
  base.image_width = base.image_height = v.GetInt("image", 64);
  base.n_views = v.GetInt("views", 8);

  LoadGeneratorOptions& l = s.load;
  l.seed = args.seed;
  l.arrival_rate_rps = s.rate_rps;
  l.scenes = s.scenes;
  l.hot_scene_count = static_cast<std::size_t>(v.GetInt("hot_scenes", 1));
  l.hot_fraction = v.GetDouble("hot_fraction", 0.8);
  l.interactive_fraction = v.GetDouble("interactive_fraction", 0.25);
  l.batch_fraction = v.GetDouble("batch_fraction", 0.25);
  l.deadline_fraction = 0.0;
  l.deadline_bands[static_cast<std::size_t>(RequestPriority::kInteractive)] =
      Band(v, "interactive");
  l.deadline_bands[static_cast<std::size_t>(RequestPriority::kNormal)] =
      Band(v, "normal");
  l.base = base;

  // Service defaults, except where the workload names a value.
  RenderServiceOptions& o = s.service;
  o.queue_capacity = static_cast<std::size_t>(
      v.GetInt("queue_capacity", static_cast<int>(o.queue_capacity)));
  o.ladder.enabled = v.GetBool("ladder", o.ladder.enabled);
  return s;
}

/// The seeded trace for a window of `seconds`: exactly rate * seconds
/// requests, conditioned to span the window (stats.hpp ConditionArrivals).
std::vector<TimedRequest> MakeTrace(const ServeSpec& spec, double seconds) {
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::round(spec.rate_rps * seconds)));
  LoadGeneratorOptions l = spec.load;
  l.request_count = count + 1;
  std::vector<TimedRequest> trace = LoadGenerator(l).GenerateTrace();
  std::vector<double> arrivals;
  for (const TimedRequest& t : trace) arrivals.push_back(t.arrival_ms);
  const std::vector<double> conditioned =
      ConditionArrivals(arrivals, count, seconds * 1000.0);
  trace.resize(count);
  // Each scene's requests walk its orbit views in turn (a viewer circling
  // the object), so every seed sees the same per-scene view mix and frame
  // cost distribution; arrivals, scenes and priorities stay seeded.
  std::map<SceneId, int> next_view;
  for (std::size_t i = 0; i < count; ++i) {
    RenderRequest& r = trace[i].request;
    trace[i].arrival_ms = conditioned[i];
    r.view = next_view[r.config.scene_id]++ % std::max(1, r.n_views);
  }
  return trace;
}

struct Sent {
  double due_ms = 0.0;     // from window start
  double submit_ms = 0.0;  // from window start
  double admit_us = 0.0;   // duration of the Submit() call
  std::size_t depth = 0;     // QueueDepth() at send (traced windows)
  std::size_t inflight = 0;  // InflightBatches() at send (traced windows)
  bool resolved = false;
  RenderResponse response;  // image dropped after hashing
  std::uint64_t hash = 0;
};

struct Window {
  std::vector<Sent> sent;
  double seconds = 0.0;  // trace span
};

/// Replays `trace` open loop from one generator thread: sleep until each
/// request is due, submit, move on; then resolve every future.
Window Replay(RenderService& service, const std::vector<TimedRequest>& trace,
              double seconds, SpanRecorder* spans) {
  Window w;
  w.seconds = seconds;
  w.sent.resize(trace.size());
  std::vector<std::future<RenderResponse>> futures(trace.size());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Sent& s = w.sent[i];
    s.due_ms = trace[i].arrival_ms;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(s.due_ms)));
    if (spans != nullptr) {
      s.depth = service.QueueDepth();
      s.inflight = service.InflightBatches();
    }
    const Clock::time_point t0 = Clock::now();
    futures[i] = service.Submit(trace[i].request);
    const Clock::time_point t1 = Clock::now();
    s.submit_ms = Ms(start, t0);
    s.admit_us = Ms(t0, t1) * 1000.0;
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Sent& s = w.sent[i];
    try {
      s.response = futures[i].get();
      s.resolved = true;
      if (s.response.status == RequestStatus::kCompleted) {
        s.hash = ImageHash(s.response.image);
      }
    } catch (const std::exception& e) {
      std::printf("request %zu failed: %s\n", i, e.what());
    }
    s.response.image = Image();
    if (spans != nullptr) {
      const auto at = [&](double ms) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(ms));
      };
      const std::uint64_t req = i + 1;
      const std::uint64_t id = spans->NewId();
      const double ready = s.submit_ms + s.response.total_ms;
      spans->Record(id, "request", 0, req, at(s.due_ms), at(ready));
      spans->Record(spans->NewId(), "send_late", id, req, at(s.due_ms),
                    at(s.submit_ms));
      spans->Record(spans->NewId(), "submit", id, req, at(s.submit_ms),
                    at(s.submit_ms + s.admit_us / 1000.0));
      spans->Record(spans->NewId(), "queue", id, req, at(s.submit_ms),
                    at(s.submit_ms + s.response.queue_ms));
      spans->Record(spans->NewId(), "response", id, req,
                    at(s.submit_ms + s.response.queue_ms), at(ready));
    }
  }
  return w;
}

double Latency(const Sent& s) {
  return DueLatencyMs(s.due_ms, s.submit_ms, s.response.total_ms);
}

bool Completed(const Sent& s) {
  return s.resolved && s.response.status == RequestStatus::kCompleted;
}

/// Median due-time latency of the completed requests of a window.
double LatencyP50(const Window& w) {
  std::vector<double> v;
  for (const Sent& s : w.sent) {
    if (Completed(s)) v.push_back(Latency(s));
  }
  return Percentile(v, 50);
}

}  // namespace

void RunServe(const Args& args, Report& report, SpanRecorder& spans) {
  ServeSpec spec = ParseSpec(args);
  std::vector<PipelineConfig> configs;
  for (SceneId id : spec.scenes) {
    PipelineConfig c = spec.load.base.config;
    c.scene_id = id;
    configs.push_back(c);
  }

  // ---- set-up: cold acquisition of every scene from an empty store, a
  // fresh service, and one untimed full-quality warm-up request per scene
  // (so a ladder's governor starts calibrated); repeated, the last stack
  // serves the run.
  Stack stack;
  std::unique_ptr<RenderService> service;
  std::vector<double> setup_s;
  std::vector<double> acquire_ms;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    service.reset();
    stack.Reset();
    const std::uint64_t setup_id = spans.NewId();
    const Clock::time_point t0 = Clock::now();
    stack = MakeStack(args.store_root + "/setup-" + std::to_string(rep));
    for (const PipelineConfig& c : configs) {
      const Clock::time_point a0 = Clock::now();
      (void)stack.repo->Acquire(c);
      spans.Record(spans.NewId(), "acquire", setup_id, 0, a0, Clock::now());
    }
    const Clock::time_point t1 = Clock::now();
    RenderServiceOptions opts = spec.service;
    opts.repository = stack.repo.get();
    service = std::make_unique<RenderService>(opts);
    for (SceneId id : spec.scenes) {
      RenderRequest r = spec.load.base;
      r.config.scene_id = id;
      (void)service->Submit(r).get();
    }
    const Clock::time_point t2 = Clock::now();
    spans.Record(setup_id, "setup", 0, 0, t0, t2);
    acquire_ms.push_back(Ms(t0, t1));
    setup_s.push_back(Ms(t0, t2) / 1000.0);
  }
  AddSetupMetric(report, setup_s);

  // ---- the timed window (untraced), then the traced extras.
  const std::vector<TimedRequest> trace = MakeTrace(spec, args.seconds);
  const ServiceStatsSnapshot before = service->Stats();
  const Window window = Replay(*service, trace, args.seconds, nullptr);
  service->Drain();
  const ServiceStatsSnapshot after = service->Stats();
  Window traced;
  Window full_obs;
  if (args.trace) {
    traced = Replay(*service, trace, args.seconds, &spans);
    const obs::TraceLevel prev =
        obs::SetActiveTraceLevel(obs::TraceLevel::kFull);
    full_obs = Replay(*service, MakeTrace(spec, args.seconds / 2.0),
                      args.seconds / 2.0, nullptr);
    obs::SetActiveTraceLevel(prev);
    service->Drain();
    (void)obs::DrainTrace();
  }

  // ---- end-to-end metrics from the untraced window, per sub-window of
  // the trace (by due time), reported as the median over sub-windows.
  struct Slice {
    std::vector<double> latency, interactive, service_ms;
    std::vector<Outcome> outcomes;
    std::uint64_t completed = 0;
  };
  std::vector<Slice> slices(kSubWindows);
  std::uint64_t completed = 0, rejected = 0, expired = 0, unresolved = 0;
  std::vector<double> latency, interactive;  // whole window, for the log
  for (std::size_t i = 0; i < window.sent.size(); ++i) {
    const Sent& s = window.sent[i];
    const RenderRequest& r = trace[i].request;
    Slice& slice = slices[SubWindow(s.due_ms, window.seconds * 1000.0)];
    const double limit = r.deadline_ms > 0.0 ? r.deadline_ms : spec.limit_ms;
    if (!s.resolved) {
      ++unresolved;
      slice.outcomes.push_back(Outcome{false, 0.0, limit});
      continue;
    }
    switch (s.response.status) {
      case RequestStatus::kCompleted: ++completed; break;
      case RequestStatus::kRejected: ++rejected; break;
      case RequestStatus::kExpired: ++expired; break;
    }
    if (!Completed(s)) {
      slice.outcomes.push_back(Outcome{false, 0.0, limit});
      continue;
    }
    const double lat = Latency(s);
    slice.outcomes.push_back(Outcome{true, lat, limit});
    slice.latency.push_back(lat);
    latency.push_back(lat);
    slice.service_ms.push_back(s.response.total_ms - s.response.queue_ms);
    if (r.priority == RequestPriority::kInteractive) {
      slice.interactive.push_back(lat);
      interactive.push_back(lat);
    }
    ++slice.completed;
  }
  const auto submitted = static_cast<std::uint64_t>(window.sent.size());
  report.attempted = submitted;
  report.failed = unresolved;
  const auto share = [](std::uint64_t n, std::uint64_t d) {
    return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
  };
  const auto set_sliced = [&](const char* name, const char* unit,
                              const auto& stat) {
    std::vector<double> v;
    for (const Slice& slice : slices) v.push_back(stat(slice));
    report.Set(name, MedianOverSlices(name, v), unit);
  };
  const double slice_s = window.seconds / static_cast<double>(kSubWindows);
  set_sliced("latency_p50_ms", "ms",
             [](const Slice& s) { return Percentile(s.latency, 50); });
  set_sliced("latency_p99_ms", "ms",
             [](const Slice& s) { return Percentile(s.latency, 99); });
  set_sliced("interactive_p99_ms", "ms",
             [](const Slice& s) { return Percentile(s.interactive, 99); });
  set_sliced("frame_ms_p50", "ms",
             [](const Slice& s) { return Percentile(s.service_ms, 50); });
  set_sliced("frame_ms_p95", "ms",
             [](const Slice& s) { return Percentile(s.service_ms, 95); });
  set_sliced("goodput_rps", "1/s", [&](const Slice& s) {
    return GoodputRps(s.outcomes, slice_s);
  });
  set_sliced("served_rate", "ratio", [&](const Slice& s) {
    return share(s.completed, s.outcomes.size());
  });
  std::printf("%s: %llu submitted, %llu completed, %llu rejected, %llu "
              "expired; latency p50 %.3f ms p99 %.3f ms (n=%zu), "
              "interactive p99 %.3f ms (n=%zu)\n",
              args.workload.c_str(), static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(expired),
              Percentile(latency, 50), Percentile(latency, 99), latency.size(),
              Percentile(interactive, 99), interactive.size());

  // ---- accounting checks.
  if (unresolved > 0) {
    report.Fail(std::to_string(unresolved) + " future(s) did not resolve");
  }
  if (completed + rejected + expired != submitted) {
    report.Fail("submitted != completed + rejected + expired");
  }
  if (after.submitted - before.submitted != submitted ||
      after.completed - before.completed != completed ||
      after.rejected - before.rejected != rejected ||
      after.expired - before.expired != expired) {
    report.Fail("service counters disagree with the harness's outcomes");
  }

  // ---- output checks (untimed): every completed response equals a direct
  // render of its (scene, view, rung); PSNR against the analytic ground
  // truth; render-layer profile from the trace's distinct (scene, view)
  // pairs at full quality, with the options the service uses.
  std::vector<std::shared_ptr<const ScenePipeline>> pipelines;
  std::vector<std::unique_ptr<SpNeRFFieldSource>> sources;
  std::map<SceneId, std::size_t> scene_index;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    pipelines.push_back(stack.repo->Acquire(configs[i]));
    sources.push_back(std::make_unique<SpNeRFFieldSource>(
        pipelines.back()->Codec(), configs[i].render.fp16_mlp, false));
    sources.back()->SetMasking(spec.load.base.bitmap_masking);
    scene_index[spec.scenes[i]] = i;
  }
  const int width = spec.load.base.image_width;
  const int height = spec.load.base.image_height;
  const int n_views = spec.load.base.n_views;
  const auto make_job = [&](std::size_t scene, int view, QualityRung rung) {
    const int d = RungResolutionDivisor(rung);
    RenderJob job;
    job.source = sources[scene].get();
    job.mlp = &pipelines[scene]->GetMlp();
    job.camera = pipelines[scene]->MakeCamera(ReducedDim(width, d),
                                              ReducedDim(height, d), view,
                                              n_views);
    job.options = ApplyRung(pipelines[scene]->RenderOptionsWithSkip(), rung);
    return job;
  };

  using PairKey = std::pair<std::size_t, int>;               // scene, view
  using RungKey = std::tuple<std::size_t, int, int>;         // + rung
  std::map<PairKey, std::size_t> pairs;                      // trace counts
  std::map<RungKey, std::size_t> delivered;                  // completions
  std::vector<const Window*> windows = {&window};
  if (args.trace) windows = {&window, &traced};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RenderRequest& r = trace[i].request;
    ++pairs[{scene_index[r.config.scene_id], r.view}];
  }
  for (const Window* w : windows) {
    for (std::size_t i = 0; i < w->sent.size(); ++i) {
      if (!Completed(w->sent[i])) continue;
      const RenderRequest& r = trace[i].request;
      ++delivered[{scene_index[r.config.scene_id], r.view,
                   static_cast<int>(w->sent[i].response.rung)}];
    }
  }

  std::vector<RenderProfile> profiles(configs.size());
  std::vector<RenderJob> pair_jobs;
  for (const auto& [key, count] : pairs) {
    RenderJob job = make_job(key.first, key.second, QualityRung::kFull);
    pair_jobs.push_back(job);
    job.collect_stats = true;
    profiles[key.first].Add(RenderEngine::Shared().Render(job));
  }

  std::map<RungKey, std::uint64_t> ref_hash;
  std::map<PairKey, Image> ground_truth;
  double psnr_weighted = 0.0;
  double psnr_weight = 0.0;
  for (const auto& [key, count] : delivered) {
    const auto [scene, view, rung_index] = key;
    const auto rung = static_cast<QualityRung>(rung_index);
    const RenderResult result =
        RenderEngine::Shared().Render(make_job(scene, view, rung));
    const Image image = RungResolutionDivisor(rung) > 1
                            ? UpsampleBilinear(result.image, width, height)
                            : result.image;
    ref_hash[key] = ImageHash(image);
    auto gt = ground_truth.find({scene, view});
    if (gt == ground_truth.end()) {
      gt = ground_truth
               .emplace(PairKey{scene, view},
                        pipelines[scene]->RenderGroundTruth(
                            pipelines[scene]->MakeCamera(width, height, view,
                                                         n_views)))
               .first;
    }
    psnr_weighted += static_cast<double>(count) * Psnr(image, gt->second);
    psnr_weight += static_cast<double>(count);
  }
  std::uint64_t mismatched = 0;
  for (const Window* w : windows) {
    for (std::size_t i = 0; i < w->sent.size(); ++i) {
      const Sent& s = w->sent[i];
      if (!Completed(s)) continue;
      const RenderRequest& r = trace[i].request;
      const RungKey key{scene_index[r.config.scene_id], r.view,
                        static_cast<int>(s.response.rung)};
      if (s.hash != ref_hash[key]) ++mismatched;
    }
  }
  if (mismatched > 0) {
    report.Fail(std::to_string(mismatched) +
                " response(s) differ from a direct render of their "
                "(scene, view, rung)");
    report.failed += mismatched;
  }
  const double psnr = psnr_weight > 0.0 ? psnr_weighted / psnr_weight : 0.0;
  report.Set("psnr_db", psnr, "dB");
  if (psnr < spec.psnr_floor) {
    report.Fail("psnr_db " + std::to_string(psnr) + " below the floor " +
                std::to_string(spec.psnr_floor));
  }

  std::vector<const SpNeRFModel*> codecs;
  std::vector<SimScene> sim;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    codecs.push_back(&pipelines[i]->Codec());
    double weight = 0.0;
    for (const auto& [key, count] : pairs) {
      if (key.first == i) weight += static_cast<double>(count);
    }
    sim.push_back(SimScene{&pipelines[i]->Codec(), SceneName(spec.scenes[i]),
                           profiles[i], weight});
  }
  AddCodecMemoryMetrics(report, codecs);
  AddSimMetrics(report, sim);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  // ---- per-layer metrics (traced run only).
  RenderProfile all;
  for (const RenderProfile& p : profiles) {
    all.stats.Merge(p.stats);
    all.counters.Merge(p.counters);
    all.frames += p.frames;
  }
  AddRenderProfileMetrics(report, all);
  const double mlp_ns = MlpNsPerEval(pipelines.front()->GetMlp(),
                                     configs.front().render.fp16_mlp,
                                     args.seed);
  report.Set("mlp.ns_per_eval", mlp_ns, "ns");
  report.Set("encoding.decode_ns_per_vertex",
             DecodeNsPerVertex(pipelines.front()->Codec(),
                               spec.load.base.bitmap_masking, args.seed),
             "ns");

  // Field layer: the distinct pairs rendered once more through the timing
  // decorator, one frame per batch on the full pool, stats off.
  std::vector<TimedFieldSource> timed;
  timed.reserve(sources.size());
  for (const auto& s : sources) timed.emplace_back(*s);
  std::vector<RenderJob> timed_jobs;
  for (const auto& [key, count] : pairs) {
    timed_jobs.push_back(make_job(key.first, key.second, QualityRung::kFull));
    timed_jobs.back().source = &timed[key.first];
  }
  (void)FieldTimer::Global().Collect();
  FieldTimer::Global().ResetFronts();
  const Clock::time_point f0 = Clock::now();
  for (const RenderJob& job : timed_jobs) {
    const std::uint64_t id = spans.NewId();
    const Clock::time_point a = Clock::now();
    (void)RenderEngine::Shared().RenderBatch({job});
    spans.Record(id, "frame", 0, 0, a, Clock::now());
  }
  const double field_wall = Ms(f0, Clock::now());
  AddFieldMetrics(report, FieldTimer::Global().Collect(), field_wall,
                  EngineWorkers(), static_cast<double>(timed_jobs.size()),
                  all.stats.mlp_evals, mlp_ns);

  RenderEngineOptions one_opts;
  one_opts.max_threads = 1;
  const RenderEngine one(one_opts);
  std::vector<double> t1, tn;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point a = Clock::now();
    for (const RenderJob& job : pair_jobs) (void)one.RenderBatch({job});
    t1.push_back(Ms(a, Clock::now()));
    a = Clock::now();
    for (const RenderJob& job : pair_jobs) {
      (void)RenderEngine::Shared().RenderBatch({job});
    }
    tn.push_back(Ms(a, Clock::now()));
  }
  report.Set("render.scaling_eff",
             Median(t1) / (static_cast<double>(EngineWorkers()) * Median(tn)),
             "ratio");

  BuildTimings build;
  for (const PipelineConfig& c : configs) {
    const BuildTimings b = TimeColdBuild(c);
    build.dataset_ms += b.dataset_ms;
    build.preprocess_ms += b.preprocess_ms;
    build.octree_ms += b.octree_ms;
  }
  report.Set("scene.build_dataset_ms", build.dataset_ms, "ms");
  report.Set("encoding.preprocess_ms", build.preprocess_ms, "ms");
  report.Set("grid.octree_build_ms", build.octree_ms, "ms");
  report.Set("assets.acquire_cold_ms", Median(acquire_ms), "ms");
  pipelines.clear();
  AddAcquireMetrics(report, stack, configs);

  // Serving layer, from the traced window.
  std::vector<double> admit, queue, depth, inflight, svc, batch;
  std::uint64_t t_rejected = 0, t_expired = 0, missed = 0;
  std::array<std::uint64_t, kQualityRungCount> rungs{};
  for (const Sent& s : traced.sent) {
    admit.push_back(s.admit_us);
    depth.push_back(static_cast<double>(s.depth));
    inflight.push_back(static_cast<double>(s.inflight));
    if (!s.resolved) continue;
    if (s.response.status == RequestStatus::kRejected) ++t_rejected;
    if (s.response.status == RequestStatus::kExpired) ++t_expired;
    if (s.response.status != RequestStatus::kCompleted) continue;
    queue.push_back(s.response.queue_ms);
    svc.push_back(s.response.total_ms - s.response.queue_ms);
    batch.push_back(static_cast<double>(s.response.batch_size));
    if (s.response.missed_deadline) ++missed;
    ++rungs[static_cast<std::size_t>(s.response.rung)];
  }
  const auto t_submitted = static_cast<std::uint64_t>(traced.sent.size());
  const auto t_completed = static_cast<std::uint64_t>(queue.size());
  report.Set("serve.admit_us_p99", Percentile(admit, 99), "us");
  report.Set("serve.queue_ms_p50", Percentile(queue, 50), "ms");
  report.Set("serve.queue_ms_p99", Percentile(queue, 99), "ms");
  report.Set("serve.queue_depth_p99", Percentile(depth, 99), "count");
  report.Set("serve.inflight_mean", Mean(inflight), "count");
  report.Set("serve.service_ms_p50", Percentile(svc, 50), "ms");
  report.Set("serve.service_ms_p99", Percentile(svc, 99), "ms");
  report.Set("serve.batch_size_mean", Mean(batch), "count");
  report.Set("serve.rejected", static_cast<double>(t_rejected), "count");
  report.Set("serve.expired", static_cast<double>(t_expired), "count");
  report.Set("serve.missed_deadline", static_cast<double>(missed), "count");
  report.Set("serve.shed_rate", share(t_rejected + t_expired, t_submitted),
             "ratio");
  report.Set("serve.degraded_rate", share(t_completed - rungs[0], t_completed),
             "ratio");
  for (std::size_t q = 0; q < kQualityRungCount; ++q) {
    report.Set("serve.rung" + std::to_string(q) + "_share",
               share(rungs[q], t_completed), "ratio");
  }

  const double p50 = LatencyP50(window);
  report.Set("obs.full_vs_default", LatencyP50(full_obs) / p50, "ratio");
  report.Set("harness.trace_overhead_pct",
             (LatencyP50(traced) / p50 - 1.0) * 100.0, "%");
  std::vector<double> late;
  for (const Sent& s : window.sent) late.push_back(s.submit_ms - s.due_ms);
  report.Set("harness.send_late_ms_p99", Percentile(late, 99), "ms");
  report.Set("harness.latency_samples", static_cast<double>(latency.size()),
             "count");
  report.Set("harness.interactive_samples",
             static_cast<double>(interactive.size()), "count");
}

}  // namespace perfbench
