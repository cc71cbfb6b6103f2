// Serving demo: stand up a RenderService, replay a seeded open-loop trace
// against it (hot/cold scene skew, mixed priorities, some deadlines), and
// print what each scheduling class experienced. The shortest tour of the
// serve/ layer: Submit -> future -> RenderResponse.
//
// Usage: ./serve_demo [requests=64] [scenes=3] [res=64] [img=48] [rate=30]
//        [capacity=16]
#include <algorithm>
#include <cstdio>

#include "common/config.hpp"
#include "serve/load_generator.hpp"

int main(int argc, char** argv) {
  using namespace spnerf;
  const Config args = Config::FromArgs(argc, argv);

  std::vector<SceneId> scenes = AllScenes();
  scenes.resize(static_cast<std::size_t>(
      std::max(1, std::min(args.GetInt("scenes", 3), kSceneCount))));

  LoadGeneratorOptions load;
  load.request_count = static_cast<std::size_t>(args.GetInt("requests", 64));
  load.scenes = scenes;
  load.hot_scene_count = 1;
  load.arrival_rate_rps = args.GetDouble("rate", 30.0);
  load.deadline_fraction = 0.25;
  load.deadline_ms = 400.0;
  load.base.config.dataset.resolution_override = args.GetInt("res", 64);
  load.base.image_width = load.base.image_height = args.GetInt("img", 48);

  RenderServiceOptions opts;
  opts.queue_capacity = static_cast<std::size_t>(args.GetInt("capacity", 16));

  std::printf("== serve_demo: %zu requests over %zu scene(s) at %.0f rps "
              "(queue capacity %zu) ==\n",
              load.request_count, scenes.size(), load.arrival_rate_rps,
              opts.queue_capacity);

  RenderService service(opts);
  const std::vector<TimedRequest> trace =
      LoadGenerator(load).GenerateTrace();
  const ReplayResult replay = ReplayTrace(service, trace);
  service.Drain();

  // Per-priority outcome breakdown, straight from the service's collector.
  const ServiceStatsSnapshot stats = service.Stats();
  std::printf("%-12s %5s %5s %5s | %9s %9s\n", "priority", "done", "rej",
              "exp", "p50 ms", "p95 ms");
  for (RequestPriority p : {RequestPriority::kInteractive,
                            RequestPriority::kNormal,
                            RequestPriority::kBatch}) {
    const PriorityClassStats& cls =
        stats.by_class[static_cast<std::size_t>(p)];
    std::printf("%-12s %5llu %5llu %5llu | %9.2f %9.2f\n",
                RequestPriorityName(p),
                static_cast<unsigned long long>(cls.completed),
                static_cast<unsigned long long>(cls.rejected),
                static_cast<unsigned long long>(cls.expired),
                PercentileMs(cls.total_us, 50), PercentileMs(cls.total_us, 95));
  }

  std::printf("\n%.1f rps served | queue peak %zu/%zu | %llu engine "
              "batch(es), mean size %.2f\n",
              stats.ThroughputRps(), stats.queue_peak, opts.queue_capacity,
              static_cast<unsigned long long>(stats.batches),
              stats.MeanBatchSize());
  std::printf("replayed %.0f ms of open-loop traffic; rejected and expired "
              "requests were shed by admission control, not queued forever\n",
              replay.wall_ms);
  return 0;
}
