#include "common/parallel.hpp"

#include <atomic>
#include <future>
#include <gtest/gtest.h>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace spnerf {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<int> hits(n, 0);
  ParallelFor(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElement) {
  int value = 0;
  ParallelFor(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ParallelFor, ResultMatchesSequential) {
  const std::size_t n = 50000;
  std::vector<double> out_par(n), out_seq(n);
  const auto f = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 2.0;
  };
  ParallelFor(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out_par[i] = f(i);
  });
  for (std::size_t i = 0; i < n; ++i) out_seq[i] = f(i);
  EXPECT_EQ(out_par, out_seq);
}

TEST(ParallelFor, RespectsMaxThreads) {
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  ParallelFor(
      64,
      [&](std::size_t, std::size_t) {
        const int now = ++concurrent;
        int old = peak.load();
        while (now > old && !peak.compare_exchange_weak(old, now)) {
        }
        --concurrent;
      },
      /*max_threads=*/2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ParallelFor, SmallNFewerWorkersThanThreads) {
  // n=3 must not spawn workers with empty ranges that overlap.
  std::vector<int> hits(3, 0);
  ParallelFor(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, ExplicitPoolCoversEveryIndex) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<int> hits(n, 0);
  ParallelFor(
      n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      },
      /*max_threads=*/0, &pool);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, RunsEverySlotExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.WorkerCount(), 8u);
  std::vector<std::atomic<int>> slot_hits(8);
  for (auto& s : slot_hits) s = 0;
  pool.RunOnWorkers(8, [&](unsigned slot) {
    ASSERT_LT(slot, 8u);
    ++slot_hits[slot];
  });
  for (const auto& s : slot_hits) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, SlotsClampedToWorkerCount) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.RunOnWorkers(64, [&](unsigned slot) {
    EXPECT_LT(slot, 2u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, SequentialReuseAcrossRegions) {
  // The pool must survive many fork-joins back to back (the persistent-pool
  // property the per-call-spawn version lacked).
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.RunOnWorkers(4, [&](unsigned) { ++total; });
  }
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, NestedDispatchRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.RunOnWorkers(4, [&](unsigned) {
    // A nested region from inside a running region must not re-enter the
    // pool's fork-join machinery.
    pool.RunOnWorkers(4, [&](unsigned) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 16);
}

TEST(ParallelFor, ConcurrentRegionsFromIndependentThreads) {
  // The task-scheduler property: N threads each dispatching their own
  // ParallelFor onto one shared pool must all make progress (no deadlock,
  // no serialisation hazard), every index of every region visited exactly
  // once, and every output bit-identical to a sequential run.
  ThreadPool pool(4);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kN = 20000;
  const auto f = [](std::size_t t, std::size_t i) {
    return static_cast<double>(i) * 1.25 + static_cast<double>(t);
  };

  std::vector<std::vector<double>> outputs(kThreads,
                                           std::vector<double>(kN, 0.0));
  std::vector<std::vector<int>> hits(kThreads, std::vector<int>(kN, 0));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        ParallelFor(
            kN,
            [&](std::size_t b, std::size_t e) {
              for (std::size_t i = b; i < e; ++i) {
                outputs[t][i] = f(t, i);
                if (round == 0) ++hits[t][i];
              }
            },
            /*max_threads=*/0, &pool);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    std::vector<double> expected(kN);
    for (std::size_t i = 0; i < kN; ++i) expected[i] = f(t, i);
    EXPECT_EQ(outputs[t], expected) << "thread " << t;
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[t][i], 1) << "thread " << t << " index " << i;
    }
  }
}

TEST(ThreadPool, ConcurrentRunOnWorkersCoversEverySlot) {
  // Several independent dispatchers on one pool: each region's slots run
  // exactly once even while other regions are live.
  ThreadPool pool(4);
  constexpr std::size_t kThreads = 3;
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> totals(kThreads);
  for (auto& t : totals) t = 0;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        pool.RunOnWorkers(4, [&](unsigned slot) {
          ASSERT_LT(slot, 4u);
          ++totals[t];
        });
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const auto& t : totals) EXPECT_EQ(t.load(), kRounds * 4);
}

TEST(ThreadPool, DetachedSubmitRunsEverySlotThenCompletion) {
  ThreadPool pool(4);
  std::atomic<int> slots_run{0};
  std::atomic<int> at_completion{-1};
  std::promise<void> done;
  pool.Submit(
      4, [&](unsigned) { ++slots_run; },
      [&] {
        at_completion = slots_run.load();  // every slot finished before this
        done.set_value();
      });
  done.get_future().wait();
  EXPECT_EQ(slots_run.load(), 4);
  EXPECT_EQ(at_completion.load(), 4);
}

TEST(ThreadPool, DetachedSubmitOnSingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  int slots_run = 0;
  bool completed = false;
  pool.Submit(
      8, [&](unsigned) { ++slots_run; }, [&] { completed = true; });
  // No worker threads: the region and its completion ran before Submit
  // returned.
  EXPECT_EQ(slots_run, 1);  // slots clamp to WorkerCount()
  EXPECT_TRUE(completed);
}

TEST(ThreadPool, ThrowingRegionBodyPropagatesWithoutWedgingThePool) {
  // A throw from any slot (worker or dispatcher) must reach the dispatching
  // caller after the region completes — never kill a worker thread or leak
  // the region's completion latch.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.RunOnWorkers(4,
                        [](unsigned) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The scheduler survives: the same pool keeps running regions.
  std::atomic<int> total{0};
  pool.RunOnWorkers(4, [&](unsigned) { ++total; });
  EXPECT_EQ(total.load(), 4);
}

TEST(ThreadPool, ConcurrentDetachedSubmitsCompleteBeforeDestruction) {
  // Several threads pile detached regions onto one pool while its workers
  // are held inside the first slots, so every region is live at once —
  // hundreds per submitter. The pool is then destroyed without waiting:
  // the destructor must drain them all, every slot and every completion
  // must run exactly once, and each completion must see all of its
  // region's slots done.
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kRegionsEach = 300;
  constexpr std::size_t kRegions = kSubmitters * kRegionsEach;
  constexpr unsigned kSlots = 4;
  std::vector<std::atomic<int>> slot_hits(kRegions * kSlots);
  std::vector<std::atomic<int>> completions(kRegions);
  std::vector<std::atomic<int>> slots_seen_at_completion(kRegions);
  for (auto& h : slot_hits) h = 0;
  for (auto& c : completions) c = 0;
  for (auto& s : slots_seen_at_completion) s = -1;
  std::atomic<bool> release{false};
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t r = 0; r < kRegionsEach; ++r) {
          const std::size_t region = t * kRegionsEach + r;
          pool.Submit(
              kSlots,
              [&, region](unsigned slot) {
                while (!release.load()) std::this_thread::yield();
                ++slot_hits[region * kSlots + slot];
              },
              [&, region] {
                int done = 0;
                for (unsigned s = 0; s < kSlots; ++s) {
                  done += slot_hits[region * kSlots + s].load();
                }
                slots_seen_at_completion[region] = done;
                ++completions[region];
              });
        }
      });
    }
    for (std::thread& s : submitters) s.join();
    release = true;
  }  // destroyed with the whole backlog still queued
  for (std::size_t i = 0; i < slot_hits.size(); ++i) {
    ASSERT_EQ(slot_hits[i].load(), 1) << "slot " << i;
  }
  for (std::size_t r = 0; r < kRegions; ++r) {
    ASSERT_EQ(completions[r].load(), 1) << "region " << r;
    ASSERT_EQ(slots_seen_at_completion[r].load(), static_cast<int>(kSlots))
        << "region " << r;
  }
}

TEST(ThreadPool, NestedParallelForCoversIndices) {
  ThreadPool pool(4);
  const std::size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  ParallelFor(
      4,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t outer = b; outer < e; ++outer) {
          ParallelFor(
              n / 4,
              [&](std::size_t ib, std::size_t ie) {
                for (std::size_t i = ib; i < ie; ++i)
                  ++hits[outer * (n / 4) + i];
              },
              0, &pool);
        }
      },
      0, &pool);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace spnerf
