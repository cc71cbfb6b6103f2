#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

std::uint64_t SpanRecorder::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::Record(std::uint64_t id, const char* name,
                          std::uint64_t parent, std::uint64_t request,
                          Clock::time_point start, Clock::time_point end) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, request, start, end});
}

std::vector<SpanTotals> SpanRecorder::Totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> by_name;
  for (const Span& s : spans_) {
    const double total = Ms(s.start, s.end);
    // Union of the children's intervals, clipped to this span.
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const Clock::time_point a = std::max(c->start, s.start);
        const Clock::time_point b = std::min(c->end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point run_start{};
      Clock::time_point run_end{};
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= run_end) {
          run_end = std::max(run_end, b);
          continue;
        }
        if (open) covered += Ms(run_start, run_end);
        run_start = a;
        run_end = b;
        open = true;
      }
      if (open) covered += Ms(run_start, run_end);
    }
    SpanTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += total;
    t.self_ms += total - covered;
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path,
                             const std::string& stamp_json) const {
  const std::vector<SpanTotals> totals = Totals();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  Clock::time_point epoch = Clock::time_point::max();
  for (const Span& s : spans_) epoch = std::min(epoch, s.start);
  std::fprintf(f, "{\"stamp\": %s,\n\"totals\": [", stamp_json.c_str());
  for (std::size_t i = 0; i < totals.size(); ++i) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"count\": %zu, \"total_ms\": "
                 "%.6f, \"self_ms\": %.6f}",
                 i ? "," : "", totals[i].name.c_str(), totals[i].count,
                 totals[i].total_ms, totals[i].self_ms);
  }
  std::fprintf(f, "],\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ms\": %.6f, \"end_ms\": %.6f}",
                 i ? "," : "", s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 Ms(epoch, s.start), Ms(epoch, s.end));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ FieldTimer --

namespace {
// Front sizes at or above this land in the last bucket (a 32x32 tile's
// front never exceeds 1024 rays).
constexpr std::size_t kFrontBuckets = 4096;
}  // namespace

struct FieldTimer::Slot {
  FieldThreadTotals totals;
  std::vector<std::uint64_t> fronts = std::vector<std::uint64_t>(kFrontBuckets);
};

FieldTimer& FieldTimer::Global() {
  static FieldTimer timer;
  return timer;
}

FieldTimer::Slot& FieldTimer::Local() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    // Slots are never freed: a pool worker's slot must outlive every read,
    // and there are only as many as there are render threads.
    slot = new Slot();
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.push_back(slot);
  }
  return *slot;
}

void FieldTimer::Add(Clock::time_point start, Clock::time_point end,
                     std::size_t front_size) {
  Slot& s = Local();
  if (s.totals.calls == 0) s.totals.first = start;
  s.totals.last = end;
  s.totals.busy_ms += Ms(start, end);
  ++s.totals.calls;
  s.totals.samples += front_size;
  ++s.fronts[std::min(front_size, kFrontBuckets - 1)];
}

std::vector<FieldThreadTotals> FieldTimer::Collect() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FieldThreadTotals> out;
  for (Slot* s : slots_) {
    if (s->totals.calls > 0) out.push_back(s->totals);
    s->totals = FieldThreadTotals{};
  }
  return out;
}

double FieldTimer::FrontSizePercentile(double p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> merged(kFrontBuckets);
  std::uint64_t n = 0;
  for (const Slot* s : slots_) {
    for (std::size_t i = 0; i < kFrontBuckets; ++i) {
      merged[i] += s->fronts[i];
      n += s->fronts[i];
    }
  }
  if (n == 0) return 0.0;
  // Same rank rule as stats.cpp's Percentile, over the exact histogram.
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo_rank = static_cast<std::uint64_t>(rank);
  const double frac = rank - static_cast<double>(lo_rank);
  const auto value_at = [&](std::uint64_t r) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kFrontBuckets; ++i) {
      seen += merged[i];
      if (seen > r) return static_cast<double>(i);
    }
    return static_cast<double>(kFrontBuckets - 1);
  };
  const double lo = value_at(lo_rank);
  const double hi = value_at(std::min(lo_rank + 1, n - 1));
  return lo + frac * (hi - lo);
}

void FieldTimer::ResetFronts() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot* s : slots_) std::fill(s->fronts.begin(), s->fronts.end(), 0);
}

void TimedFieldSource::SampleBatch(std::span<const spnerf::Vec3f> positions,
                                   std::span<spnerf::FieldSample> out,
                                   spnerf::DecodeCounters* counters) const {
  const Clock::time_point start = Clock::now();
  inner_->SampleBatch(positions, out, counters);
  FieldTimer::Global().Add(start, Clock::now(), positions.size());
}

}  // namespace perfbench
