#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

struct OpenSpan {
  std::uint32_t id;
  std::uint32_t parent;
  const char* name;
  std::uint64_t item;
  double start;
};

/// One thread's spans.  Owned by the registry so that buffers outlive pool
/// worker threads and collect_spans() can read them after the join.
struct ThreadBuffer {
  std::vector<OpenSpan> open;
  std::vector<SpanRecord> done;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by mutex

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    return g_registry.back().get();
  }();
  return *buffer;
}

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::uint32_t current_span() {
  if (!tracing()) return 0;
  const ThreadBuffer& buffer = local_buffer();
  return buffer.open.empty() ? 0 : buffer.open.back().id;
}

Span::Span(const char* name, std::uint64_t item)
    : Span(name, item, current_span()) {}

Span::Span(const char* name, std::uint64_t item, std::uint32_t parent) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  local_buffer().open.push_back({id_, parent, name, item, now_s()});
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = now_s();
  ThreadBuffer& buffer = local_buffer();
  const OpenSpan open = buffer.open.back();
  buffer.open.pop_back();
  buffer.done.push_back(
      {open.id, open.parent, open.name, open.item, open.start, end});
}

std::vector<SpanRecord> collect_spans() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<SpanRecord> out;
  for (const auto& buffer : g_registry) {
    if (!buffer->open.empty()) {
      throw std::logic_error("collect_spans: a span is still open");
    }
    out.insert(out.end(), buffer->done.begin(), buffer->done.end());
    buffer->done.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

double covered_length(double lo, double hi,
                      std::vector<std::pair<double, double>> intervals) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;  // everything below `reach` is already counted
  for (const auto& [a, b] : intervals) {
    if (b <= a || b <= reach) continue;  // empty after clipping, or counted
    covered += b - std::max(a, reach);
    reach = b;
  }
  return covered;
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, LayerTime> out;
  for (const SpanRecord& s : spans) {
    LayerTime& layer = out[s.name];
    const double duration = s.end - s.start;
    const auto it = children.find(s.id);
    const double self =
        it == children.end()
            ? duration
            : duration - covered_length(s.start, s.end, it->second);
    ++layer.count;
    layer.total_s += duration;
    layer.self_s += self;
    if (it != children.end()) layer.self_with_children_s += self;
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out.precision(9);
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"item\":" << s.item
        << ",\"start\":" << s.start << ",\"end\":" << s.end << "}\n";
  }
}

}  // namespace e2e
