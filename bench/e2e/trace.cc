#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench.h"

namespace fuser {
namespace e2e {
namespace {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request_id;
  int64_t start_ns;
  int64_t dur_ns;
};

struct ThreadBuffer {
  uint32_t tid = 0;
  uint64_t next_id = 0;
  std::vector<uint64_t> open;  // ids of the spans open on this thread
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mu;
// Owned here, not by the threads, so spans survive thread exit.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans a thread can record before its buffer grows. Growing copies the
/// buffer, a stall of milliseconds that an open-loop generator turns into
/// latency; serve_tcp's generator thread records ~400k spans. Reserved
/// pages that are never written take no memory.
constexpr size_t kReservedSpans = size_t{1} << 19;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<uint32_t>(g_buffers.size());
    buffer->spans.reserve(kReservedSpans);
  }
  return *buffer;
}

template <typename Fn>
void ForEachSpan(Fn fn) {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& span : buffer->spans) fn(*buffer, span);
  }
}

/// Summed duration of each span's direct children, keyed by parent id.
std::unordered_map<uint64_t, int64_t> ChildTime() {
  std::unordered_map<uint64_t, int64_t> child;
  ForEachSpan([&](const ThreadBuffer&, const SpanRecord& span) {
    if (span.parent != 0) child[span.parent] += span.dur_ns;
  });
  return child;
}

}  // namespace

void EnableTracing() { g_enabled.store(true, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request_id)
    : name_(g_enabled.load(std::memory_order_relaxed) ? name : nullptr) {
  if (name_ == nullptr) return;
  ThreadBuffer& buffer = LocalBuffer();
  // Thread index in the high bits keeps ids unique without atomics.
  id_ = (static_cast<uint64_t>(buffer.tid) << 40) | ++buffer.next_id;
  parent_ = buffer.open.empty() ? 0 : buffer.open.back();
  request_id_ = request_id;
  buffer.open.push_back(id_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const int64_t end = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.spans.push_back(
      {name_, id_, parent_, request_id_, start_ns_, end - start_ns_});
}

std::vector<SpanStats> SummarizeSpans() {
  const std::unordered_map<uint64_t, int64_t> child = ChildTime();
  std::unordered_map<std::string, std::vector<double>> durations;
  std::unordered_map<std::string, SpanStats> stats;
  ForEachSpan([&](const ThreadBuffer&, const SpanRecord& span) {
    SpanStats& s = stats[span.name];
    s.name = span.name;
    ++s.count;
    s.busy_s += static_cast<double>(span.dur_ns) * 1e-9;
    auto it = child.find(span.id);
    const int64_t covered = it == child.end() ? 0 : it->second;
    s.self_s += static_cast<double>(span.dur_ns - covered) * 1e-9;
    durations[span.name].push_back(static_cast<double>(span.dur_ns) * 1e-3);
  });
  std::vector<SpanStats> out;
  for (auto& [name, s] : stats) {
    s.p50_us = Percentile(durations[name], 0.50);
    s.p99_us = Percentile(durations[name], 0.99);
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.name < b.name;
  });
  return out;
}

std::vector<double> SpanDurations(const char* name) {
  std::vector<double> out;
  ForEachSpan([&](const ThreadBuffer&, const SpanRecord& span) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.dur_ns) * 1e-9);
    }
  });
  return out;
}

double ChildCoverage(const char* parent) {
  const std::unordered_map<uint64_t, int64_t> child = ChildTime();
  int64_t total = 0;
  int64_t covered = 0;
  ForEachSpan([&](const ThreadBuffer&, const SpanRecord& span) {
    if (std::strcmp(span.name, parent) != 0) return;
    total += span.dur_ns;
    auto it = child.find(span.id);
    if (it != child.end()) covered += it->second;
  });
  return total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                   : 0.0;
}

size_t SpanCount() {
  size_t n = 0;
  ForEachSpan([&](const ThreadBuffer&, const SpanRecord&) { ++n; });
  return n;
}

Status WriteChromeTrace(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  int64_t origin = INT64_MAX;
  ForEachSpan([&](const ThreadBuffer&, const SpanRecord& span) {
    origin = std::min(origin, span.start_ns);
  });
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  ForEachSpan([&](const ThreadBuffer& buffer, const SpanRecord& span) {
    const char* dot = std::strchr(span.name, '.');
    const int layer_len =
        dot == nullptr ? static_cast<int>(std::strlen(span.name))
                       : static_cast<int>(dot - span.name);
    std::fprintf(
        f,
        "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
        "\"args\": {\"span_id\": %llu, \"parent_id\": %llu, "
        "\"request_id\": %llu}}",
        first ? "" : ",\n", span.name, layer_len, span.name,
        static_cast<double>(span.start_ns - origin) * 1e-3,
        static_cast<double>(span.dur_ns) * 1e-3, buffer.tid,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.request_id));
    first = false;
  });
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IoError("cannot write " + path);
}

}  // namespace e2e
}  // namespace fuser
