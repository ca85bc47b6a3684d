// Spans the benchmark records around its own calls into the library's
// layers (model, core, serving, shard, persist, net) and its load
// generator (synth). Spans live in per-thread memory buffers and are
// written out once the workload ends, as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
//
// Span names are "<layer>.<call>" string literals, stored by pointer. A
// span's parent is the innermost span still open on the same thread, so
// nesting follows the C++ scopes of the calls. Recording is off unless
// EnableTracing() was called; a Span then costs one relaxed load.
#ifndef FUSER_BENCH_E2E_TRACE_H_
#define FUSER_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fuser {
namespace e2e {

void EnableTracing();

/// Records [construction, destruction) as one span. A null `name` records
/// nothing (used to sample spans in hot loops).
class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_id_ = 0;
  int64_t start_ns_ = 0;
};

struct SpanStats {
  std::string name;
  size_t count = 0;
  double busy_s = 0.0;  // sum of durations
  double self_s = 0.0;  // busy minus the time direct children cover
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// The functions below read every thread's buffer; call them only after
// the threads that record spans have been joined.

/// Per-name aggregates of every recorded span, sorted by name.
std::vector<SpanStats> SummarizeSpans();

/// Durations in seconds of every span named `name`, in recording order
/// per thread.
std::vector<double> SpanDurations(const char* name);

/// Share of the summed duration of spans named `parent` that their direct
/// children cover (0 when there is no such span).
double ChildCoverage(const char* parent);

size_t SpanCount();

/// Writes every span as a Chrome trace "X" event with span id, parent id
/// and request id in its args.
Status WriteChromeTrace(const std::string& path);

}  // namespace e2e
}  // namespace fuser

#endif  // FUSER_BENCH_E2E_TRACE_H_
