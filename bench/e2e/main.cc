// fuser_bench: runs one end-to-end workload and prints its metrics.
//
//   fuser_bench --workload=fuse_batch|serve_tcp|ingest_serve --seed=N
//               [--seconds=S] [--smoke] [--trace] --work-dir=DIR
//               [--cli=PATH/fuser_cli]
//
// Human-readable metric lines go to stderr; the last stdout line is one
// JSON object with the outcome, every metric and (with --trace) the
// per-layer metrics. With --trace, DIR also receives trace.json (Chrome
// trace events) and summary.json (per-span count, busy and self time, p50
// and p99). bench/e2e/run.py builds and runs it; see bench/e2e/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "trace.h"

namespace fuser {
namespace e2e {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    // Every digit, so repeated runs never print identical rounded times;
    // null for the non-finite values that fail the run.
    char value[64] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

void PrintMetrics(const char* workload, const char* group,
                  const MetricMap& metrics) {
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "%-13s %-10s %-28s %16.6f %-6s", workload, group,
                 name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::fprintf(stderr, " (n=%zu)", m.samples);
    std::fputc('\n', stderr);
  }
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--workload", &value)) {
      workload = value;
    } else if (ParseFlag(arg, "--seed", &value)) {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--seconds", &value)) {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "--work-dir", &value)) {
      opt.work_dir = value;
    } else if (ParseFlag(arg, "--cli", &value)) {
      opt.cli_path = value;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (opt.work_dir.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  if (opt.trace) EnableTracing();

  Result result;
  if (workload == "fuse_batch") {
    result = RunFuseBatch(opt);
  } else if (workload == "serve_tcp") {
    result = RunServeTcp(opt);
  } else if (workload == "ingest_serve") {
    result = RunIngestServe(opt);
  } else {
    std::fprintf(stderr, "unknown workload: '%s'\n", workload.c_str());
    return 2;
  }
  for (const MetricMap* group :
       {&result.end_to_end, &result.details, &result.layers, &result.stages}) {
    for (const auto& [name, m] : *group) {
      if (!std::isfinite(m.value)) result.Fail(name + " is not finite");
    }
  }

  const char* w = workload.c_str();
  PrintMetrics(w, "end_to_end", result.end_to_end);
  PrintMetrics(w, "detail", result.details);
  PrintMetrics(w, "layer", result.layers);
  PrintMetrics(w, "stage", result.stages);
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "%-13s FAILED: %s\n", w, failure.c_str());
  }

  if (opt.trace) {
    const std::string trace_path = opt.work_dir + "/trace.json";
    Status written = WriteChromeTrace(trace_path);
    if (!written.ok()) result.Fail(written.ToString());
    std::string spans = "[";
    for (const SpanStats& s : SummarizeSpans()) {
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s\n  {\"name\": %s, \"count\": %zu, \"busy_s\": %.9f, "
                    "\"self_s\": %.9f, \"p50_us\": %.3f, \"p99_us\": %.3f}",
                    spans.size() > 1 ? "," : "", JsonString(s.name).c_str(),
                    s.count, s.busy_s, s.self_s, s.p50_us, s.p99_us);
      spans += line;
    }
    spans += "]";
    const std::string summary_path = opt.work_dir + "/summary.json";
    FILE* f = std::fopen(summary_path.c_str(), "w");
    if (f == nullptr) {
      result.Fail("cannot write " + summary_path);
    } else {
      std::fprintf(f,
                   "{\"workload\": %s, \"seed\": %llu,\n"
                   "\"end_to_end_traced\": %s,\n\"layers\": %s,\n"
                   "\"stages\": %s,\n\"spans\": %s}\n",
                   JsonString(workload).c_str(),
                   static_cast<unsigned long long>(opt.seed),
                   JsonMetrics(result.end_to_end).c_str(),
                   JsonMetrics(result.layers).c_str(),
                   JsonMetrics(result.stages).c_str(), spans.c_str());
      std::fclose(f);
    }
  }

  std::string failures = "[";
  for (const std::string& failure : result.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += JsonString(failure);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"smoke\": %s, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, "
      "\"fingerprint\": %s, \"end_to_end\": %s, \"details\": %s, "
      "\"layers\": %s, \"stages\": %s}\n",
      JsonString(workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.smoke ? "true" : "false", result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), failures.c_str(),
      JsonString(result.fingerprint).c_str(),
      JsonMetrics(result.end_to_end).c_str(),
      JsonMetrics(result.details).c_str(), JsonMetrics(result.layers).c_str(),
      JsonMetrics(result.stages).c_str());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace fuser

int main(int argc, char** argv) { return fuser::e2e::Main(argc, argv); }
