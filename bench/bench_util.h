// The JSON line every bench prints last.
//
// Each bench binary (bench_paper and the subsystem benches) prints its
// human-readable tables first and then one JSON object on a single line.
// scripts/check_bench.py gates that line against the checked-in
// BENCH_<name>.json baselines, so the key names and JSON types a bench
// emits are part of its contract: integers stay integers, booleans stay
// booleans, and a number keeps the fixed decimals it was recorded with.
#ifndef FUSER_BENCH_BENCH_UTIL_H_
#define FUSER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fuser {
namespace bench {

/// The middle element of `values` (the upper one of an even count).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Builds one JSON object in insertion order; Print() writes it as one
/// line to stdout. Nested objects open with Object(key) and end with
/// End().
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) { Str("bench", bench); }

  JsonLine& Str(const std::string& key, const std::string& value) {
    Key(key);
    out_ += '"' + value + '"';
    return *this;
  }

  JsonLine& Int(const std::string& key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }

  /// `value` with `decimals` fixed decimals, like printf("%.*f"); a
  /// non-finite value prints null so the line stays valid JSON.
  JsonLine& Num(const std::string& key, double value, int decimals = 6) {
    Key(key);
    if (!std::isfinite(value)) {
      out_ += "null";
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    out_ += buf;
    return *this;
  }

  JsonLine& Bool(const std::string& key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  JsonLine& Object(const std::string& key) {
    Key(key);
    out_ += '{';
    first_ = true;
    return *this;
  }

  JsonLine& End() {
    out_ += '}';
    first_ = false;
    return *this;
  }

  void Print() const {
    std::printf("%s}\n", out_.c_str());
    std::fflush(stdout);
  }

 private:
  void Key(const std::string& key) {
    if (!first_) out_ += ", ";
    first_ = false;
    out_ += '"' + key + "\": ";
  }

  std::string out_ = "{";
  bool first_ = true;
};

}  // namespace bench
}  // namespace fuser

#endif  // FUSER_BENCH_BENCH_UTIL_H_
