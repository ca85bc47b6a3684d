// Deterministic pseudo-random number generation for synthetic workloads and
// Gibbs sampling.
//
// The engine is xoshiro256++ seeded via splitmix64, giving reproducible
// streams across platforms (std::mt19937 distributions are not guaranteed to
// be identical across standard libraries, so all distributions here are
// hand-rolled).
#ifndef FUSER_COMMON_RANDOM_H_
#define FUSER_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fuser {

/// xoshiro256++ generator; cheap to copy, deterministic for a given seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Returns k distinct indices drawn uniformly from [0, n) (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace fuser

#endif  // FUSER_COMMON_RANDOM_H_
