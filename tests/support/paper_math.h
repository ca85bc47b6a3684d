// The paper's closed forms that only tests pin, kept out of the production
// library: Theorem 3.5's false-positive rate and its validity bound, the
// linear-space posterior, the raw superset counts the joint statistics
// are built from, and two numeric helpers the tests use. Part of the
// fuser_test_support library.
#ifndef FUSER_TESTS_SUPPORT_PAPER_MATH_H_
#define FUSER_TESTS_SUPPORT_PAPER_MATH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "core/joint_stats.h"

namespace fuser {

/// Derives q from p and r per Theorem 3.5 (q = alpha/(1-alpha) * (1-p)/p *
/// r), clamping into [0, 1].
double DeriveFalsePositiveRate(double precision, double recall, double alpha);

/// Theorem 3.5 validity condition: alpha <= p / (p + r - p*r). Outside this
/// range the derived q would exceed 1 (it is clamped).
bool FprDerivationValid(double precision, double recall, double alpha);

/// The posterior 1 / (1 + (1-alpha)/alpha / mu) with mu in linear space;
/// mu <= 0 (or NaN) maps to 0 and mu = +inf to 1.
double PosteriorFromMu(double mu, double alpha);

/// Training triples of each class whose providers include every source of
/// `subset`, summed from the provider's exported pattern counts.
size_t CountTrueSuperset(const EmpiricalJointStats& stats, Mask subset);
size_t CountFalseSuperset(const EmpiricalJointStats& stats, Mask subset);

/// n choose k without overflow for n <= 64; saturates at UINT64_MAX.
uint64_t BinomialCoefficient(int n, int k);

/// Sample standard deviation of v; 0 for fewer than two elements.
double StdDev(const std::vector<double>& v);

}  // namespace fuser

#endif  // FUSER_TESTS_SUPPORT_PAPER_MATH_H_
