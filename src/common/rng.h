// Deterministic random number generation for workloads, tests and benches.
//
// All randomness in the library flows through Rng so that every experiment
// is reproducible from a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mqp {

/// \brief Deterministic 64-bit PRNG (splitmix64 seeded xorshift128+).
class Rng {
 public:
  explicit Rng(uint64_t seed = 42);

  /// Uniform in [0, 2^64).
  uint64_t Next();

  /// Uniform in [0, n). Precondition: n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with probability p of true.
  bool NextBool(double p = 0.5);

  /// Zipfian rank in [0, n) with skew parameter s (s=0 degenerates to
  /// uniform). Uses the classic rejection-free inverse-CDF over the
  /// generalized harmonic numbers (precomputed per distinct (n, s)).
  uint64_t NextZipf(uint64_t n, double s);

  /// Random lowercase identifier of `len` characters.
  std::string NextWord(int len);

  /// Shuffles `v` in place (Fisher-Yates).
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Picks a uniformly random element. Precondition: !v.empty().
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[NextBelow(v.size())];
  }

 private:
  uint64_t s_[2];
  // Cache for the Zipf CDF of the most recent (n, s) pair.
  uint64_t zipf_n_ = 0;
  double zipf_s_ = -1.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace mqp
