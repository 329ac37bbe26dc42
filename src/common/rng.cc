#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace mqp {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  s_[0] = SplitMix64(&sm);
  s_[1] = SplitMix64(&sm);
  if (s_[0] == 0 && s_[1] == 0) s_[0] = 1;  // xorshift must not be all-zero
}

uint64_t Rng::Next() {
  uint64_t x = s_[0];
  const uint64_t y = s_[1];
  s_[0] = y;
  x ^= x << 23;
  s_[1] = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s_[1] + y;
}

uint64_t Rng::NextBelow(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - (UINT64_MAX % n);
  uint64_t r;
  do {
    r = Next();
  } while (r >= limit);
  return r % n;
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

uint64_t Rng::NextZipf(uint64_t n, double s) {
  assert(n > 0);
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_cdf_.resize(n);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      zipf_cdf_[i] = sum;
    }
    for (uint64_t i = 0; i < n; ++i) zipf_cdf_[i] /= sum;
    zipf_n_ = n;
    zipf_s_ = s;
  }
  const double u = NextDouble();
  // Binary search for the first CDF entry >= u.
  size_t lo = 0, hi = zipf_cdf_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (zipf_cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < zipf_cdf_.size() ? lo : zipf_cdf_.size() - 1;
}

std::string Rng::NextWord(int len) {
  std::string w;
  w.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    w.push_back(static_cast<char>('a' + NextBelow(26)));
  }
  return w;
}

}  // namespace mqp
