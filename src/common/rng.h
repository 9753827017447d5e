#ifndef O2SR_COMMON_RNG_H_
#define O2SR_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace o2sr {

// SplitMix64 finalizer: a stateless, statistically solid 64-bit mix. The
// one definition behind every derived stream: the simulator's per-(epoch,
// region) seeds and the fault-injection and retry-jitter decisions.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A categorical distribution over fixed weights, normalized once. Drawing
// from it consumes the engine exactly as Categorical(weights) over the same
// weights does, so loops that draw many times from one weight vector build
// the table once instead of renormalizing on every draw.
using CategoricalTable = std::discrete_distribution<int>::param_type;

// The table of `weights`: non-empty, non-negative, with a positive sum.
inline CategoricalTable MakeCategoricalTable(
    const std::vector<double>& weights) {
  O2SR_CHECK(!weights.empty());
  return CategoricalTable(weights.begin(), weights.end());
}

// Deterministic random number generator used throughout the project.
// Every component that needs randomness takes an Rng (or a seed) so that
// datasets, model initialization and experiments are fully reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  // Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi) {
    O2SR_CHECK_LE(lo, hi);
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
  }

  // Gaussian sample.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  // Poisson sample; `mean` must be non-negative. Safe to call from
  // concurrent threads on distinct Rngs: libstdc++ samples means >= 12
  // through std::lgamma, which writes the process-global `signgam`, so
  // those draws take a process-wide lock (the draws themselves are
  // unchanged).
  int Poisson(double mean) {
    if (mean <= 0.0) return 0;
    std::unique_lock<std::mutex> lock(LgammaMutex(), std::defer_lock);
    if (mean >= 12.0) lock.lock();
    std::poisson_distribution<int> dist(mean);
    return dist(engine_);
  }

  // Exponential sample with the given rate (lambda).
  double Exponential(double rate) {
    O2SR_CHECK_GT(rate, 0.0);
    std::exponential_distribution<double> dist(rate);
    return dist(engine_);
  }

  // Returns true with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  // Samples an index in [0, weights.size()) proportionally to `weights`.
  // All weights must be non-negative, with a positive sum.
  int Categorical(const std::vector<double>& weights) {
    return Categorical(MakeCategoricalTable(weights));
  }

  // Samples an index from a prebuilt table (see CategoricalTable).
  int Categorical(const CategoricalTable& table) {
    std::discrete_distribution<int> dist;
    return dist(engine_, table);
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  // Derives an independent child generator; calls on the child do not
  // perturb this generator's sequence.
  Rng Fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

  // Serializes the full engine state as a portable decimal string, so a
  // checkpointed training run resumes with the exact random sequence it
  // would have produced uninterrupted.
  std::string SaveState() const {
    std::ostringstream oss;
    oss << engine_;
    return oss.str();
  }

  // Restores a state produced by SaveState. Returns false (leaving the
  // engine untouched) when the string is not a valid state.
  bool LoadState(const std::string& state) {
    std::istringstream iss(state);
    std::mt19937_64 candidate;
    iss >> candidate;
    if (iss.fail()) return false;
    engine_ = candidate;
    return true;
  }

 private:
  static std::mutex& LgammaMutex() {
    static std::mutex mutex;
    return mutex;
  }

  std::mt19937_64 engine_;
};

}  // namespace o2sr

#endif  // O2SR_COMMON_RNG_H_
