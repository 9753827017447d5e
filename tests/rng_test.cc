#include "common/rng.h"

#include <vector>

#include <gtest/gtest.h>

namespace o2sr {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1000) == b.UniformInt(0, 1000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(4.5);
  EXPECT_NEAR(sum / n, 4.5, 0.1);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(6);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(7);
  std::vector<int> counts(3, 0);
  const std::vector<double> weights = {1.0, 2.0, 7.0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.02);
}

// A prebuilt table is a cache, not a different sampler: the same draws and
// the same engine state afterwards as building the distribution per draw,
// including weight vectors with zeros (never drawn) and a single weight.
TEST(RngTest, CategoricalTableMatchesPerDrawWeights) {
  Rng gen(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> weights(gen.UniformInt(1, 40));
    for (double& w : weights) {
      w = gen.Bernoulli(0.3) ? 0.0 : gen.Uniform(0.0, 5.0);
    }
    weights[gen.UniformInt(0, static_cast<int>(weights.size()) - 1)] = 1.0;
    const CategoricalTable table = MakeCategoricalTable(weights);
    Rng per_draw(1000 + trial);
    Rng cached(1000 + trial);
    for (int i = 0; i < 50; ++i) {
      const int want = per_draw.Categorical(weights);
      const int got = cached.Categorical(table);
      ASSERT_EQ(want, got) << "trial " << trial << " draw " << i;
      ASSERT_GT(weights[got], 0.0);
    }
    EXPECT_EQ(per_draw.SaveState(), cached.SaveState()) << "trial " << trial;
  }
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(8);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(RngTest, ForkIsIndependentOfParentSequence) {
  Rng a(9);
  Rng fork = a.Fork();
  const double after_fork = a.Uniform();

  Rng b(9);
  Rng fork_b = b.Fork();
  (void)fork_b;
  // Consuming values from the fork must not change the parent's stream.
  for (int i = 0; i < 10; ++i) fork.Uniform();
  EXPECT_DOUBLE_EQ(after_fork, b.Uniform());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace o2sr
