#include "nn/tensor.h"

#include <gtest/gtest.h>

#include "nn/tape.h"

namespace o2sr::nn {
namespace {

TEST(TensorTest, ConstructionZeroInitializes) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(t.at(r, c), 0.0f);
  }
}

TEST(TensorTest, FromVectorRowMajor) {
  Tensor t = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, FullAndFill) {
  Tensor t = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(t.at(1, 1), 3.5f);
  t.SetZero();
  EXPECT_EQ(t.at(1, 1), 0.0f);
}

TEST(TensorTest, AddAndScaleInPlace) {
  Tensor a = Tensor::FromVector(1, 3, {1, 2, 3});
  Tensor b = Tensor::FromVector(1, 3, {10, 20, 30});
  a.AddInPlace(b);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a.at(0, 0), 22.0f);
  EXPECT_EQ(a.at(0, 2), 66.0f);
}

TEST(TensorTest, SumAndMeanAbs) {
  Tensor t = Tensor::FromVector(2, 2, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(t.Sum(), -2.0);
  EXPECT_DOUBLE_EQ(t.MeanAbs(), 2.5);
  EXPECT_DOUBLE_EQ(Tensor().MeanAbs(), 0.0);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor(3, 4).ShapeString(), "[3x4]");
}

TEST(TensorTest, XavierWithinLimit) {
  Rng rng(1);
  Tensor t = Tensor::Xavier(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i]), limit);
  }
}

TEST(TensorTest, RandomNormalIsDeterministicGivenSeed) {
  Rng a(3), b(3);
  Tensor ta = Tensor::RandomNormal(4, 4, 1.0, a);
  Tensor tb = Tensor::RandomNormal(4, 4, 1.0, b);
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta.data()[i], tb.data()[i]);
  }
}

// Forward product through the tape, the only matmul the models run.
Tensor TapeMatMul(const Tensor& a, const Tensor& b) {
  Tape tape(/*training=*/false);
  return tape.value(tape.MatMul(tape.Input(a), tape.Input(b)));
}

TEST(MatMulTest, KnownProduct) {
  Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = TapeMatMul(a, b);
  ASSERT_EQ(c.rows(), 2);
  ASSERT_EQ(c.cols(), 2);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Tensor a = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  Tensor eye = Tensor::FromVector(2, 2, {1, 0, 0, 1});
  Tensor c = TapeMatMul(a, eye);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], c.data()[i]);
}

}  // namespace
}  // namespace o2sr::nn
