/**
 * @file
 * Unit tests for element-wise activations and concat.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/logging.hh"
#include "core/rng.hh"
#include "ops/elementwise.hh"

namespace recperf {
namespace {

TEST(Relu, ClampsNegatives)
{
    Tensor x({4});
    x.at(static_cast<int64_t>(0)) = -1.0f;
    x.at(static_cast<int64_t>(1)) = 0.0f;
    x.at(static_cast<int64_t>(2)) = 2.0f;
    x.at(static_cast<int64_t>(3)) = -0.5f;
    Tensor y = relu(x);
    EXPECT_EQ(y.at(static_cast<int64_t>(0)), 0.0f);
    EXPECT_EQ(y.at(static_cast<int64_t>(1)), 0.0f);
    EXPECT_EQ(y.at(static_cast<int64_t>(2)), 2.0f);
    EXPECT_EQ(y.at(static_cast<int64_t>(3)), 0.0f);
    // Input untouched.
    EXPECT_EQ(x.at(static_cast<int64_t>(0)), -1.0f);
}

TEST(Relu, InplaceMatchesOutOfPlace)
{
    Rng rng(1);
    Tensor x({100});
    x.fillUniform(rng, -5.0f, 5.0f);
    Tensor expected = relu(x);
    reluInplace(x);
    EXPECT_TRUE(x.allClose(expected));
}

TEST(Relu, SpecialValuesMatchMaxWithZero)
{
    // One ReLU semantics everywhere: max(x, 0.0f), which returns x
    // unless x < 0. So -0.0 and NaN pass through, +inf stays, and -inf
    // clamps to +0.0 — in relu, reluInplace and the GEMM epilogue.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Tensor x({5});
    x.at(static_cast<int64_t>(0)) = -0.0f;
    x.at(static_cast<int64_t>(1)) = nan;
    x.at(static_cast<int64_t>(2)) = inf;
    x.at(static_cast<int64_t>(3)) = -inf;
    x.at(static_cast<int64_t>(4)) = -1.0f;
    Tensor out = relu(x);
    Tensor in = x;
    reluInplace(in);
    for (const Tensor *y : {&out, &in}) {
        EXPECT_EQ(y->at(static_cast<int64_t>(0)), 0.0f);
        EXPECT_TRUE(std::signbit(y->at(static_cast<int64_t>(0))));
        EXPECT_TRUE(std::isnan(y->at(static_cast<int64_t>(1))));
        EXPECT_EQ(y->at(static_cast<int64_t>(2)), inf);
        EXPECT_EQ(y->at(static_cast<int64_t>(3)), 0.0f);
        EXPECT_FALSE(std::signbit(y->at(static_cast<int64_t>(3))));
        EXPECT_EQ(y->at(static_cast<int64_t>(4)), 0.0f);
        EXPECT_FALSE(std::signbit(y->at(static_cast<int64_t>(4))));
    }
    EXPECT_EQ(0, std::memcmp(out.data(), in.data(), 5 * sizeof(float)));
}

TEST(Sigmoid, KnownValues)
{
    Tensor x({3});
    x.at(static_cast<int64_t>(0)) = 0.0f;
    x.at(static_cast<int64_t>(1)) = 100.0f;
    x.at(static_cast<int64_t>(2)) = -100.0f;
    Tensor y = sigmoid(x);
    EXPECT_FLOAT_EQ(y.at(static_cast<int64_t>(0)), 0.5f);
    EXPECT_NEAR(y.at(static_cast<int64_t>(1)), 1.0f, 1e-6f);
    EXPECT_NEAR(y.at(static_cast<int64_t>(2)), 0.0f, 1e-6f);
}

TEST(Sigmoid, OutputInUnitInterval)
{
    // Over extreme inputs fp32 saturates to exactly 0/1, so the closed
    // interval holds; over moderate inputs the open interval holds.
    Rng rng(2);
    Tensor x({1000});
    x.fillUniform(rng, -50.0f, 50.0f);
    Tensor y = sigmoid(x);
    for (int64_t i = 0; i < y.size(); ++i) {
        EXPECT_GE(y.at(i), 0.0f);
        EXPECT_LE(y.at(i), 1.0f);
    }

    x.fillUniform(rng, -10.0f, 10.0f);
    y = sigmoid(x);
    for (int64_t i = 0; i < y.size(); ++i) {
        EXPECT_GT(y.at(i), 0.0f);
        EXPECT_LT(y.at(i), 1.0f);
    }
}

TEST(Sigmoid, Monotone)
{
    Tensor x({2});
    x.at(static_cast<int64_t>(0)) = 1.0f;
    x.at(static_cast<int64_t>(1)) = 2.0f;
    Tensor y = sigmoid(x);
    EXPECT_LT(y.at(static_cast<int64_t>(0)), y.at(static_cast<int64_t>(1)));
}

TEST(ConcatCols, TwoTensors)
{
    Tensor a({2, 2}, 1.0f), b({2, 3}, 2.0f);
    Tensor c = concatCols({&a, &b});
    EXPECT_EQ(c.shape(), (Shape{2, 5}));
    EXPECT_EQ(c.at(0, 0), 1.0f);
    EXPECT_EQ(c.at(0, 1), 1.0f);
    EXPECT_EQ(c.at(0, 2), 2.0f);
    EXPECT_EQ(c.at(1, 4), 2.0f);
}

TEST(ConcatCols, PreservesOrderWithinRows)
{
    Tensor a({1, 2}), b({1, 1});
    a.at(0, 0) = 1.0f;
    a.at(0, 1) = 2.0f;
    b.at(0, 0) = 3.0f;
    Tensor c = concatCols({&a, &b});
    EXPECT_EQ(c.at(0, 0), 1.0f);
    EXPECT_EQ(c.at(0, 1), 2.0f);
    EXPECT_EQ(c.at(0, 2), 3.0f);
}

TEST(ConcatCols, SingleInputCopies)
{
    Tensor a({3, 2}, 4.0f);
    Tensor c = concatCols({&a});
    EXPECT_TRUE(c.allClose(a));
}

TEST(ConcatCols, ManyInputs)
{
    std::vector<Tensor> parts;
    std::vector<const Tensor *> ptrs;
    for (int i = 0; i < 10; ++i)
        parts.emplace_back(Shape{4, 3}, static_cast<float>(i));
    for (const Tensor &t : parts)
        ptrs.push_back(&t);
    Tensor c = concatCols(ptrs);
    EXPECT_EQ(c.shape(), (Shape{4, 30}));
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(c.at(2, i * 3 + 1), static_cast<float>(i));
}

TEST(ConcatCols, ErrorsOnMismatch)
{
    Tensor a({2, 2}), b({3, 2});
    EXPECT_THROW(concatCols({&a, &b}), PanicError);
    EXPECT_THROW(concatCols({}), PanicError);
    Tensor c({4});
    EXPECT_THROW(concatCols({&c}), PanicError);
}

TEST(ElementwiseCost, ClosedForm)
{
    OpCost c = elementwiseCost(100);
    EXPECT_DOUBLE_EQ(c.flops, 100.0);
    EXPECT_DOUBLE_EQ(c.bytesRead, 400.0);
    EXPECT_DOUBLE_EQ(c.bytesWritten, 400.0);
}

TEST(ConcatCost, NoFlops)
{
    OpCost c = concatCost(64);
    EXPECT_DOUBLE_EQ(c.flops, 0.0);
    EXPECT_DOUBLE_EQ(c.bytesRead, 256.0);
    EXPECT_DOUBLE_EQ(c.intensity(), 0.0);
}

TEST(OpCost, Accumulation)
{
    OpCost a{1.0, 2.0, 3.0};
    OpCost b{10.0, 20.0, 30.0};
    a += b;
    EXPECT_DOUBLE_EQ(a.flops, 11.0);
    EXPECT_DOUBLE_EQ(a.bytesRead, 22.0);
    EXPECT_DOUBLE_EQ(a.bytesWritten, 33.0);
    OpCost c = a + b;
    EXPECT_DOUBLE_EQ(c.flops, 21.0);
}

TEST(OpKind, Names)
{
    EXPECT_STREQ(opKindName(OpKind::FC), "FC");
    EXPECT_STREQ(opKindName(OpKind::SLS), "SLS");
    EXPECT_STREQ(opKindName(OpKind::Concat), "Concat");
    EXPECT_STREQ(opKindName(OpKind::Recurrent), "Recurrent");
}

} // namespace
} // namespace recperf
