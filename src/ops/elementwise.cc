#include "ops/elementwise.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/logging.hh"

namespace recperf {

// std::max(x, 0.0f) is (x < 0.0f) ? 0.0f : x: branch-free once
// vectorized, and it passes -0.0 and NaN through unchanged, exactly as
// the GEMM epilogue's ReLU does.

Tensor
relu(const Tensor &x)
{
    Tensor y(x.shape());
    for (int64_t i = 0; i < x.size(); ++i)
        y.data()[i] = std::max(x.data()[i], 0.0f);
    return y;
}

void
reluInplace(Tensor &x)
{
    float *d = x.data();
    for (int64_t i = 0; i < x.size(); ++i)
        d[i] = std::max(d[i], 0.0f);
}

void
sigmoidInto(const float *x, int64_t n, float *y)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

Tensor
sigmoid(const Tensor &x)
{
    Tensor y(x.shape());
    sigmoidInto(x.data(), x.size(), y.data());
    return y;
}

OpCost
elementwiseCost(int64_t elements)
{
    OpCost c;
    c.flops = static_cast<double>(elements);
    c.bytesRead = static_cast<double>(elements) * sizeof(float);
    c.bytesWritten = static_cast<double>(elements) * sizeof(float);
    return c;
}

Tensor
concatCols(const std::vector<const Tensor *> &inputs)
{
    RP_ASSERT(!inputs.empty(), "concat of zero tensors");
    int64_t rows = inputs.front()->dim(0);
    int64_t total_cols = 0;
    for (const Tensor *t : inputs) {
        RP_ASSERT(t->rank() == 2, "concat input must be rank 2, got %s",
                  shapeToString(t->shape()).c_str());
        RP_ASSERT(t->dim(0) == rows,
                  "concat inputs disagree on rows: %lld vs %lld",
                  static_cast<long long>(t->dim(0)),
                  static_cast<long long>(rows));
        total_cols += t->dim(1);
    }

    Tensor out = Tensor::uninitialized({rows, total_cols});
    for (int64_t r = 0; r < rows; ++r) {
        float *dst = out.data() + r * total_cols;
        for (const Tensor *t : inputs) {
            int64_t cols = t->dim(1);
            std::memcpy(dst, t->data() + r * cols,
                        static_cast<size_t>(cols) * sizeof(float));
            dst += cols;
        }
    }
    return out;
}

OpCost
concatCost(int64_t total_elements)
{
    OpCost c;
    c.flops = 0.0;
    c.bytesRead = static_cast<double>(total_elements) * sizeof(float);
    c.bytesWritten = static_cast<double>(total_elements) * sizeof(float);
    return c;
}

} // namespace recperf
