/**
 * @file
 * Functional encoder layer: weight initialization and the shared
 * row projection. The layer body itself lives in decode.cpp.
 */

#include "model/functional_layer.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "kernels/gemm.hpp"
#include "tensor/tensor_ops.hpp"

namespace softrec {

EncoderLayerWeights
EncoderLayerWeights::random(int64_t d_model, int64_t d_ff, Rng &rng)
{
    const double proj_std = 1.0 / std::sqrt(double(d_model));
    const double ff_std = 1.0 / std::sqrt(double(d_ff));
    EncoderLayerWeights w{
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model}), 1.0f),
        Tensor<float>(Shape({d_model})),
        Tensor<Half>(Shape({d_model, d_ff})),
        Tensor<Half>(Shape({d_ff, d_model})),
        Tensor<float>(Shape({d_ff})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model}), 1.0f),
        Tensor<float>(Shape({d_model})),
    };
    fillNormal(w.wq, rng, 0.0, proj_std);
    fillNormal(w.wk, rng, 0.0, proj_std);
    fillNormal(w.wv, rng, 0.0, proj_std);
    fillNormal(w.wo, rng, 0.0, proj_std);
    fillNormal(w.w1, rng, 0.0, proj_std);
    fillNormal(w.w2, rng, 0.0, ff_std);
    for (int64_t i = 0; i < d_model; ++i) {
        w.bq.at(i) = float(rng.normal(0.0, 0.02));
        w.bk.at(i) = float(rng.normal(0.0, 0.02));
        w.bv.at(i) = float(rng.normal(0.0, 0.02));
        w.bo.at(i) = float(rng.normal(0.0, 0.02));
        w.b2.at(i) = float(rng.normal(0.0, 0.02));
    }
    for (int64_t i = 0; i < d_ff; ++i)
        w.b1.at(i) = float(rng.normal(0.0, 0.02));
    return w;
}

void
projectRowsInto(const ExecContext &ctx, const char *name,
                const Tensor<Half> &x, const Tensor<Half> &w,
                const Tensor<float> &bias, bool gelu,
                Tensor<Half> &out)
{
    GemmDesc desc;
    desc.name = name;
    desc.m = x.shape().dim(0);
    desc.k = x.shape().dim(1);
    desc.n = w.shape().dim(1);
    desc.epilogue.bias = true;
    desc.epilogue.gelu = gelu;
    desc.tiling.tileM = 16;
    desc.tiling.tileN = gemmFreeTileN(simdBackend(), 16, desc.n);
    desc.tiling.tileK = 16;
    GemmOperands ops;
    ops.a = &x;
    ops.b = &w;
    ops.bias = &bias;
    SOFTREC_ASSERT(out.shape().rank() == 2 &&
                   out.shape().dim(0) == desc.m &&
                   out.shape().dim(1) == desc.n,
                   "projectRowsInto %s: out must be [%lld, %lld], "
                   "got %s", name, (long long)desc.m,
                   (long long)desc.n, out.shape().toString().c_str());
    gemmRun(ctx, desc, ops, out);
}

} // namespace softrec
