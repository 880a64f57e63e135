/**
 * @file
 * Functional (CPU-executed) transformer encoder layer.
 *
 * Everything else in src/model plans kernels for the performance
 * model; this module actually *computes* one full encoder layer —
 * QKV projections, multi-head attention under any softmax strategy,
 * output projection, residual/LayerNorm, and the FeedForward block —
 * through the functional kernel implementations, with fp16 storage
 * throughout. It exists to demonstrate end to end that softmax
 * recomposition leaves a real transformer layer's numerics intact,
 * not just an isolated attention head's.
 *
 * runEncoderLayer is defined in decode.cpp: it is one caller of the
 * layer body that the KV-cached prefill and decode paths
 * (model/decode.hpp) run too, so all of them compute a layer the
 * same way.
 */

#ifndef SOFTREC_MODEL_FUNCTIONAL_LAYER_HPP
#define SOFTREC_MODEL_FUNCTIONAL_LAYER_HPP

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/recomposition.hpp"
#include "fp16/half.hpp"
#include "sparse/bsr.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** All parameters of one encoder layer. */
struct EncoderLayerWeights
{
    Tensor<Half> wq, wk, wv, wo;  //!< projections, [dModel, dModel]
    Tensor<float> bq, bk, bv, bo; //!< projection biases, [dModel]
    Tensor<float> gamma1, beta1;  //!< post-attention LayerNorm
    Tensor<Half> w1, w2;          //!< FF weights, [dm, dFf], [dFf, dm]
    Tensor<float> b1, b2;         //!< FF biases
    Tensor<float> gamma2, beta2;  //!< post-FF LayerNorm

    /** Random initialization (transformer-standard scales). */
    static EncoderLayerWeights random(int64_t d_model, int64_t d_ff,
                                      Rng &rng);
};

/**
 * The attention path of FunctionalLayerConfig. Recomposed, the
 * strategy pipeline, is the only one. The type exists only because
 * perfbench/runner.cpp assigns FunctionalLayerConfig::attention; a
 * later benchmark change can drop that line, then the field and this
 * type.
 */
enum class AttentionBackend
{
    Recomposed, //!< runs FunctionalLayerConfig::strategy
};

/** Shape and execution options of the functional layer. */
struct FunctionalLayerConfig
{
    int64_t dModel = 64;
    int64_t numHeads = 4;
    int64_t dFf = 128;
    bool causalMask = false;
    /**
     * Block-sparse attention structure shared by all heads; nullptr
     * runs dense attention. The block size must equal subVector.
     */
    const BsrLayout *layout = nullptr;
    Strategy strategy = Strategy::Baseline;
    /** Always Recomposed; see AttentionBackend. */
    AttentionBackend attention = AttentionBackend::Recomposed;
    int64_t subVector = 16;
    GemmTiling attnTiling{16, 16, 16, 256, 128};

    int64_t dHead() const { return dModel / numHeads; }
};

/**
 * Run one encoder layer: LayerNorm(x + MHA(x)), then
 * LayerNorm(h + FF(h)). Attention heads run in parallel under the
 * context; every kernel inside is chunk-deterministic, so the output
 * is bit-identical for any thread count.
 *
 * @param ctx execution context (serial when default-constructed)
 * @param input [L, dModel] fp16
 * @return [L, dModel] fp16
 */
Tensor<Half> runEncoderLayer(const ExecContext &ctx,
                             const FunctionalLayerConfig &config,
                             const EncoderLayerWeights &weights,
                             const Tensor<Half> &input);

/**
 * out = x W + b through the functional GEMM with the layer-standard
 * 16x16x16 tiling, fp16 storage, into a caller-owned output tensor
 * pre-sized to [rows, n]. Every projection of the layer body goes
 * through here, so callers reuse step-lifetime buffers and every
 * path produces bit-identical projections of the same rows.
 *
 * @param x [rows, k] fp16
 * @param w [k, n] fp16
 * @param bias [n] fp32
 * @param gelu apply GELU after the bias (ff.1)
 */
void projectRowsInto(const ExecContext &ctx, const char *name,
                     const Tensor<Half> &x, const Tensor<Half> &w,
                     const Tensor<float> &bias, bool gelu,
                     Tensor<Half> &out);

} // namespace softrec

#endif // SOFTREC_MODEL_FUNCTIONAL_LAYER_HPP
