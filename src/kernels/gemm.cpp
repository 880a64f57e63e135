/**
 * @file
 * Dense GEMM kernel implementation: analytical profile + functional
 * tiled execution.
 */

#include "kernels/gemm.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/fma_dot.hpp"
#include "sim/calibration.hpp"

namespace softrec {

double
gemmEfficiencyOf(GemmShapeClass shape_class)
{
    switch (shape_class) {
      case GemmShapeClass::LargeFc:
        return calib::kGemmEffLargeFc;
      case GemmShapeClass::Attention:
        return calib::kGemmEffAttention;
      case GemmShapeClass::AttentionWide:
        return calib::kGemmEffAttentionWide;
      case GemmShapeClass::BlockSparse:
        return calib::kGemmEffBlockSparse;
    }
    panic("unknown GEMM shape class");
}

KernelProfile
gemmProfile(const GpuSpec &spec, const GemmDesc &desc)
{
    SOFTREC_ASSERT(desc.m > 0 && desc.n > 0 && desc.k > 0 &&
                   desc.batch > 0,
                   "GEMM %s has empty problem", desc.name.c_str());
    const GemmTiling &t = desc.tiling;
    const int64_t tiles_m = ceilDiv(desc.m, t.tileM);
    const int64_t tiles_n = ceilDiv(desc.n, t.tileN);

    KernelProfile prof;
    prof.name = desc.name;
    prof.category = desc.category;
    prof.geom.numBlocks = desc.batch * tiles_m * tiles_n;
    prof.geom.block.threads = t.threads;
    prof.geom.block.smemBytes = t.smemBytes();
    prof.geom.block.regsPerThread = t.regsPerThread;

    // --- DRAM traffic (per batch item, then scaled) ---
    const uint64_t a_bytes = uint64_t(desc.m * desc.k) * kFp16Bytes;
    const uint64_t b_bytes = uint64_t(desc.k * desc.n) * kFp16Bytes;
    const uint64_t c_bytes = uint64_t(desc.m * desc.n) * kFp16Bytes;

    // A-operand reuse works at strip granularity: with row-major tile
    // rasterization, one TB row's A strip (tileM x k) is re-read for
    // every tile in that row with nothing but small B strips between
    // accesses, so a strip that fits in L2 makes A effectively
    // single-pass from DRAM.
    const uint64_t a_strip_bytes = uint64_t(t.tileM * desc.k) * kFp16Bytes;
    const int64_t a_passes =
        a_strip_bytes <= uint64_t(0.8 * double(spec.l2Bytes)) ? 1
                                                              : tiles_n;
    // B is swept once per tile row; its reuse distance is the whole
    // operand, so the whole-operand residency rule applies.
    uint64_t reads = operandDramBytes(a_bytes, a_passes, spec.l2Bytes) +
                     operandDramBytes(b_bytes, tiles_m, spec.l2Bytes);
    uint64_t writes = c_bytes;

    if (desc.epilogue.bias)
        reads += uint64_t(desc.n) * kFp32Bytes;
    if (desc.epilogue.localSoftmax) {
        // m' and d' per (row, sub-vector), fp32.
        writes += uint64_t(desc.m * tiles_n) * 2 * kFp32Bytes;
    }
    if (desc.prologue.globalScale) {
        // r' per (row, incoming sub-vector), fp32.
        reads += uint64_t(desc.m *
                          ceilDiv(desc.k, desc.prologue.gsSubVector)) *
                 kFp32Bytes;
    }
    prof.dramReadBytes = uint64_t(desc.batch) * reads;
    prof.dramWriteBytes = uint64_t(desc.batch) * writes;

    // --- Arithmetic ---
    prof.tensorFlops =
        2.0 * double(desc.batch) * double(desc.m) * double(desc.n) *
        double(desc.k);
    prof.gemmEfficiency = gemmEfficiencyOf(desc.shapeClass);

    const double out_elems =
        double(desc.batch) * double(desc.m) * double(desc.n);
    double epilogue_flops = 0.0;
    double sfu_ops = 0.0;
    if (desc.epilogue.scale != 1.0)
        epilogue_flops += out_elems;
    if (desc.epilogue.causalMask)
        epilogue_flops += out_elems;
    if (desc.epilogue.bias)
        epilogue_flops += out_elems;
    if (desc.epilogue.gelu) {
        epilogue_flops += 8.0 * out_elems;
        sfu_ops += out_elems; // tanh
    }
    if (desc.epilogue.localSoftmax) {
        epilogue_flops += 3.0 * out_elems; // max, subtract, accumulate
        sfu_ops += out_elems;              // exp
    }
    if (desc.prologue.globalScale) {
        epilogue_flops +=
            double(desc.batch) * double(desc.m) * double(desc.k);
    }
    prof.cudaFlops = epilogue_flops;
    prof.sfuOps = sfu_ops;
    // Fused softmax work slows the mainloop in proportion to how
    // little GEMM depth each fused element amortizes over: K steps
    // per output element for an LS epilogue, N columns per LHS
    // element for a GS prologue.
    if (desc.epilogue.localSoftmax)
        prof.fusedPenalty +=
            calib::kFusedWorkPerElement / double(desc.k);
    if (desc.prologue.globalScale)
        prof.fusedPenalty +=
            calib::kFusedWorkPerElement / double(desc.n);
    prof.workImbalance = desc.workImbalance;
    return prof;
}

void
geluSpan(SimdBackend backend, const float *x, float *out, int64_t n)
{
    constexpr float kSqrt2OverPi = 0.7978845608028654f;
    // tanh's argument is staged per chunk, so x and out may alias.
    constexpr int64_t kChunk = 64;
    float inner[kChunk];
    for (int64_t i0 = 0; i0 < n; i0 += kChunk) {
        const int64_t w = std::min(kChunk, n - i0);
        for (int64_t i = 0; i < w; ++i) {
            const float v = x[i0 + i];
            inner[i] = kSqrt2OverPi * (v + 0.044715f * v * v * v);
        }
        tanhSpan(backend, inner, inner, w);
        for (int64_t i = 0; i < w; ++i)
            out[i0 + i] = 0.5f * x[i0 + i] * (1.0f + inner[i]);
    }
}

float
geluApprox(float x)
{
    float y;
    geluSpan(SimdBackend::Scalar, &x, &y, 1);
    return y;
}

void
gemmRun(const ExecContext &ctx, const GemmDesc &desc,
        const GemmOperands &ops, Tensor<Half> &c, const LsOutputs *ls)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional GEMM handles one batch item; loop "
                   "outside (%s)", desc.name.c_str());
    SOFTREC_ASSERT(ops.a && ops.b, "GEMM operands missing");
    const int64_t m = desc.m, n = desc.n, k = desc.k;
    SOFTREC_ASSERT(ops.a->shape() == Shape({m, k}),
                   "A shape %s != [m, k]",
                   ops.a->shape().toString().c_str());
    const Shape expect_b =
        ops.transposeB ? Shape({n, k}) : Shape({k, n});
    SOFTREC_ASSERT(ops.b->shape() == expect_b, "B shape %s unexpected",
                   ops.b->shape().toString().c_str());
    SOFTREC_ASSERT(c.shape() == Shape({m, n}), "C shape %s != [m, n]",
                   c.shape().toString().c_str());
    if (desc.epilogue.bias) {
        SOFTREC_ASSERT(ops.bias && ops.bias->shape() == Shape({n}),
                       "bias missing or misshaped");
    }
    SOFTREC_ASSERT(!desc.epilogue.causalMask ||
                       (!desc.epilogue.bias && !desc.epilogue.gelu),
                   "causal mask is a QK^T epilogue; it takes no bias "
                   "or GeLU (%s)", desc.name.c_str());
    const int64_t gs_sub = desc.prologue.gsSubVector;
    if (desc.prologue.globalScale) {
        SOFTREC_ASSERT(ops.gsFactors &&
                       ops.gsFactors->shape() ==
                           Shape({m, ceilDiv(k, gs_sub)}),
                       "GS factors missing or misshaped");
    }
    const GemmTiling &t = desc.tiling;
    const int64_t tiles_n = ceilDiv(n, t.tileN);
    if (desc.epilogue.localSoftmax) {
        SOFTREC_ASSERT(ls && ls->localMax && ls->localSum,
                       "LS outputs missing");
        SOFTREC_ASSERT(ls->localMax->shape() == Shape({m, tiles_n}) &&
                       ls->localSum->shape() == Shape({m, tiles_n}),
                       "LS output shapes must be [m, ceil(n/tileN)]");
    }

    const float neg_inf = -std::numeric_limits<float>::infinity();

    // Unique-operand traffic accounting: B (and bias) are credited
    // once up front on the submitting thread; per-strip A reads and C
    // writes are credited by whichever thread runs the strip. Fused
    // LS/GS extras go to byte-only scopes so softmax-layer traffic
    // can be summed per strategy without double-counting GEMM time.
    prof::Scope scope(ctx, desc.name.c_str());
    std::optional<prof::Scope> ls_scope;
    std::optional<prof::Scope> gs_scope;
    if (scope.active()) {
        uint64_t fixed_reads = uint64_t(k * n) * kFp16Bytes;
        if (desc.epilogue.bias)
            fixed_reads += uint64_t(n) * kFp32Bytes;
        scope.addRead(fixed_reads);
        if (desc.epilogue.localSoftmax)
            ls_scope.emplace(ctx, "softmax.ls.fused",
                             prof::Scope::Kind::BytesOnly);
        if (desc.prologue.globalScale)
            gs_scope.emplace(ctx, "softmax.gs.fused",
                             prof::Scope::Kind::BytesOnly);
    }

    // Pack B once per call into one fp32 panel per n-tile, laid out
    // [k][tileN] so the GEMM tile streams it contiguously. This
    // hoists the transposeB branch and every B-side conversion out of
    // the mainloop (the old code reconverted each B element once per
    // consuming output row). Ragged tail columns are zero-padded so
    // the kernel always accumulates a full tileN-wide panel; padding
    // contributes exact zeros and the epilogue never stores them.
    std::vector<float> bpack(size_t(tiles_n) * size_t(k) *
                             size_t(t.tileN), 0.0f);
    if (!ops.transposeB) {
        // B is [k, n]: each row feeds one contiguous strip per panel.
        for (int64_t kk = 0; kk < k; ++kk) {
            const Half *brow = ops.b->rowPtr(kk);
            for (int64_t tn = 0; tn < tiles_n; ++tn) {
                const int64_t n0 = tn * t.tileN;
                halfToFloat(
                    brow + n0,
                    &bpack[size_t((tn * k + kk) * t.tileN)],
                    std::min(t.tileN, n - n0));
            }
        }
    } else {
        // B is [n, k]: convert each row once, scatter into panels.
        std::vector<float> brow(size_t(k), 0.0f);
        for (int64_t j = 0; j < n; ++j) {
            halfToFloat(ops.b->rowPtr(j), brow.data(), k);
            float *panel =
                &bpack[size_t((j / t.tileN) * k * t.tileN)];
            const int64_t jj = j % t.tileN;
            for (int64_t kk = 0; kk < k; ++kk)
                panel[kk * t.tileN + jj] = brow[kk];
        }
    }

    // Every backend's GEMM tile, like its exp path, produces the same
    // bits, so the backend only changes speed. Read it once so one
    // call never mixes paths.
    const SimdBackend backend = simdBackend();

    // One m-tile strip of output: all n-tiles for rows [m0, m0 + mh).
    // The strip's A rows are converted (and GS-scaled) once into abuf;
    // every n-tile below reuses those fp32 rows.
    auto runStrip = [&](int64_t m0, std::vector<float> &abuf,
                        std::vector<float> &acc) {
        const int64_t mh = std::min(t.tileM, m - m0);
        // Diagonal stop: with a causal A, row m0 + i is +0 past
        // column m0 + i, so the strip reads only columns [0, kd) and
        // each row only its own [0, m0 + i + 1). A skipped term would
        // be +0 times a finite B, i.e. +-0, which leaves the +0-seeded
        // accumulator's bits unchanged; the kept terms keep their
        // k-ascending order.
        const bool causal_a = desc.prologue.causalA;
        const int64_t kd = causal_a ? std::min(k, m0 + mh) : k;
        const int64_t diag = causal_a ? m0 : kd;
        for (int64_t i = 0; i < mh; ++i) {
            const int64_t depth = std::min(kd, diag + i + 1);
            float *arow = &abuf[size_t(i * kd)];
            halfToFloat(ops.a->rowPtr(m0 + i), arow, depth);
            if (desc.prologue.globalScale) {
                const float *gs = ops.gsFactors->rowPtr(m0 + i);
                for (int64_t k0 = 0; k0 < depth; k0 += gs_sub) {
                    const float r = gs[k0 / gs_sub];
                    const int64_t k1 = std::min(depth, k0 + gs_sub);
                    for (int64_t kk = k0; kk < k1; ++kk)
                        arow[kk] *= r;
                }
            }
        }
        for (int64_t tn = 0; tn < tiles_n; ++tn) {
            const int64_t n0 = tn * t.tileN;
            const int64_t nw = std::min(t.tileN, n - n0);
            // A causal tile whose first column lies past its last row
            // is masked everywhere: its epilogue would only write -inf,
            // or under LS m' = -inf, d' = +0 and X' = +0 (the LS
            // tile's fully masked segment), so those bits are
            // stored directly and the mainloop is skipped.
            if (desc.epilogue.causalMask && n0 > m0 + mh - 1) {
                const Half fill = desc.epilogue.localSoftmax
                    ? Half()
                    : -Half::infinity();
                for (int64_t i = 0; i < mh; ++i) {
                    Half *crow = c.rowPtr(m0 + i) + n0;
                    std::fill(crow, crow + nw, fill);
                    if (desc.epilogue.localSoftmax) {
                        ls->localMax->at(m0 + i, tn) = neg_inf;
                        ls->localSum->at(m0 + i, tn) = 0.0f;
                    }
                }
                continue;
            }
            // Each element is one k-ascending fma chain from +0. A and
            // B are widened fp16, so every product is exact in fp32 and
            // the chain has the bits of a mul+add loop; only the GS
            // prologue's fp32 A (X'.r') rounds once per step where a
            // mul+add would round twice.
            std::fill(acc.begin(), acc.end(), 0.0f);
            fmaGemmTile(backend, abuf.data(),
                        &bpack[size_t(tn) * size_t(k) * size_t(t.tileN)],
                        acc.data(), mh, kd, diag, t.tileN);

            // Epilogue on the fp32 tile, one plain loop per stage so
            // each can vectorize; every element still goes through
            // scale, mask, bias and GeLU in that order. Plain C stores
            // go through the batch converter per row; LS narrows the
            // whole tile in its one pass.
            for (int64_t i = 0; i < mh; ++i) {
                float *row = &acc[size_t(i * t.tileN)];
                // Columns [live, nw) lie past row m0 + i: the causal
                // mask overwrites them, so scaling them is wasted.
                const int64_t live = desc.epilogue.causalMask
                    ? std::clamp<int64_t>(m0 + i + 1 - n0, 0, nw)
                    : nw;
                if (desc.epilogue.scale != 1.0) {
                    const float scale = float(desc.epilogue.scale);
                    for (int64_t j = 0; j < live; ++j)
                        row[j] *= scale;
                }
                for (int64_t j = live; j < nw; ++j)
                    row[j] = neg_inf;
                if (desc.epilogue.bias) {
                    const float *bias = ops.bias->data() + n0;
                    for (int64_t j = 0; j < nw; ++j)
                        row[j] += bias[j];
                }
                if (desc.epilogue.gelu)
                    geluSpan(backend, row, row, nw);
                if (!desc.epilogue.localSoftmax)
                    floatToHalf(row, c.rowPtr(m0 + i) + n0, nw);
            }
            if (desc.epilogue.localSoftmax) {
                // One sub-vector per row: the tile's row segment.
                LsTile tile;
                tile.x = acc.data();
                tile.rows = mh;
                tile.width = nw;
                tile.ld = t.tileN;
                tile.subVector = t.tileN;
                tile.xPrime = c.rowPtr(m0) + n0;
                tile.xPrimeLd = n;
                tile.localMax = &ls->localMax->at(m0, tn);
                tile.localSum = &ls->localSum->at(m0, tn);
                tile.mdLd = tiles_n;
                localSoftmaxTile(backend, tile);
                for (int64_t i = 0; i < mh; ++i) {
                    SOFTREC_CHECK(tile.localSum[i * tiles_n] > 0.0f ||
                                  tile.localMax[i * tiles_n] == neg_inf,
                                  "fused LS epilogue (%lld, %lld): "
                                  "d' = %f must be positive unless "
                                  "fully masked",
                                  (long long)(m0 + i), (long long)tn,
                                  double(tile.localSum[i * tiles_n]));
                }
            }
        }
    };

    // Parallel over m-tile strips: each strip owns its buffers and
    // writes disjoint output rows (and disjoint LS rows), so the
    // result is bit-identical for any thread count.
    const int64_t strips = ceilDiv(m, t.tileM);
    parallelFor(ctx, 0, strips, 1, [&](int64_t strip0, int64_t strip1) {
        std::vector<float> abuf(size_t(t.tileM) * size_t(k));
        std::vector<float> acc(size_t(t.tileM * t.tileN));
        for (int64_t strip = strip0; strip < strip1; ++strip) {
            const int64_t m0 = strip * t.tileM;
            if (scope.active()) {
                const uint64_t mh = uint64_t(std::min(t.tileM, m - m0));
                scope.addRead(mh * uint64_t(k) * kFp16Bytes);
                scope.addWrite(mh * uint64_t(n) * kFp16Bytes);
                if (ls_scope) // m'/d' per (row, sub-vector)
                    ls_scope->addWrite(mh * uint64_t(tiles_n) * 2 *
                                       kFp32Bytes);
                if (gs_scope) // r' per (row, incoming sub-vector)
                    gs_scope->addRead(
                        mh * uint64_t(ceilDiv(k, gs_sub)) * kFp32Bytes);
            }
            runStrip(m0, abuf, acc);
        }
    });
}

} // namespace softrec
