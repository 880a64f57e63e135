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
        writes += uint64_t(desc.m * ceilDiv(desc.n, desc.lsWidth())) * 2 *
                  kFp32Bytes;
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

float
geluApprox(float x)
{
    float y;
    geluSpan(SimdBackend::Scalar, &x, &y, 1);
    return y;
}

GemmTraffic::GemmTraffic(const ExecContext &ctx, const GemmDesc &desc,
                         prof::Scope &scope)
    : scope(scope), desc_(desc)
{
    if (!scope.active())
        return;
    if (desc.epilogue.localSoftmax)
        ls_.emplace(ctx, "softmax.ls.fused", prof::Scope::Kind::BytesOnly);
    if (desc.prologue.globalScale)
        gs_.emplace(ctx, "softmax.gs.fused", prof::Scope::Kind::BytesOnly);
}

void
GemmTraffic::addPacked()
{
    if (!scope.active())
        return;
    uint64_t reads = uint64_t(desc_.k * desc_.n) * kFp16Bytes;
    if (desc_.epilogue.bias)
        reads += uint64_t(desc_.n) * kFp32Bytes;
    scope.addRead(reads);
}

void
GemmTraffic::addStrip(int64_t rows, int64_t n, int64_t k)
{
    if (!scope.active())
        return;
    const uint64_t mh = uint64_t(rows);
    scope.addRead(mh * uint64_t(k) * kFp16Bytes);
    scope.addWrite(mh * uint64_t(n) * kFp16Bytes);
    if (ls_) // m'/d' per (row, sub-vector)
        ls_->addWrite(mh * uint64_t(ceilDiv(n, desc_.lsWidth())) * 2 *
                      kFp32Bytes);
    if (gs_) // r' per (row, incoming sub-vector)
        gs_->addRead(mh * uint64_t(ceilDiv(k, desc_.prologue.gsSubVector)) *
                     kFp32Bytes);
}

const float *
gemmPackB(const GemmDesc &desc, const GemmOperands &ops,
          std::vector<float> &panels, GemmTraffic &traffic)
{
    const int64_t n = desc.n, k = desc.k, tile_n = desc.tiling.tileN;
    const int64_t tiles_n = ceilDiv(n, tile_n);
    const Shape expect_b =
        ops.transposeB ? Shape({n, k}) : Shape({k, n});
    SOFTREC_ASSERT(ops.b && ops.b->shape() == expect_b,
                   "B shape %s unexpected (%s)",
                   ops.b ? ops.b->shape().toString().c_str() : "null",
                   desc.name.c_str());
    prof::Segment segment(traffic.scope);
    traffic.addPacked();
    // Packing hoists the transposeB branch and every B-side conversion
    // out of the mainloop: each B element is converted once, not once
    // per consuming output row.
    panels.assign(size_t(tiles_n) * size_t(k) * size_t(tile_n) +
                      size_t(kAlignSlack),
                  0.0f);
    float *packed = alignedFloats(panels.data());
    if (!ops.transposeB) {
        // B is [k, n]: each row feeds one contiguous strip per panel.
        for (int64_t kk = 0; kk < k; ++kk) {
            const Half *brow = ops.b->rowPtr(kk);
            for (int64_t tn = 0; tn < tiles_n; ++tn) {
                const int64_t n0 = tn * tile_n;
                halfToFloat(brow + n0, packed + (tn * k + kk) * tile_n,
                            std::min(tile_n, n - n0));
            }
        }
    } else {
        // B is [n, k]: convert each row in chunks, scatter each chunk
        // down its panel column.
        constexpr int64_t kChunk = 256;
        float staged[kChunk];
        for (int64_t j = 0; j < n; ++j) {
            float *column = packed + (j / tile_n) * k * tile_n + j % tile_n;
            for (int64_t k0 = 0; k0 < k; k0 += kChunk) {
                const int64_t w = std::min(kChunk, k - k0);
                halfToFloat(ops.b->rowPtr(j) + k0, staged, w);
                for (int64_t kk = 0; kk < w; ++kk)
                    column[(k0 + kk) * tile_n] = staged[kk];
            }
        }
    }
    return packed;
}

void
GemmScratch::reserve(const GemmDesc &desc)
{
    const GemmTiling &t = desc.tiling;
    if (a.size() < size_t(t.tileM * desc.k + kAlignSlack))
        a.resize(size_t(t.tileM * desc.k + kAlignSlack));
    if (acc.size() < size_t(t.tileM * t.tileN + kAlignSlack))
        acc.resize(size_t(t.tileM * t.tileN + kAlignSlack));
}

void
gemmRunStrip(SimdBackend backend, const GemmDesc &desc,
             const float *panels, const float *bias,
             const GemmStrip &strip, GemmScratch &scratch,
             GemmTraffic &traffic)
{
    const int64_t n = desc.n, k = desc.k;
    const GemmTiling &t = desc.tiling;
    const int64_t m0 = strip.row0, mh = strip.rows;
    SOFTREC_ASSERT(mh >= 1 && mh <= t.tileM,
                   "strip of %lld rows outside [1, tileM] (%s)",
                   (long long)mh, desc.name.c_str());
    // A block-sparse strip runs only its listed n-tiles, or reads only
    // its listed k blocks, packed one after another.
    const bool n_blocks = strip.blocks != nullptr && strip.kBlock == 0;
    const bool k_blocks = strip.blocks != nullptr && strip.kBlock > 0;
    SOFTREC_ASSERT(strip.blocks == nullptr ||
                       (!desc.epilogue.causalMask && !desc.prologue.causalA),
                   "block-sparse strips take no causal mask (%s)",
                   desc.name.c_str());
    const int64_t tiles_n = n_blocks ? strip.blockCount : ceilDiv(n, t.tileN);
    const int64_t k_live = k_blocks ? strip.blockCount * strip.kBlock : k;
    // The fused LS cuts each tile row into seg-wide segments; C column
    // c holds segment c / seg of m' and d'.
    const bool ls = desc.epilogue.localSoftmax;
    const int64_t seg = desc.lsWidth();
    SOFTREC_ASSERT(!ls || t.tileN % seg == 0,
                   "LS segment width %lld does not divide tileN %lld (%s)",
                   (long long)seg, (long long)t.tileN, desc.name.c_str());
    const int64_t gs_sub = desc.prologue.gsSubVector;
    const float neg_inf = -std::numeric_limits<float>::infinity();
    prof::Segment segment(traffic.scope);
    traffic.addStrip(mh, n_blocks ? tiles_n * t.tileN : n, k_live);
    scratch.reserve(desc);
    float *abuf = scratch.aRows();
    float *acc = scratch.tile();

    // The strip's A rows are converted (and GS-scaled) once into abuf;
    // every n-tile below reuses those fp32 rows.
    // Diagonal stop: with a causal A, row m0 + i is +0 past column
    // m0 + i, so the strip reads only columns [0, kd) and each row only
    // its own [0, m0 + i + 1). A skipped term would be +0 times a
    // finite B, i.e. +-0, which leaves the +0-seeded accumulator's bits
    // unchanged; the kept terms keep their k-ascending order.
    const bool causal_a = desc.prologue.causalA;
    const int64_t kd = causal_a ? std::min(k, m0 + mh) : k_live;
    const int64_t diag = causal_a ? m0 : kd;
    for (int64_t i = 0; i < mh; ++i) {
        const int64_t depth = std::min(kd, diag + i + 1);
        float *arow = abuf + i * kd;
        if (desc.prologue.globalScale)
            halfToFloatScaled(backend, strip.a + i * strip.lda, arow, depth,
                              strip.gsFactors + i * strip.gsLd, gs_sub);
        else
            halfToFloat(strip.a + i * strip.lda, arow, depth);
    }
    for (int64_t j = 0; j < tiles_n; ++j) {
        // n-tile tn covers columns [n0, n0 + nw) of the GEMM; C stores
        // it at column c0, m' and d' at segments [s0, s0 + segs).
        const int64_t tn = n_blocks ? strip.blocks[j] : j;
        const int64_t n0 = tn * t.tileN, c0 = j * t.tileN;
        const int64_t nw = std::min(t.tileN, n - n0);
        const int64_t s0 = c0 / seg, segs = ceilDiv(nw, seg);
        // A causal tile whose first column lies past its last row is
        // masked everywhere: its epilogue would only write -inf, or
        // under LS m' = -inf, d' = +0 and X' = +0 (the LS tile's fully
        // masked segment), so those bits are stored directly and the
        // mainloop is skipped.
        if (desc.epilogue.causalMask && n0 > m0 + mh - 1) {
            const Half fill = ls ? Half() : -Half::infinity();
            for (int64_t i = 0; i < mh; ++i) {
                Half *crow = strip.c + i * strip.ldc + c0;
                std::fill(crow, crow + nw, fill);
                if (ls) {
                    float *md = strip.localMax + i * strip.mdLd + s0;
                    std::fill(md, md + segs, neg_inf);
                    md = strip.localSum + i * strip.mdLd + s0;
                    std::fill(md, md + segs, 0.0f);
                }
            }
            continue;
        }
        // Each element is one k-ascending fma chain from +0. A and B
        // are widened fp16, so every product is exact in fp32 and the
        // chain has the bits of a mul+add loop; only the GS prologue's
        // fp32 A (X'.r') rounds once per step where a mul+add would
        // round twice.
        std::fill(acc, acc + mh * t.tileN, 0.0f);
        const float *panel =
            panels + size_t(tn) * size_t(k) * size_t(t.tileN);
        if (k_blocks) {
            // One call per listed block continues the chains, so they
            // stay k-ascending over the strip's packed A columns.
            const int64_t kb = strip.kBlock;
            for (int64_t b = 0; b < strip.blockCount; ++b)
                fmaGemmTile(backend, abuf + b * kb, kd,
                            panel + size_t(strip.blocks[b] * kb * t.tileN),
                            acc, mh, kb, kb, t.tileN);
        } else {
            fmaGemmTile(backend, abuf, kd, panel, acc, mh, kd, diag,
                        t.tileN);
        }

        // Epilogue on the fp32 tile: every element goes through scale,
        // mask, bias and GeLU in that order and is narrowed into C. A
        // fused-LS tile instead hands its scale and mask to the LS,
        // which applies them as it reads the tile. Each tile row holds
        // segs segments, the last one ragged when seg does not divide
        // nw.
        if (!ls) {
            EpilogueTile epilogue;
            epilogue.acc = acc;
            epilogue.rows = mh;
            epilogue.width = nw;
            epilogue.ld = t.tileN;
            epilogue.scale = float(desc.epilogue.scale);
            epilogue.causal = desc.epilogue.causalMask;
            epilogue.diagonal = m0 - n0;
            epilogue.bias = desc.epilogue.bias ? bias + n0 : nullptr;
            epilogue.gelu = desc.epilogue.gelu;
            epilogue.out = strip.c + c0;
            epilogue.outLd = strip.ldc;
            epilogueTile(backend, epilogue);
            continue;
        }
        LsTile tile;
        tile.x = acc;
        tile.rows = mh;
        tile.width = nw;
        tile.ld = t.tileN;
        tile.scale = float(desc.epilogue.scale);
        tile.causal = desc.epilogue.causalMask;
        tile.diagonal = m0 - n0;
        tile.subVector = seg;
        tile.xPrime = strip.c + c0;
        tile.xPrimeLd = strip.ldc;
        tile.localMax = strip.localMax + s0;
        tile.localSum = strip.localSum + s0;
        tile.mdLd = strip.mdLd;
        localSoftmaxTile(backend, tile);
        for (int64_t i = 0; i < mh; ++i) {
            for (int64_t sv = 0; sv < segs; ++sv) {
                const int64_t at = i * strip.mdLd + sv;
                SOFTREC_CHECK(tile.localSum[at] > 0.0f ||
                                  tile.localMax[at] == neg_inf,
                              "fused LS epilogue (row %lld, segment %lld): "
                              "d' = %f must be positive unless fully "
                              "masked",
                              (long long)(m0 + i), (long long)(s0 + sv),
                              double(tile.localSum[at]));
            }
        }
    }
}

int64_t
gemmFreeTileN(SimdBackend backend, int64_t configured, int64_t n)
{
    if (backend != SimdBackend::Avx512)
        return configured;
    return std::max(configured, std::min<int64_t>(64, ceilDiv(n, 16) * 16));
}

void
gemmRun(const ExecContext &ctx, const GemmDesc &desc,
        const GemmOperands &ops, Tensor<Half> &c, const LsOutputs *ls)
{
    prof::Scope scope(ctx, desc.name.c_str());
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional GEMM handles one batch item; loop "
                   "outside (%s)", desc.name.c_str());
    SOFTREC_ASSERT(ops.a && ops.b, "GEMM operands missing");
    const int64_t m = desc.m, n = desc.n, k = desc.k;
    SOFTREC_ASSERT(ops.a->shape() == Shape({m, k}),
                   "A shape %s != [m, k]",
                   ops.a->shape().toString().c_str());
    SOFTREC_ASSERT(c.shape() == Shape({m, n}), "C shape %s != [m, n]",
                   c.shape().toString().c_str());
    if (desc.epilogue.bias) {
        SOFTREC_ASSERT(ops.bias && ops.bias->shape() == Shape({n}),
                       "bias missing or misshaped");
    }
    SOFTREC_ASSERT(!(desc.epilogue.causalMask ||
                     desc.epilogue.localSoftmax) ||
                       (!desc.epilogue.bias && !desc.epilogue.gelu),
                   "causal mask and LS are QK^T epilogues; they take no "
                   "bias or GeLU (%s)", desc.name.c_str());
    const int64_t gs_sub = desc.prologue.gsSubVector;
    if (desc.prologue.globalScale) {
        SOFTREC_ASSERT(ops.gsFactors &&
                       ops.gsFactors->shape() ==
                           Shape({m, ceilDiv(k, gs_sub)}),
                       "GS factors missing or misshaped");
    }
    const GemmTiling &t = desc.tiling;
    const int64_t segments = ceilDiv(n, desc.lsWidth());
    if (desc.epilogue.localSoftmax) {
        SOFTREC_ASSERT(ls && ls->localMax && ls->localSum,
                       "LS outputs missing");
        SOFTREC_ASSERT(ls->localMax->shape() == Shape({m, segments}) &&
                       ls->localSum->shape() == Shape({m, segments}),
                       "LS output shapes must be [m, ceil(n / T)]");
    }

    // Unique-operand traffic accounting: B (and bias) are credited
    // once when packed on the submitting thread; per-strip A reads and
    // C writes are credited by whichever thread runs the strip.
    GemmTraffic traffic(ctx, desc, scope);
    std::vector<float> panels;
    const float *packed = gemmPackB(desc, ops, panels, traffic);

    // Every backend's GEMM tile, like its exp path, produces the same
    // bits, so the backend only changes speed. Read it once so one
    // call never mixes paths.
    const SimdBackend backend = simdBackend();
    const float *bias = desc.epilogue.bias ? ops.bias->data() : nullptr;

    // Parallel over m-tile strips: each strip writes disjoint output
    // rows (and disjoint LS rows), so the result is bit-identical for
    // any thread count. Each worker slot keeps one scratch for the
    // call, which every strip it runs reuses.
    const int64_t strips = ceilDiv(m, t.tileM);
    std::vector<GemmScratch> scratches(
        static_cast<size_t>(maxThreadSlots()));
    parallelFor(ctx, 0, strips, 1, [&](int64_t strip0, int64_t strip1) {
        GemmScratch &scratch = scratches[size_t(currentThreadSlot())];
        for (int64_t s = strip0; s < strip1; ++s) {
            GemmStrip strip;
            strip.row0 = s * t.tileM;
            strip.rows = std::min(t.tileM, m - strip.row0);
            strip.a = ops.a->rowPtr(strip.row0);
            strip.lda = k;
            if (desc.prologue.globalScale) {
                strip.gsFactors = ops.gsFactors->rowPtr(strip.row0);
                strip.gsLd = ceilDiv(k, gs_sub);
            }
            strip.c = c.rowPtr(strip.row0);
            strip.ldc = n;
            if (desc.epilogue.localSoftmax) {
                strip.localMax = ls->localMax->rowPtr(strip.row0);
                strip.localSum = ls->localSum->rowPtr(strip.row0);
                strip.mdLd = segments;
            }
            gemmRunStrip(backend, desc, packed, bias, strip, scratch,
                         traffic);
        }
    });
}

} // namespace softrec
