/**
 * @file
 * Tests of the dense GEMM kernel: functional correctness against a
 * naive reference (including every epilogue/prologue), and the
 * analytical profile's traffic/FLOP accounting.
 */

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "sim/calibration.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

/** Naive fp32 reference: C = op(A, B) with the same epilogue. */
Tensor<float>
referenceGemm(const GemmDesc &desc, const GemmOperands &ops)
{
    Tensor<float> out(Shape({desc.m, desc.n}));
    for (int64_t i = 0; i < desc.m; ++i) {
        for (int64_t j = 0; j < desc.n; ++j) {
            float acc = 0.0f;
            for (int64_t kk = 0; kk < desc.k; ++kk) {
                float a = float(ops.a->at(i, kk));
                if (desc.prologue.globalScale) {
                    a *= ops.gsFactors->at(
                        i, kk / desc.prologue.gsSubVector);
                }
                const float b = ops.transposeB
                    ? float(ops.b->at(j, kk))
                    : float(ops.b->at(kk, j));
                acc += a * b;
            }
            if (desc.epilogue.scale != 1.0)
                acc *= float(desc.epilogue.scale);
            if (desc.epilogue.causalMask && j > i)
                acc = -std::numeric_limits<float>::infinity();
            if (desc.epilogue.bias)
                acc += ops.bias->at(j);
            if (desc.epilogue.gelu)
                acc = geluApprox(acc);
            out.at(i, j) = acc;
        }
    }
    return out;
}

GemmDesc
smallDesc(int64_t m, int64_t n, int64_t k)
{
    GemmDesc desc;
    desc.m = m;
    desc.n = n;
    desc.k = k;
    desc.tiling.tileM = 16;
    desc.tiling.tileN = 8;
    desc.tiling.tileK = 4;
    return desc;
}

struct MadeOperands
{
    Tensor<Half> a{Shape({1})};
    Tensor<Half> b{Shape({1})};
    Tensor<float> bias{Shape({1})};
};

MadeOperands
makeOperands(const GemmDesc &desc, Rng &rng, bool transpose_b)
{
    MadeOperands made;
    made.a = Tensor<Half>(Shape({desc.m, desc.k}));
    made.b = transpose_b ? Tensor<Half>(Shape({desc.n, desc.k}))
                         : Tensor<Half>(Shape({desc.k, desc.n}));
    made.bias = Tensor<float>(Shape({desc.n}));
    fillNormal(made.a, rng, 0.0, 0.5);
    fillNormal(made.b, rng, 0.0, 0.5);
    for (int64_t j = 0; j < desc.n; ++j)
        made.bias.at(j) = float(rng.normal(0.0, 0.3));
    return made;
}

// gemmRun's thread invariance is pinned by a named test for the
// plain epilogue only (PackedGemm.BitIdenticalAcrossThreadCounts), so
// this suite runs once per ExecMatrix case.
using GemmRun = ExecMatrix;

TEST_P(GemmRun, PlainMatchesReference)
{
    Rng rng(1);
    GemmDesc desc = smallDesc(33, 17, 21); // ragged vs tiles
    MadeOperands made = makeOperands(desc, rng, false);
    GemmOperands ops;
    ops.a = &made.a;
    ops.b = &made.b;
    Tensor<Half> c(Shape({desc.m, desc.n}));
    gemmRun(ctx(), desc, ops, c);
    const Tensor<float> ref = referenceGemm(desc, ops);
    EXPECT_LT(maxAbsDiff(toFloat(c), ref), 0.02);
}

TEST_P(GemmRun, TransposedBMatchesReference)
{
    Rng rng(2);
    GemmDesc desc = smallDesc(24, 24, 16);
    MadeOperands made = makeOperands(desc, rng, true);
    GemmOperands ops;
    ops.a = &made.a;
    ops.b = &made.b;
    ops.transposeB = true;
    Tensor<Half> c(Shape({desc.m, desc.n}));
    gemmRun(ctx(), desc, ops, c);
    EXPECT_LT(maxAbsDiff(toFloat(c), referenceGemm(desc, ops)), 0.02);
}

TEST_P(GemmRun, ScaleMaskBiasGeluEpilogue)
{
    Rng rng(3);
    GemmDesc desc = smallDesc(20, 12, 8);
    desc.epilogue.scale = 0.125;
    desc.epilogue.bias = true;
    desc.epilogue.gelu = true;
    MadeOperands made = makeOperands(desc, rng, false);
    GemmOperands ops;
    ops.a = &made.a;
    ops.b = &made.b;
    ops.bias = &made.bias;
    Tensor<Half> c(Shape({desc.m, desc.n}));
    gemmRun(ctx(), desc, ops, c);
    EXPECT_LT(maxAbsDiff(toFloat(c), referenceGemm(desc, ops)), 0.02);
}

TEST_P(GemmRun, CausalMaskZeroesUpperTriangleAfterSoftmax)
{
    Rng rng(4);
    GemmDesc desc = smallDesc(16, 16, 8);
    desc.epilogue.scale = 0.3;
    desc.epilogue.causalMask = true;
    desc.epilogue.localSoftmax = true;
    desc.tiling.tileN = 8;
    MadeOperands made = makeOperands(desc, rng, true);
    GemmOperands ops;
    ops.a = &made.a;
    ops.b = &made.b;
    ops.transposeB = true;
    Tensor<Half> c(Shape({16, 16}));
    Tensor<float> lmax(Shape({16, 2})), lsum(Shape({16, 2}));
    LsOutputs ls{&lmax, &lsum};
    gemmRun(ctx(), desc, ops, c, &ls);
    // Masked positions produce X' = 0.
    for (int64_t i = 0; i < 16; ++i)
        for (int64_t j = i + 1; j < 16; ++j)
            EXPECT_TRUE(c.at(i, j).isZero()) << i << "," << j;
    // A fully masked sub-vector yields d' = 0.
    EXPECT_EQ(lsum.at(0, 1), 0.0f);
    EXPECT_GT(lsum.at(0, 0), 0.0f); // one unmasked element
}

TEST_P(GemmRun, FusedLsMatchesStandaloneLsKernel)
{
    Rng rng(5);
    GemmDesc desc = smallDesc(32, 32, 16);
    desc.epilogue.scale = 0.25;
    desc.tiling.tileN = 8; // T = 8
    MadeOperands made = makeOperands(desc, rng, true);
    GemmOperands ops;
    ops.a = &made.a;
    ops.b = &made.b;
    ops.transposeB = true;

    // Path 1: plain GEMM then standalone LS.
    Tensor<Half> scores(Shape({32, 32}));
    gemmRun(ctx(), desc, ops, scores);
    SoftmaxShape sub;
    sub.rows = 32;
    sub.cols = 32;
    sub.subVector = 8;
    Tensor<Half> x_ref(Shape({32, 32}));
    Tensor<float> m_ref(Shape({32, 4})), d_ref(Shape({32, 4}));
    lsRun(ctx(), sub, scores, x_ref, m_ref, d_ref);

    // Path 2: fused LS epilogue.
    GemmDesc fused = desc;
    fused.epilogue.localSoftmax = true;
    Tensor<Half> x_fused(Shape({32, 32}));
    Tensor<float> m_fused(Shape({32, 4})), d_fused(Shape({32, 4}));
    LsOutputs ls{&m_fused, &d_fused};
    gemmRun(ctx(), fused, ops, x_fused, &ls);

    // The fused path sees un-rounded fp32 scores, the standalone path
    // fp16-rounded ones; tolerances reflect that single rounding.
    EXPECT_LT(maxAbsDiff(toFloat(x_fused), toFloat(x_ref)), 5e-3);
    EXPECT_LT(maxAbsDiff(m_fused, m_ref), 2e-3);
    EXPECT_LT(maxRelDiff(d_fused, d_ref, 1e-3), 2e-2);
}

TEST_P(GemmRun, GsPrologueMatchesReference)
{
    Rng rng(6);
    GemmDesc desc = smallDesc(16, 12, 32);
    desc.prologue.globalScale = true;
    desc.prologue.gsSubVector = 8;
    MadeOperands made = makeOperands(desc, rng, false);
    Tensor<float> recon(Shape({16, 4}));
    for (int64_t i = 0; i < recon.numel(); ++i)
        recon.at(i) = float(rng.uniform(0.0, 0.2));
    GemmOperands ops;
    ops.a = &made.a;
    ops.b = &made.b;
    ops.gsFactors = &recon;
    Tensor<Half> c(Shape({16, 12}));
    gemmRun(ctx(), desc, ops, c);
    EXPECT_LT(maxAbsDiff(toFloat(c), referenceGemm(desc, ops)), 0.02);
}

TEST_P(GemmRun, ShapeMismatchesPanic)
{
    GemmDesc desc = smallDesc(8, 8, 8);
    Tensor<Half> a(Shape({8, 8})), b(Shape({8, 8})), c(Shape({8, 8}));
    Tensor<Half> bad(Shape({4, 4}));
    GemmOperands ops;
    ops.a = &bad;
    ops.b = &b;
    EXPECT_THROW(gemmRun(ctx(), desc, ops, c), std::logic_error);
    ops.a = &a;
    desc.batch = 2;
    EXPECT_THROW(gemmRun(ctx(), desc, ops, c), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Exec, GemmRun, testing::ValuesIn(execCases()),
                         execCaseName);

// ---------- profile tests ----------

TEST(GemmProfile, GeometryAndFlops)
{
    const GpuSpec spec = GpuSpec::a100();
    GemmDesc desc;
    desc.batch = 16;
    desc.m = 4096;
    desc.n = 4096;
    desc.k = 64;
    desc.shapeClass = GemmShapeClass::Attention;
    const KernelProfile prof = gemmProfile(spec, desc);
    // 32 x 64 tiles per problem, 16 problems.
    EXPECT_EQ(prof.geom.numBlocks, 16 * 32 * 64);
    EXPECT_DOUBLE_EQ(prof.tensorFlops,
                     2.0 * 16 * 4096.0 * 4096.0 * 64.0);
    EXPECT_DOUBLE_EQ(prof.gemmEfficiency, calib::kGemmEffAttention);
    EXPECT_DOUBLE_EQ(prof.fusedPenalty, 1.0);
}

TEST(GemmProfile, TrafficSmallOperandsReadOnce)
{
    const GpuSpec spec = GpuSpec::a100();
    GemmDesc desc;
    desc.batch = 1;
    desc.m = 4096;
    desc.n = 1024;
    desc.k = 1024;
    const KernelProfile prof = gemmProfile(spec, desc);
    // A (8 MiB) and B (2 MiB) both fit in L2: read once each.
    EXPECT_EQ(prof.dramReadBytes,
              uint64_t(4096 * 1024 * 2 + 1024 * 1024 * 2));
    EXPECT_EQ(prof.dramWriteBytes, uint64_t(4096 * 1024 * 2));
}

TEST(GemmProfile, AttentionMatrixLhsReadOnceViaStripReuse)
{
    // The P.V GEMM reads the 512 MiB attention matrix exactly once:
    // its per-tile-row strip fits in L2.
    const GpuSpec spec = GpuSpec::a100();
    GemmDesc desc;
    desc.batch = 16;
    desc.m = 4096;
    desc.n = 64;
    desc.k = 4096;
    desc.shapeClass = GemmShapeClass::Attention;
    const KernelProfile prof = gemmProfile(spec, desc);
    const uint64_t p_bytes = uint64_t(16) * 4096 * 4096 * 2;
    const uint64_t v_bytes = uint64_t(16) * 4096 * 64 * 2;
    EXPECT_EQ(prof.dramReadBytes, p_bytes + v_bytes);
}

TEST(GemmProfile, LsEpilogueAddsIntermediateWrites)
{
    const GpuSpec spec = GpuSpec::a100();
    GemmDesc desc;
    desc.batch = 2;
    desc.m = 1024;
    desc.n = 1024;
    desc.k = 64;
    desc.shapeClass = GemmShapeClass::Attention;
    GemmDesc fused = desc;
    fused.epilogue.localSoftmax = true;
    const uint64_t plain = gemmProfile(spec, desc).dramWriteBytes;
    const uint64_t with_ls = gemmProfile(spec, fused).dramWriteBytes;
    // m' and d': batch * m * (n / tileN) * 2 * 4 bytes.
    EXPECT_EQ(with_ls - plain, uint64_t(2 * 1024 * 16 * 2 * 4));
    // Fused penalty reflects K = 64 amortization.
    EXPECT_NEAR(gemmProfile(spec, fused).fusedPenalty,
                1.0 + calib::kFusedWorkPerElement / 64.0, 1e-12);
}

TEST(GemmProfile, GsPrologueAddsReconFactorReads)
{
    const GpuSpec spec = GpuSpec::a100();
    GemmDesc desc;
    desc.batch = 2;
    desc.m = 1024;
    desc.n = 64;
    desc.k = 1024;
    desc.shapeClass = GemmShapeClass::Attention;
    GemmDesc fused = desc;
    fused.prologue.globalScale = true;
    fused.prologue.gsSubVector = 64;
    const uint64_t plain = gemmProfile(spec, desc).dramReadBytes;
    const uint64_t with_gs = gemmProfile(spec, fused).dramReadBytes;
    EXPECT_EQ(with_gs - plain, uint64_t(2 * 1024 * 16 * 4));
    EXPECT_NEAR(gemmProfile(spec, fused).fusedPenalty,
                1.0 + calib::kFusedWorkPerElement / 64.0, 1e-12);
}

TEST(GemmProfile, EfficiencyClasses)
{
    EXPECT_DOUBLE_EQ(gemmEfficiencyOf(GemmShapeClass::LargeFc),
                     calib::kGemmEffLargeFc);
    EXPECT_DOUBLE_EQ(gemmEfficiencyOf(GemmShapeClass::Attention),
                     calib::kGemmEffAttention);
    EXPECT_DOUBLE_EQ(gemmEfficiencyOf(GemmShapeClass::AttentionWide),
                     calib::kGemmEffAttentionWide);
    EXPECT_DOUBLE_EQ(gemmEfficiencyOf(GemmShapeClass::BlockSparse),
                     calib::kGemmEffBlockSparse);
}

TEST(GemmProfile, EmptyProblemPanics)
{
    GemmDesc desc;
    desc.m = 0;
    desc.n = 8;
    desc.k = 8;
    EXPECT_THROW(gemmProfile(GpuSpec::a100(), desc), std::logic_error);
}

TEST(Gelu, KnownValues)
{
    EXPECT_NEAR(geluApprox(0.0f), 0.0f, 1e-7);
    EXPECT_NEAR(geluApprox(1.0f), 0.8412f, 1e-3);
    EXPECT_NEAR(geluApprox(-1.0f), -0.1588f, 1e-3);
    EXPECT_NEAR(geluApprox(10.0f), 10.0f, 1e-3);
    EXPECT_NEAR(geluApprox(-10.0f), 0.0f, 1e-3);
}

} // namespace
} // namespace softrec
