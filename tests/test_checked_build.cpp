/**
 * @file
 * Proof that the checked-build layer actually fires.
 *
 * This target is compiled with SOFTREC_CHECKED_BUILD forced on (see
 * tests/CMakeLists.txt), independent of the configure-time option, so
 * every build configuration verifies that out-of-bounds accesses, NaN
 * poison, and recomposition-invariant violations trip SOFTREC_CHECK
 * rather than silently corrupting results. The header-level checks
 * (Tensor accessors, the checkXxx helpers) instantiate in
 * this translation unit with checks active; library-internal call
 * sites are exercised by running the full suite under the `checked`
 * and `asan-ubsan` presets (scripts/ci.sh).
 */

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/exec_context.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "tensor/tensor.hpp"

namespace softrec {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(CheckedBuild, MacroIsActiveInThisTranslationUnit)
{
    ASSERT_TRUE(kCheckedBuild)
        << "test_checked_build must compile with SOFTREC_CHECKED_BUILD";
    EXPECT_THROW(SOFTREC_CHECK(1 == 2, "forced failure %d", 42),
                 std::logic_error);
    SOFTREC_CHECK(1 == 1, "must not fire");
}

TEST(CheckedBuild, TensorBoundsFire)
{
    Tensor<float> t(Shape({2, 3}));
    EXPECT_THROW(t.at(6), std::logic_error);
    EXPECT_THROW(t.at(-1), std::logic_error);
    EXPECT_THROW(t.at(2, 0), std::logic_error);
    EXPECT_THROW(t.at(0, 3), std::logic_error);
    EXPECT_THROW(t.at(0, 0, 0), std::logic_error); // wrong rank
    // In-range access stays untouched.
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t.at(5), 7.0f);
}

TEST(CheckedBuild, NanPoisonFires)
{
    Tensor<float> t(Shape({2, 2}), 1.0f);
    checkFinite(t, "clean tensor"); // must not fire
    t.at(1, 1) = kNan;
    EXPECT_THROW(checkFinite(t, "poisoned tensor"), std::logic_error);
}

TEST(CheckedBuild, PositiveInfinityFires)
{
    Tensor<float> t(Shape({4}), 0.0f);
    t.at(2) = kInf;
    EXPECT_THROW(checkFinite(t, "inf tensor"), std::logic_error);
}

TEST(CheckedBuild, NegativeInfinityIsLegalMaskPadding)
{
    Tensor<float> logits(Shape({4}), 0.0f);
    logits.at(3) = -kInf;
    checkFinite(logits, "masked logits", /*allow_neg_inf=*/true);
    EXPECT_THROW(checkFinite(logits, "masked logits rejected"),
                 std::logic_error);
}

TEST(CheckedBuild, RowSumInvariantFires)
{
    Tensor<Half> y(Shape({2, 4}));
    for (int64_t j = 0; j < 4; ++j)
        y.at(0, j) = Half(0.25f); // proper probability row
    // Row 1 stays all-zero: legal (fully masked).
    checkRowSumsNearOne(y, "good rows");

    y.at(1, 0) = Half(0.5f); // row 1 now sums to 0.5
    EXPECT_THROW(checkRowSumsNearOne(y, "bad row"), std::logic_error);
}

TEST(CheckedBuild, ReconFactorInvariantFires)
{
    Tensor<float> r(Shape({2, 2}), 0.5f);
    r.at(0, 1) = 0.0f; // masked sub-vector: legal
    checkReconFactors(r, "good factors");

    r.at(1, 0) = 1.5f; // above 1: corrupted IR
    EXPECT_THROW(checkReconFactors(r, "bad factor"), std::logic_error);
    r.at(1, 0) = -0.1f;
    EXPECT_THROW(checkReconFactors(r, "negative factor"),
                 std::logic_error);
    r.at(1, 0) = kNan;
    EXPECT_THROW(checkReconFactors(r, "NaN factor"), std::logic_error);
}

TEST(CheckedBuild, SpanViewAdapterWorks)
{
    std::vector<float> v{0.25f, 0.75f};
    checkFinite(spanOf(v), "clean span");
    v[1] = kNan;
    EXPECT_THROW(checkFinite(spanOf(v), "poisoned span"),
                 std::logic_error);
}

TEST(CheckedBuild, FusedLsCheckReadsEverySegmentOfAWideTile)
{
    // The fused LS epilogue checks d' > 0 (or a fully masked m') for
    // every T-wide segment of a tile, not only its first: a 64-column
    // tile of four T = 16 segments whose last segment scores +inf has
    // m' = +inf and d' = NaN there, and the check must name that
    // segment. The check lives in the library, so it fires only when
    // the library is built checked (the checked and asan-ubsan
    // presets).
    if (!SOFTREC_LIBRARY_CHECKED)
        GTEST_SKIP() << "library built without SOFTREC_CHECKED_BUILD";
    GemmDesc desc;
    desc.name = "checked.qk";
    desc.m = 16;
    desc.n = 64;
    desc.k = 8;
    desc.tiling.tileM = 16;
    desc.tiling.tileN = 64;
    desc.epilogue.scale = 0.25;
    desc.epilogue.localSoftmax = true;
    desc.epilogue.lsSubVector = 16;
    Tensor<Half> q(Shape({desc.m, desc.k}), Half(1.0f));
    Tensor<Half> k(Shape({desc.n, desc.k}), Half(0.5f));
    Tensor<Half> x_prime(Shape({desc.m, desc.n}));
    Tensor<float> local_max(Shape({desc.m, 4})), local_sum(local_max.shape());
    LsOutputs ls{&local_max, &local_sum};
    GemmOperands ops;
    ops.a = &q;
    ops.b = &k;
    ops.transposeB = true;
    gemmRun(ExecContext(), desc, ops, x_prime, &ls); // clean: no throw

    for (int64_t j = 48; j < 64; ++j)
        k.at(j, 0) = Half::infinity();
    std::string message;
    try {
        gemmRun(ExecContext(), desc, ops, x_prime, &ls);
    } catch (const std::logic_error &err) {
        message = err.what();
    }
    EXPECT_NE(message.find("segment 3"), std::string::npos)
        << "message: '" << message << "'";
}

TEST(CheckedBuild, RecompositionPipelineRunsCleanUnderChecks)
{
    // The LS -> IR -> GS pipeline on a masked input must pass every
    // invariant (d > 0 on unmasked rows, r' in (0, 1], row sums ~1).
    SoftmaxShape desc;
    desc.name = "checked.pipeline";
    desc.batch = 1;
    desc.rows = 8;
    desc.cols = 32;
    desc.subVector = 8;

    Tensor<Half> in(Shape({desc.rows, desc.cols}));
    for (int64_t i = 0; i < desc.rows; ++i) {
        for (int64_t j = 0; j < desc.cols; ++j) {
            const bool masked = (i + j) % 7 == 0;
            in.at(i, j) = Half(masked ? -kInf
                                      : 0.1f * float(j - i));
        }
    }
    Tensor<Half> x_prime(in.shape());
    Tensor<float> local_max(Shape({desc.rows, desc.numSubVectors()}));
    Tensor<float> local_sum(Shape({desc.rows, desc.numSubVectors()}));
    Tensor<float> recon(Shape({desc.rows, desc.numSubVectors()}));
    Tensor<Half> y(in.shape());

    lsRun(ExecContext(), desc, in, x_prime, local_max, local_sum);
    irRun(ExecContext(), desc, local_max, local_sum, recon);
    gsRun(ExecContext(), desc, x_prime, recon, y);

    checkReconFactors(recon, "pipeline r'");
    checkRowSumsNearOne(y, "pipeline output");
}

} // namespace
} // namespace softrec
