/**
 * @file
 * End-to-end functional equivalence of the three strategies: dense and
 * block-sparse attention must produce the same output under Baseline,
 * SD, and SDF (up to fp16 rounding), and match a double-precision
 * reference; a reused AttentionWorkspace gives the bits of a fresh
 * run; the strip loop of dense attention gives the bits of the
 * whole-matrix kernel composition it is built from; and each block row
 * of a sparse head gives the bits of dense attention over its gathered
 * keys.
 */

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"

namespace softrec {
namespace {

AttentionInputs
randomInputs(const SdaConfig &config, uint64_t seed)
{
    AttentionInputs inputs = makeAttentionInputs(config);
    Rng rng(seed);
    fillNormal(inputs.q, rng, 0.0, 0.8);
    fillNormal(inputs.k, rng, 0.0, 0.8);
    fillNormal(inputs.v, rng, 0.0, 0.8);
    return inputs;
}

/** Attention outputs are O(1); compare with a small absolute bound. */
constexpr double kTol = 2.5e-2;

class DenseStrategies
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, bool>>
{};

TEST_P(DenseStrategies, AllMatchDoubleReference)
{
    const auto [L, t, causal] = GetParam();
    SdaConfig config;
    config.seqLen = L;
    config.dHead = 32;
    config.subVector = t;
    config.causalMask = causal;
    config.attnTiling.tileM = 32;
    config.attnTiling.tileN = t;
    config.attnTiling.tileK = 16;
    const AttentionInputs inputs =
        randomInputs(config, uint64_t(L * 31 + t + causal));

    const Tensor<float> reference =
        referenceDenseAttention(config, inputs);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> out =
            runAttention(ExecContext(), config, inputs, strategy);
        EXPECT_LT(maxAbsDiff(toFloat(out), reference), kTol)
            << strategyName(strategy) << " L=" << L << " t=" << t
            << " causal=" << causal;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DenseStrategies,
    ::testing::Combine(::testing::Values(64, 128, 192),
                       ::testing::Values(16, 32, 64),
                       ::testing::Bool()));

TEST(DenseStrategies, PairwiseAgreement)
{
    SdaConfig config;
    config.seqLen = 96;
    config.dHead = 16;
    config.subVector = 32;
    config.attnTiling.tileM = 32;
    config.attnTiling.tileN = 32;
    config.attnTiling.tileK = 16;
    const AttentionInputs inputs = randomInputs(config, 7);

    const auto baseline = toFloat(
        runAttention(ExecContext(), config, inputs, Strategy::Baseline));
    const auto sd = toFloat(
        runAttention(ExecContext(), config, inputs, Strategy::Decomposed));
    const auto sdf =
        toFloat(runAttention(ExecContext(), config, inputs, Strategy::Fused));
    EXPECT_LT(maxAbsDiff(baseline, sd), kTol);
    EXPECT_LT(maxAbsDiff(baseline, sdf), kTol);
    EXPECT_LT(maxAbsDiff(sd, sdf), kTol);
}

TEST(DenseStrategies, CausalFirstRowAttendsOnlyToItself)
{
    SdaConfig config;
    config.seqLen = 64;
    config.dHead = 16;
    config.causalMask = true;
    config.subVector = 16;
    config.attnTiling.tileM = 16;
    config.attnTiling.tileN = 16;
    config.attnTiling.tileK = 16;
    const AttentionInputs inputs = randomInputs(config, 8);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> out =
            runAttention(ExecContext(), config, inputs, strategy);
        // Row 0 sees only token 0, so output row 0 = V row 0.
        for (int64_t d = 0; d < config.dHead; ++d) {
            EXPECT_NEAR(float(out.at(0, d)),
                        float(inputs.v.at(0, d)), 5e-3)
                << strategyName(strategy);
        }
    }
}

TEST(DenseStrategies, ReusedWorkspaceMatchesFreshRuns)
{
    // One workspace and one output tensor carried across calls whose
    // L grows and shrinks: the intermediates keep stale values from
    // longer calls, which no kernel may read, so every call must give
    // the bits of a fresh runAttention, serially and on a pool (whose
    // worker slots each keep their own strip buffers).
    ThreadPool pool(4);
    ExecContext pooled;
    pooled.pool = &pool;
    for (const ExecContext &ctx : {ExecContext(), pooled}) {
        for (const bool causal : {false, true}) {
            for (Strategy strategy : allStrategies()) {
                AttentionWorkspace ws;
                Tensor<Half> out;
                for (const int64_t L : {40, 97, 17, 64, 97, 5}) {
                    SdaConfig config;
                    config.seqLen = L;
                    config.dHead = 16;
                    config.causalMask = causal;
                    config.subVector = 16;
                    config.attnTiling.tileM = 16;
                    config.attnTiling.tileN = 16;
                    const AttentionInputs inputs =
                        randomInputs(config, uint64_t(L + 7 * causal));
                    runAttention(ctx, config, inputs, strategy, ws, out);
                    const Tensor<Half> fresh =
                        runAttention(ctx, config, inputs, strategy);
                    ASSERT_EQ(out.shape(), fresh.shape());
                    for (int64_t i = 0; i < fresh.numel(); ++i)
                        ASSERT_EQ(out.data()[i].bits(),
                                  fresh.data()[i].bits())
                            << strategyName(strategy) << " L=" << L
                            << " causal=" << causal
                            << " threads=" << ctx.threads()
                            << " elem=" << i;
                }
            }
        }
    }
}

/**
 * Dense attention as whole-matrix kernels, each stage over all L rows
 * before the next: gemmRun -> rowSoftmaxRun -> gemmRun (Baseline),
 * gemmRun -> lsRun -> irRun -> gsRun -> gemmRun (SD), and gemmRun with
 * the LS epilogue -> irRun -> gemmRun with the GS prologue (SDF).
 * runAttention runs the same stages strip by strip.
 */
Tensor<Half>
wholeMatrixAttention(const ExecContext &ctx, const SdaConfig &config,
                     const AttentionInputs &inputs, Strategy strategy)
{
    const int64_t L = config.seqLen, kv = config.keyLen();
    const bool fused = strategy == Strategy::Fused;
    GemmDesc qk;
    qk.m = L;
    qk.n = kv;
    qk.k = config.dHead;
    qk.tiling = config.attnTiling;
    if (fused)
        qk.tiling.tileN = config.subVector;
    qk.epilogue.scale = config.scale();
    qk.epilogue.causalMask = config.causalMask;
    qk.epilogue.localSoftmax = fused;
    GemmOperands qk_ops;
    qk_ops.a = &inputs.q;
    qk_ops.b = &inputs.k;
    qk_ops.transposeB = true;

    SoftmaxShape sub;
    sub.rows = L;
    sub.cols = kv;
    sub.subVector = config.subVector;
    sub.causal = config.causalMask;
    const Shape md({L, ceilDiv(kv, config.subVector)});

    GemmDesc av;
    av.m = L;
    av.n = config.dHead;
    av.k = kv;
    av.tiling = config.attnTiling;
    av.prologue.causalA = config.causalMask;
    av.prologue.globalScale = fused;
    av.prologue.gsSubVector = config.subVector;
    GemmOperands av_ops;
    av_ops.b = &inputs.v;

    Tensor<Half> scores(Shape({L, kv})), probs(Shape({L, kv}));
    Tensor<Half> x_prime(Shape({L, kv}));
    Tensor<float> local_max(md), local_sum(md), recon(md);
    switch (strategy) {
      case Strategy::Baseline:
        gemmRun(ctx, qk, qk_ops, scores);
        rowSoftmaxRun(ctx, sub, scores, probs);
        av_ops.a = &probs;
        break;
      case Strategy::Decomposed:
        gemmRun(ctx, qk, qk_ops, scores);
        lsRun(ctx, sub, scores, x_prime, local_max, local_sum);
        irRun(ctx, sub, local_max, local_sum, recon);
        gsRun(ctx, sub, x_prime, recon, probs);
        av_ops.a = &probs;
        break;
      case Strategy::Fused: {
        LsOutputs ls{&local_max, &local_sum};
        gemmRun(ctx, qk, qk_ops, x_prime, &ls);
        irRun(ctx, sub, local_max, local_sum, recon);
        av_ops.a = &x_prime;
        av_ops.gsFactors = &recon;
        break;
      }
    }
    Tensor<Half> out(Shape({L, config.dHead}));
    gemmRun(ctx, av, av_ops, out);
    return out;
}

void
expectSameBits(const Tensor<Half> &got, const Tensor<Half> &want,
               const std::string &what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (int64_t i = 0; i < want.numel(); ++i)
        ASSERT_EQ(got.data()[i].bits(), want.data()[i].bits())
            << what << " elem=" << i;
}

/**
 * Serial, or on a 4-thread pool: a test parameter, so a sanitizer run
 * can pick the pooled cases (serial runs start no threads).
 */
std::string
contextName(bool pooled)
{
    return pooled ? "pooled" : "serial";
}

/** Sequence length, causal mask, sub-vector width T, pooled. */
using StripLoopParam = std::tuple<int64_t, bool, int64_t, bool>;

class StripLoop : public ::testing::TestWithParam<StripLoopParam>
{};

std::string
stripLoopName(const ::testing::TestParamInfo<StripLoopParam> &info)
{
    const auto &[L, causal, sub, pooled] = info.param;
    return "L" + std::to_string(L) + (causal ? "_causal" : "_full") +
           "_T" + std::to_string(sub) + "_" + contextName(pooled);
}

TEST_P(StripLoop, EqualsWholeMatrixComposition)
{
    const auto [L, causal, sub, pooled] = GetParam();
    SdaConfig config;
    config.seqLen = L;
    config.dHead = 32;
    config.subVector = sub;
    config.causalMask = causal;
    config.attnTiling.tileM = 16;
    config.attnTiling.tileN = 16;
    const AttentionInputs inputs =
        randomInputs(config, uint64_t(L * 5 + causal));
    std::optional<ThreadPool> pool;
    ExecContext ctx;
    if (pooled)
        ctx.pool = &pool.emplace(4);
    const SimdBackend initial = simdBackend();
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> want =
            wholeMatrixAttention(ExecContext(), config, inputs, strategy);
        for (const SimdBackend backend : availableSimdBackends()) {
            setSimdBackend(backend);
            expectSameBits(runAttention(ctx, config, inputs, strategy), want,
                           std::string(strategyName(strategy)) +
                               " simd=" + simdBackendName(backend));
        }
        setSimdBackend(initial);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, StripLoop,
    ::testing::Combine(::testing::Values(1, 15, 16, 17, 77, 1000),
                       ::testing::Bool(), ::testing::Values(16, 32),
                       ::testing::Bool()),
    stripLoopName);

TEST(StripLoop, GemmStripFromAnyFirstRowMatchesWholeGemm)
{
    // Three GEMMs of the layer: causal QK^T with the fused LS
    // epilogue, causal P.V with the GS prologue, and a projection with
    // bias and GeLU. A strip whose A/C/m'/d'/r' buffers start at
    // global row r0 must reproduce rows r0.. of gemmRun bit for bit,
    // aligned to tileM or not.
    const int64_t m = 45, n = 40, k = 24;
    Rng rng(21);
    Tensor<Half> a(Shape({m, k})), bt(Shape({n, k})), b(Shape({k, n}));
    fillNormal(a, rng, 0.0, 0.8);
    fillNormal(bt, rng, 0.0, 0.8);
    fillNormal(b, rng, 0.0, 0.8);
    Tensor<float> bias(Shape({n}));
    fillNormal(bias, rng);
    GemmDesc qk;
    qk.m = m;
    qk.n = n;
    qk.k = k;
    qk.tiling.tileM = 16;
    qk.tiling.tileN = 8;
    qk.epilogue.scale = 0.25;
    qk.epilogue.causalMask = true;
    qk.epilogue.localSoftmax = true;
    // P.V-shaped: A is [m, m] with +0 past the diagonal.
    Tensor<Half> p(Shape({m, m}));
    fillNormal(p, rng, 0.0, 0.5);
    for (int64_t i = 0; i < m; ++i)
        std::fill(p.rowPtr(i) + i + 1, p.rowPtr(i) + m, Half());
    Tensor<Half> v(Shape({m, n}));
    fillNormal(v, rng);
    const int64_t gs_sub = 8;
    Tensor<float> gs(Shape({m, ceilDiv(m, gs_sub)}));
    fillNormal(gs, rng, 0.5, 0.1);
    GemmDesc av;
    av.m = m;
    av.n = n;
    av.k = m;
    av.tiling.tileM = 16;
    av.tiling.tileN = 16;
    av.prologue.causalA = true;
    av.prologue.globalScale = true;
    av.prologue.gsSubVector = gs_sub;
    GemmDesc fc;
    fc.m = m;
    fc.n = n;
    fc.k = k;
    fc.tiling.tileM = 16;
    fc.tiling.tileN = 16;
    fc.epilogue.bias = true;
    fc.epilogue.gelu = true;

    struct Case
    {
        const GemmDesc *desc;
        GemmOperands ops;
    } cases[3];
    cases[0] = {&qk, {}};
    cases[0].ops.a = &a;
    cases[0].ops.b = &bt;
    cases[0].ops.transposeB = true;
    cases[1] = {&av, {}};
    cases[1].ops.a = &p;
    cases[1].ops.b = &v;
    cases[1].ops.gsFactors = &gs;
    cases[2] = {&fc, {}};
    cases[2].ops.a = &a;
    cases[2].ops.b = &b;
    cases[2].ops.bias = &bias;

    for (const Case &c : cases) {
        const GemmDesc &desc = *c.desc;
        const int64_t tiles_n = ceilDiv(desc.n, desc.tiling.tileN);
        Tensor<Half> whole(Shape({desc.m, desc.n}));
        Tensor<float> lmax(Shape({desc.m, tiles_n}));
        Tensor<float> lsum(Shape({desc.m, tiles_n}));
        LsOutputs ls{&lmax, &lsum};
        gemmRun(ExecContext(), desc, c.ops, whole, &ls);

        prof::Scope scope(ExecContext(), "test.strip");
        GemmTraffic traffic(ExecContext(), desc, scope);
        std::vector<float> panels;
        const float *packed = gemmPackB(desc, c.ops, panels, traffic);
        GemmScratch scratch;
        for (const int64_t r0 : {int64_t(0), int64_t(5), int64_t(16),
                                 int64_t(29), int64_t(40)}) {
            const int64_t rows = std::min(desc.tiling.tileM, desc.m - r0);
            // Strip-local copies, so the strip reads nothing but its
            // own rows.
            std::vector<Half> a_rows(c.ops.a->rowPtr(r0),
                                     c.ops.a->rowPtr(r0) + rows * desc.k);
            std::vector<float> gs_rows;
            GemmStrip strip;
            strip.row0 = r0;
            strip.rows = rows;
            strip.a = a_rows.data();
            strip.lda = desc.k;
            if (desc.prologue.globalScale) {
                const int64_t w = c.ops.gsFactors->shape().dim(1);
                gs_rows.assign(c.ops.gsFactors->rowPtr(r0),
                               c.ops.gsFactors->rowPtr(r0) + rows * w);
                strip.gsFactors = gs_rows.data();
                strip.gsLd = w;
            }
            std::vector<Half> c_rows(size_t(rows * desc.n));
            std::vector<float> m_rows(size_t(rows * tiles_n));
            std::vector<float> d_rows(size_t(rows * tiles_n));
            strip.c = c_rows.data();
            strip.ldc = desc.n;
            strip.localMax = m_rows.data();
            strip.localSum = d_rows.data();
            strip.mdLd = tiles_n;
            gemmRunStrip(simdBackend(), desc, packed,
                         c.ops.bias ? c.ops.bias->data() : nullptr,
                         strip, scratch, traffic);
            for (int64_t i = 0; i < rows; ++i) {
                for (int64_t j = 0; j < desc.n; ++j)
                    ASSERT_EQ(c_rows[size_t(i * desc.n + j)].bits(),
                              whole.at(r0 + i, j).bits())
                        << desc.name << " r0=" << r0 << " row=" << i
                        << " col=" << j;
                if (!desc.epilogue.localSoftmax)
                    continue;
                for (int64_t t = 0; t < tiles_n; ++t) {
                    ASSERT_EQ(m_rows[size_t(i * tiles_n + t)],
                              lmax.at(r0 + i, t)) << "r0=" << r0;
                    ASSERT_EQ(d_rows[size_t(i * tiles_n + t)],
                              lsum.at(r0 + i, t)) << "r0=" << r0;
                }
            }
        }
    }
}

TEST(StripLoop, RowSoftmaxFromAnyFirstRowMatchesWholeMatrix)
{
    // Causal scores with -inf past the diagonal, as QK^T stores them:
    // a strip of rows r0.. with firstRow = r0 must give the bits of
    // those rows of the whole-matrix kernel.
    const int64_t rows = 50, cols = 50;
    Rng rng(31);
    Tensor<Half> scores(Shape({rows, cols}));
    fillNormal(scores, rng, 0.0, 2.0);
    for (int64_t i = 0; i < rows; ++i)
        std::fill(scores.rowPtr(i) + i + 1, scores.rowPtr(i) + cols,
                  -Half::infinity());
    for (const bool causal : {false, true}) {
        SoftmaxShape whole;
        whole.rows = rows;
        whole.cols = cols;
        whole.causal = causal;
        Tensor<Half> want(scores.shape());
        rowSoftmaxRun(ExecContext(), whole, scores, want);
        for (const int64_t r0 : {int64_t(0), int64_t(7), int64_t(16),
                                 int64_t(33), int64_t(49)}) {
            const int64_t n = std::min<int64_t>(16, rows - r0);
            Tensor<Half> in(Shape({n, cols})), out(Shape({n, cols}));
            std::copy(scores.rowPtr(r0), scores.rowPtr(r0) + n * cols,
                      in.data());
            SoftmaxShape strip = whole;
            strip.rows = n;
            strip.firstRow = r0;
            rowSoftmaxRun(ExecContext(), strip, in, out);
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < cols; ++j)
                    ASSERT_EQ(out.at(i, j).bits(), want.at(r0 + i, j).bits())
                        << "causal=" << causal << " r0=" << r0
                        << " row=" << i << " col=" << j;
        }
    }
}

class SparseStrategies : public ::testing::TestWithParam<int>
{};

TEST_P(SparseStrategies, AllMatchSparseReference)
{
    BigBirdParams params;
    params.blockSize = 16;
    params.windowBlocks = 1;
    params.globalBlocks = 1;
    params.randomBlocks = 1;
    params.seed = uint64_t(GetParam());
    const BsrLayout layout = bigBirdPattern(128, params);

    SdaConfig config;
    config.seqLen = 128;
    config.dHead = 16;
    config.layout = &layout;
    config.subVector = 16;
    const AttentionInputs inputs =
        randomInputs(config, uint64_t(GetParam()) + 100);

    const Tensor<float> reference =
        referenceSparseAttention(config, inputs);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> out =
            runAttention(ExecContext(), config, inputs, strategy);
        EXPECT_LT(maxAbsDiff(toFloat(out), reference), kTol)
            << strategyName(strategy) << " seed=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseStrategies,
                         ::testing::Values(1, 2, 3));

TEST(SparseStrategies, LongformerLayoutToo)
{
    LongformerParams params;
    params.blockSize = 16;
    params.windowTokens = 64;
    params.globalBlocks = 1;
    const BsrLayout layout = longformerPattern(160, params);

    SdaConfig config;
    config.seqLen = 160;
    config.dHead = 8;
    config.layout = &layout;
    config.subVector = 16;
    const AttentionInputs inputs = randomInputs(config, 55);
    const Tensor<float> reference =
        referenceSparseAttention(config, inputs);
    for (Strategy strategy : allStrategies()) {
        EXPECT_LT(maxAbsDiff(toFloat(runAttention(ExecContext(),
                                 config, inputs, strategy)),
                             reference),
                  kTol)
            << strategyName(strategy);
    }
}

TEST(SparseStrategies, DenseLayoutReproducesDenseAttention)
{
    // A fully dense "sparse" layout gives the dense path's bits.
    const BsrLayout layout = densePattern(64, 16);
    SdaConfig sparse;
    sparse.seqLen = 64;
    sparse.dHead = 16;
    sparse.layout = &layout;
    sparse.subVector = 16;
    SdaConfig dense = sparse;
    dense.layout = nullptr;
    dense.attnTiling.tileM = 16;
    dense.attnTiling.tileN = 16;
    dense.attnTiling.tileK = 16;
    const AttentionInputs inputs = randomInputs(sparse, 77);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> from_sparse =
            runAttention(ExecContext(), sparse, inputs, strategy);
        const Tensor<Half> from_dense =
            runAttention(ExecContext(), dense, inputs, strategy);
        for (int64_t i = 0; i < from_dense.numel(); ++i)
            ASSERT_EQ(from_sparse.data()[i].bits(),
                      from_dense.data()[i].bits())
                << strategyName(strategy) << " elem=" << i;
    }
}

TEST(SparseStrategies, CausalMaskWithLayoutIsFatal)
{
    // A layout encodes its own mask (causalWindowPattern); a causal
    // mask on top of one is rejected, not silently ignored.
    const BsrLayout layout = causalWindowPattern(64, 16, 1);
    SdaConfig config;
    config.seqLen = 64;
    config.dHead = 16;
    config.layout = &layout;
    config.subVector = 16;
    config.causalMask = true;
    const AttentionInputs inputs = randomInputs(config, 78);
    for (Strategy strategy : allStrategies())
        EXPECT_THROW(runAttention(ExecContext(), config, inputs, strategy),
                     std::runtime_error)
            << strategyName(strategy);
}

/**
 * Dense attention of one block row: its bs query rows against the
 * keys and values of its column blocks, gathered in layout order.
 */
Tensor<Half>
gatheredBlockRow(const ExecContext &ctx, const SdaConfig &config,
                 const AttentionInputs &inputs, Strategy strategy,
                 int64_t block_row)
{
    const BsrLayout &layout = *config.layout;
    const int64_t bs = layout.blockSize(), dh = config.dHead;
    const int64_t count = layout.rowNnzBlocks(block_row);
    SdaConfig dense = config;
    dense.layout = nullptr;
    dense.seqLen = bs;
    dense.kvLen = count * bs;
    dense.subVector = bs;
    AttentionInputs gathered = makeAttentionInputs(dense);
    std::copy(inputs.q.rowPtr(block_row * bs),
              inputs.q.rowPtr(block_row * bs) + bs * dh,
              gathered.q.data());
    for (int64_t j = 0; j < count; ++j) {
        const int64_t key0 = layout.rowBlockCols(block_row)[j] * bs;
        std::copy(inputs.k.rowPtr(key0), inputs.k.rowPtr(key0) + bs * dh,
                  gathered.k.rowPtr(j * bs));
        std::copy(inputs.v.rowPtr(key0), inputs.v.rowPtr(key0) + bs * dh,
                  gathered.v.rowPtr(j * bs));
    }
    return runAttention(ctx, dense, gathered, strategy);
}

class SparseStrip : public ::testing::TestWithParam<bool>
{};

TEST_P(SparseStrip, EqualsGatheredDense)
{
    // A block-sparse head runs the dense strip loop over each block
    // row's column blocks, so every block row has the bits of dense
    // attention over its gathered keys: for every strategy, layout
    // family and block size, with strips as tall as a block row or
    // shorter than one (ragged), on every available SIMD backend;
    // serial or on a pool, by the test parameter.
    std::optional<ThreadPool> pool;
    ExecContext ctx;
    if (GetParam())
        ctx.pool = &pool.emplace(4);
    for (const int64_t bs : {16, 32, 64}) {
        const std::pair<const char *, BsrLayout> layouts[] = {
            {"bigbird", bigBirdPattern(8 * bs, BigBirdParams{bs, 3, 1, 2,
                                                             uint64_t(bs)})},
            {"longformer",
             longformerPattern(10 * bs, LongformerParams{bs, 2 * bs, 1})},
            {"causal-window", causalWindowPattern(8 * bs, bs, 2)},
        };
        for (const auto &[name, layout] : layouts) {
            SdaConfig config;
            config.seqLen = layout.rows();
            config.dHead = 32;
            config.layout = &layout;
            config.subVector = bs;
            const AttentionInputs inputs = randomInputs(config, uint64_t(bs));
            const std::pair<int64_t, int64_t> tilings[] = {{128, 64},
                                                           {24, 16}};
            for (const auto &[tile_m, tile_n] : tilings) {
                config.attnTiling.tileM = tile_m;
                config.attnTiling.tileN = tile_n;
                for (const SimdBackend backend : availableSimdBackends()) {
                    const SimdBackend saved = setSimdBackend(backend);
                    for (Strategy strategy : allStrategies()) {
                        const Tensor<Half> out =
                            runAttention(ctx, config, inputs, strategy);
                        for (int64_t br = 0; br < layout.blockRows(); ++br) {
                            const Tensor<Half> want = gatheredBlockRow(
                                ctx, config, inputs, strategy, br);
                            for (int64_t i = 0; i < want.numel(); ++i)
                                ASSERT_EQ(out.rowPtr(br * bs)[i].bits(),
                                          want.data()[i].bits())
                                    << name << " bs=" << bs << " "
                                    << strategyName(strategy)
                                    << " tileM=" << tile_m
                                    << " backend=" << simdBackendName(backend)
                                    << " block row " << br << " elem " << i;
                        }
                    }
                    setSimdBackend(saved);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Contexts, SparseStrip, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return contextName(info.param);
                         });

} // namespace
} // namespace softrec
