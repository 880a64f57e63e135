/**
 * @file
 * Dense GEMM kernel with the outer-product dataflow of Fig. 3(b), plus
 * the fused epilogues/prologues that softmax recomposition needs:
 *
 *  - epilogue: scale, causal mask, bias, GeLU (one epilogueTile pass,
 *    fp16/simd_math.hpp), and Local Softmax (LS) — the paper's fusion
 *    of the first decomposed softmax sub-layer into the preceding
 *    MatMul (Section 3.3);
 *  - prologue: Global Scaling (GS) applied while loading the LHS
 *    operand — the fusion of the last sub-layer into the following
 *    MatMul.
 *
 * Each kernel exposes (a) an analytical launch profile for the GPU
 * cost model and (b) a functional CPU implementation that mirrors the
 * tiled dataflow exactly (fp32 accumulation, fp16 storage), used by the
 * tests and examples.
 */

#ifndef SOFTREC_KERNELS_GEMM_HPP
#define SOFTREC_KERNELS_GEMM_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_context.hpp"
#include "common/profiler.hpp"
#include "fp16/half.hpp"
#include "kernels/kernel_common.hpp"
#include "sim/kernel_profile.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** GEMM efficiency classes (see calibration.hpp for the values). */
enum class GemmShapeClass {
    LargeFc,        //!< big FC/FF GEMMs, N/K >= 1024
    Attention,      //!< thin QK^T / P.V GEMMs with D_head = 64
    AttentionWide,  //!< attention GEMMs with D_head >= 128
    BlockSparse,    //!< block-sparse SDD/DSD GEMMs
};

/** Tensor-core efficiency of a shape class. */
double gemmEfficiencyOf(GemmShapeClass shape_class);

/** Element-wise work appended after the GEMM mainloop. */
struct GemmEpilogue
{
    double scale = 1.0;        //!< multiply outputs (1/sqrt(D_head))
    bool causalMask = false;   //!< mask j > i to -inf before softmax
    bool bias = false;         //!< add a per-column bias vector
    bool gelu = false;         //!< GeLU activation (FF first GEMM)
    bool localSoftmax = false; //!< fused LS sub-layer (SDF)
    /**
     * Segment width T of the fused LS, the twin of
     * GemmPrologue::gsSubVector; 0 means tiling.tileN (one segment per
     * tile row, the GPU dataflow, where a thread block owns one T-wide
     * tile). A CPU tile may hold several segments: tileN must then be
     * a multiple of it.
     */
    int64_t lsSubVector = 0;

    /** True if any epilogue work is configured. */
    bool any() const
    {
        return scale != 1.0 || causalMask || bias || gelu ||
               localSoftmax;
    }
};

/** Element-wise work applied while loading the LHS operand. */
struct GemmPrologue
{
    bool globalScale = false; //!< fused GS sub-layer (SDF)
    /** Sub-vector width T the incoming X' was produced with. */
    int64_t gsSubVector = 64;
    /**
     * A[i][j] is +0 for every j > i (causal softmax probabilities or
     * X'), so row i reads only A columns [0, min(k, i + 1)). Leaves
     * the result bits unchanged while B is finite; the modeled
     * traffic and FLOPs stay causal-oblivious.
     */
    bool causalA = false;
};

/** Full description of one (possibly batched) GEMM launch. */
struct GemmDesc
{
    std::string name = "gemm";
    KernelCategory category = KernelCategory::Fc;
    int64_t batch = 1; //!< independent problems (batch x heads)
    int64_t m = 0;     //!< output rows
    int64_t n = 0;     //!< output columns
    int64_t k = 0;     //!< inner dimension
    GemmShapeClass shapeClass = GemmShapeClass::LargeFc;
    GemmTiling tiling;
    GemmEpilogue epilogue;
    GemmPrologue prologue;
    /** Max/mean work per TB (1.0 for dense). */
    double workImbalance = 1.0;

    /** The fused LS's segment width T: lsSubVector, or tileN. */
    int64_t
    lsWidth() const
    {
        return epilogue.lsSubVector > 0 ? epilogue.lsSubVector
                                        : tiling.tileN;
    }
};

/**
 * Analytical launch profile of the GEMM on a given GPU: geometry,
 * DRAM traffic under the L2 reuse rule, and arithmetic work.
 */
KernelProfile gemmProfile(const GpuSpec &spec, const GemmDesc &desc);

/** Per-sub-vector outputs of a fused LS epilogue (T = lsWidth()). */
struct LsOutputs
{
    /** Local maxima m', shape [m, ceil(n / T)]. */
    Tensor<float> *localMax = nullptr;
    /** Local normalizers d', shape [m, ceil(n / T)]. */
    Tensor<float> *localSum = nullptr;
};

/** Operands of a functional (2-D, batch = 1) GEMM execution. */
struct GemmOperands
{
    const Tensor<Half> *a = nullptr; //!< [m, k]
    const Tensor<Half> *b = nullptr; //!< [k, n], or [n, k] transposed
    bool transposeB = false;         //!< Q.K^T convention
    const Tensor<float> *bias = nullptr; //!< [n], fp32
    /** GS factors r', shape [m, ceil(k / gsSubVector)], fp32. */
    const Tensor<float> *gsFactors = nullptr;
};

/**
 * The profiler accounting of one GEMM: its unique operand bytes go to
 * `scope` (B and the bias once per packing, A rows in and C rows out
 * per strip), and the fused LS/GS extras to the BytesOnly scopes
 * "softmax.ls.fused" (m'/d') and "softmax.gs.fused" (r'), so the
 * softmax layer's traffic sums per strategy without counting GEMM time
 * twice. Inert when no profiler is attached.
 */
class GemmTraffic
{
  public:
    GemmTraffic(const ExecContext &ctx, const GemmDesc &desc,
                prof::Scope &scope);
    GemmTraffic(const GemmTraffic &) = delete;
    GemmTraffic &operator=(const GemmTraffic &) = delete;

    /** Credit B (and the bias), once per packed B. */
    void addPacked();
    /**
     * Credit one strip of `rows` output rows over n output columns
     * and k inner columns (fewer than the desc's on a block-sparse
     * strip).
     */
    void addStrip(int64_t rows, int64_t n, int64_t k);

    prof::Scope &scope; //!< the GEMM's own row

  private:
    const GemmDesc &desc_;
    std::optional<prof::Scope> ls_, gs_;
};

/**
 * Floats a buffer holds beyond its contents, so that the contents can
 * start at the first 64-byte boundary inside it (alignedFloats).
 */
constexpr int64_t kAlignSlack = 15;

/** The first 64-byte boundary at or after p, a float pointer. */
inline float *
alignedFloats(float *p)
{
    return reinterpret_cast<float *>(
        (reinterpret_cast<uintptr_t>(p) + 63) & ~uintptr_t(63));
}

/**
 * Pack B (ops.b, honouring ops.transposeB) into the layout
 * gemmRunStrip streams: one fp32 panel per n-tile, [k][tileN], tail
 * columns of a ragged last tile zero-padded (they contribute exact
 * zeros and are never stored). `panels` is resized, reusing its
 * capacity, to ceil(n / tileN) * k * tileN + kAlignSlack floats, and
 * the panels start at the returned 64-byte boundary inside it. Credits
 * B to `traffic` and times itself as a segment of its scope.
 */
[[nodiscard]] const float *gemmPackB(const GemmDesc &desc,
                                     const GemmOperands &ops,
                                     std::vector<float> &panels,
                                     GemmTraffic &traffic);

/**
 * One m-tile strip of a GEMM's output, addressed strip-relative: row i
 * of the strip is global output row row0 + i, read from a + i * lda
 * and written to c + i * ldc (and its GS factors, m' and d' likewise).
 */
struct GemmStrip
{
    /**
     * Global index of the strip's first row. The causal mask and the
     * causal-A diagonal count from it, so a strip buffer holding rows
     * row0.. gets the bits of those rows of the whole GEMM.
     */
    int64_t row0 = 0;
    int64_t rows = 0; //!< 1 .. tiling.tileM
    const Half *a = nullptr; //!< first A row, k elements used
    int64_t lda = 0;
    /** First row of the GS factors r' (GS prologue only). */
    const float *gsFactors = nullptr;
    int64_t gsLd = 0;
    Half *c = nullptr; //!< first C row, n elements written
    int64_t ldc = 0;
    /** First row of m' and d', one per T-wide segment (LS only). */
    float *localMax = nullptr;
    float *localSum = nullptr;
    int64_t mdLd = 0;
    /**
     * Block-sparse strip: when set, the strip multiplies only the
     * blockCount blocks of B listed here (ascending), packed one after
     * another. With kBlock == 0 block b is n-tile b, and the j-th
     * listed one fills C columns [j * tileN, (j + 1) * tileN) and the
     * m'/d' segments of those columns. With kBlock > 0 block b is B
     * rows [b * kBlock, (b + 1) * kBlock), read by A columns
     * [j * kBlock, (j + 1) * kBlock); each output element stays one
     * chain, ascending over the listed blocks. No causal mask or
     * causal A applies.
     */
    const int64_t *blocks = nullptr;
    int64_t blockCount = 0;
    int64_t kBlock = 0;
};

/**
 * Per-caller scratch of gemmRunStrip; it only ever grows. Each buffer
 * keeps kAlignSlack spare floats, so its contents start on a 64-byte
 * boundary.
 */
struct GemmScratch
{
    std::vector<float> a;   //!< the strip's fp32 A rows, at aRows()
    std::vector<float> acc; //!< one fp32 output tile, at tile()

    /** Grow to what gemmRunStrip needs for any strip of `desc`. */
    void reserve(const GemmDesc &desc);
    float *aRows() { return alignedFloats(a.data()); }
    float *tile() { return alignedFloats(acc.data()); }
};

/**
 * Run one strip of a GEMM: the mainloop and epilogue of every n-tile
 * of rows [row0, row0 + rows), over B panels from gemmPackB of the
 * same desc. This is the only GEMM body; gemmRun is gemmPackB plus
 * this over parallel strips, and attention runs it strip by strip
 * between its softmax stages. `bias` is the [n] fp32 bias when
 * epilogue.bias is set. Each tile's scale, mask, bias and GeLU run in
 * one epilogueTile call (fp16/simd_math.hpp), which also narrows a
 * plain tile into C; a fused-LS tile then goes to localSoftmaxTile.
 * Credits the strip to `traffic` and times itself as a segment of
 * its scope.
 */
void gemmRunStrip(SimdBackend backend, const GemmDesc &desc,
                  const float *panels, const float *bias,
                  const GemmStrip &strip, GemmScratch &scratch,
                  GemmTraffic &traffic);

/**
 * n-tile width for a GEMM whose tileN only blocks the CPU loop. Under
 * Avx512 a narrower `configured` width is raised to 64 columns, the
 * AVX-512 tile's widest register block, but not past n rounded up to
 * 16; every other backend keeps `configured`. Every width gives the
 * same bits. A fused-LS GEMM can take it too, rounded down to a
 * multiple of its segment width (epilogue.lsSubVector).
 */
int64_t gemmFreeTileN(SimdBackend backend, int64_t configured, int64_t n);

/**
 * Functional tiled GEMM, faithful to the modeled dataflow: fp16
 * operands, fp32 tile accumulators, epilogue applied per output tile
 * (a fused LS cuts each tile row into lsWidth()-column sub-vectors),
 * results rounded to fp16 on store. Parallelizes over m-tile strips; each
 * worker slot keeps one scratch (A rows and accumulator tile) for the
 * strips it runs, and every strip writes disjoint output rows, so
 * results are bit-identical for any thread count. Every output
 * element is one k-ascending fma chain from +0 (fmaGemmTile in
 * kernels/fma_dot.hpp: AVX-512 register blocks under Avx512, AVX2
 * ones under F16cAvx2, the portable body otherwise, with identical
 * bits); with fp16 A and B
 * that equals a mul+add loop bit for bit. A causal tile that
 * is masked everywhere skips the mainloop and stores the bits its
 * epilogue would (-inf, or under LS X' = +0, m' = -inf, d' = +0); a
 * causal-A prologue stops each row's k loop at the diagonal. Profiler
 * byte counters report the full modeled operands either way. It is
 * gemmPackB followed by gemmRunStrip over each m-tile strip.
 *
 * @param ctx execution context (serial when default-constructed)
 * @param desc launch description (batch must be 1)
 * @param ops operand tensors
 * @param c output, shape [m, n]
 * @param ls destination for m'/d' when epilogue.localSoftmax is set
 */
void gemmRun(const ExecContext &ctx, const GemmDesc &desc,
             const GemmOperands &ops, Tensor<Half> &c,
             const LsOutputs *ls = nullptr);

/** One-element geluSpan (fp16/simd_math.hpp), exposed for tests. */
float geluApprox(float x);

} // namespace softrec

#endif // SOFTREC_KERNELS_GEMM_HPP
