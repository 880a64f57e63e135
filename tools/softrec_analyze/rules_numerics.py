"""Numerics rules migrated from the original softrec_lint: the
softmax-recomposition pipeline is only useful if every rewrite of it
stays numerically safe and deterministic."""

import re

from registry import register

# The libm reference math the kernel tests compare against: exp() here
# is always of the form exp(x - m) with m the running/local/global max.
RAW_EXP_ALLOWED_FILES = {
    "src/core/softmax_math.cpp",
    "src/core/attention_exec.cpp",
}

# Kernels have no allow-listed file: every exp and tanh goes through
# the one exp primitive (fp16/simd_math.hpp).
LIBM_EXP_BANNED_DIRS = ("src/kernels/",)

# The seeded deterministic generator lives here.
RNG_ALLOWED_FILES = {
    "src/common/rng.cpp",
    "src/common/rng.hpp",
}

# The storage type itself may convert however it needs to.
HALF_NARROW_ALLOWED_DIRS = ("src/fp16/",)
HALF_LOOP_CONV_DIRS = ("src/kernels/",)

RAW_EXP_RE = re.compile(r"(?<![\w.:])(?:std::)?expf?\s*\(")
LIBM_EXP_TANH_RE = re.compile(
    r"(?<![\w.:])(?:std::)?(?:expf?|tanhf?)\s*\(")
HALF_NARROW_RE = re.compile(
    r"static_cast<\s*Half\s*>|\(\s*Half\s*\)\s*[\w(]")
# Per-element conversions the batch span routines replace: widening an
# element access to float, calling toFloat() on one element, or
# narrowing one element through the Half(...) constructor.
HALF_LOOP_CONV_RE = re.compile(
    r"\bfloat\s*\(\s*[^()]*(?:\.|->)\s*at\s*\("
    r"|(?:\.|->)\s*toFloat\s*\(\s*\)"
    r"|=\s*Half\s*\(\s*[^)]")
RNG_RE = re.compile(
    r"(?<![\w:])s?rand\s*\(|std::random_device|std::mt19937"
    r"|std::default_random_engine|#\s*include\s*<random>")


@register(
    "raw-exp", "error",
    "bare exp() outside the reference softmax; any libm exp/tanh in "
    "src/kernels/",
    "exp() on attention logits overflows for logits > ~88 (fp32) or "
    "~11 (fp16); it is only safe inside the reference safe-softmax "
    "math that subtracts a running max first. Kernels call libm exp "
    "or tanh nowhere: expSpan/maxSpan/tanhSpan (fp16/simd_math.hpp) "
    "are the one vectorized exp, bit-identical across SIMD backends, "
    "that keeps decode bit-identical to prefill.")
def check_raw_exp(src, ctx):
    if src.rel_path.startswith(LIBM_EXP_BANNED_DIRS):
        for lineno, code in enumerate(src.code_lines, start=1):
            if LIBM_EXP_TANH_RE.search(code):
                yield lineno, ("libm exp/tanh in a kernel; use "
                               "expSpan/tanhSpan (fp16/simd_math.hpp)")
        return
    if src.rel_path in RAW_EXP_ALLOWED_FILES:
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if RAW_EXP_RE.search(code):
            yield lineno, None


@register(
    "half-narrow", "error",
    "hidden float->Half narrowing cast",
    "float -> Half narrowing must be spelled with the explicit "
    "Half(...) constructor so the rounding step is visible; casts "
    "that hide it are confined to src/fp16/.")
def check_half_narrow(src, ctx):
    if src.rel_path.startswith(HALF_NARROW_ALLOWED_DIRS):
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if HALF_NARROW_RE.search(code):
            yield lineno, None


@register(
    "half-loop-conv", "error",
    "per-element Half conversion inside a loop in src/kernels/",
    "kernels must not convert Half elements one at a time inside a "
    "loop; stage the row once with the batch halfToFloat/floatToHalf "
    "span conversions, which dispatch to the SIMD backends.")
def check_half_loop_conv(src, ctx):
    if not src.rel_path.startswith(HALF_LOOP_CONV_DIRS):
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if src.in_loop[lineno] and HALF_LOOP_CONV_RE.search(code):
            yield lineno, None


@register(
    "unseeded-rng", "error",
    "non-deterministic or unseeded RNG",
    "all randomness flows through softrec::Rng (common/rng), which is "
    "seeded and cross-platform deterministic; rand()/<random> would "
    "silently break run-to-run reproducibility.")
def check_unseeded_rng(src, ctx):
    if src.rel_path in RNG_ALLOWED_FILES:
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if RNG_RE.search(code):
            yield lineno, None
