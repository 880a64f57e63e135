"""SIMD hygiene rule.

A function compiled with ``__attribute__((target("avx...")))`` leaves
the upper halves of the YMM registers dirty when it returns unless it
clears them. GCC does not always emit VZEROUPPER on such exits (the
tail-call case in src/fp16/half.cpp), and the dirty state then
imposes false-dependency stalls on every SSE instruction the caller
runs next, libm's expf included. The rule makes the clear explicit.
"""

import re

from registry import register

ATTRIBUTE_RE = re.compile(r"\b__attribute__\s*\(\(\s*target\s*\(")
# Strings are blanked in the code channel, so the target list is read
# from the raw line once the code channel has confirmed the attribute.
# Any feature of the list may be the AVX one: target("fma,avx2") too.
AVX_TARGET_RE = re.compile(r'\btarget\s*\(\s*"(?:[^"]*,)?\s*avx')
ZEROUPPER_RE = re.compile(r"\b_mm256_zeroupper\s*\(\s*\)")
# Lines above a definition that still belong to its declarator: the
# scan stops at a blank line or the end of the previous statement.
DECL_END_RE = re.compile(r"[;{}]\s*$")


def _has_avx_target(src, def_line):
    lineno = def_line
    while lineno >= 1:
        code = src.code_lines[lineno - 1]
        if lineno != def_line and (code.strip() == "" or
                                   DECL_END_RE.search(code)):
            return False
        if ATTRIBUTE_RE.search(code) and \
                AVX_TARGET_RE.search(src.raw_lines[lineno - 1]):
            return True
        lineno -= 1
    return False


@register(
    "avx-zeroupper", "error",
    "target(\"...avx...\") function without _mm256_zeroupper()",
    "a function whose target(...) list names an avx feature must call "
    "_mm256_zeroupper() before it returns to baseline-ISA code: "
    "without it the dirty YMM upper state stalls every following "
    "SSE or libm call. Clear it after the last 256-bit instruction.")
def check_avx_zeroupper(src, ctx):
    for _name, def_line, first, last in src.functions:
        if not _has_avx_target(src, def_line):
            continue
        body = src.code_lines[first - 1:last]
        if not any(ZEROUPPER_RE.search(code) for code in body):
            yield def_line, None
