"""Hot-path allocation rule.

The paper's recomposition argument (and the operation-fusion traffic
argument it rests on) only holds if the measured hot path is doing
arithmetic, not hitting the allocator: a malloc inside a kernel loop
or a decode step shows up as noise in the traffic counters and as a
lock in the allocator under threads. PR 5 made the KV path
slab-allocated; this rule keeps the whole steady-state decode path
that way as the serving engine grows.
"""

import re

from registry import register

KERNEL_DIRS = ("src/kernels/",)

# Functions on the per-token decode path, plus attendOwnRows, whose
# per-head attention buffers come from the step workspace: their whole
# bodies must be allocation-free (setup that genuinely runs once per
# step is annotated allow() at the site, with the reason). The prefill and
# finish helpers around
# ServeEngine::serveStep are deliberately NOT here: they are the
# documented amortized-allocation boundary (workspace construction,
# batch recomposition) that keeps these bodies clean.
HOT_FUNCTIONS = {
    "decodeAttendRun",          # src/kernels/decode_attention.cpp
    "runDecodeStepInto",        # src/model/decode.cpp
    "runLayer",                 # src/model/decode.cpp, layer body
    "attendOwnRows",            # src/model/decode.cpp, prefill heads
    "ServeEngine::serveStep",   # src/serve/serve_engine.cpp
}

# Allocation constructs: operator new, C allocators, smart-pointer
# factories, container growth, and sized container/tensor
# construction. (`std::vector<T> v;` and `Tensor<T> t;` are fine —
# default construction does not allocate.)
ALLOC_RE = re.compile(
    r"\bnew\b"
    r"|\b(?:malloc|calloc|realloc|aligned_alloc|strdup)\s*\("
    r"|\bstd::make_(?:unique|shared)\b"
    r"|\.(?:resize|reserve|push_back|emplace_back|insert|emplace)"
    r"\s*\("
    r"|\b(?:std::vector|std::string|std::deque|std::map|"
    r"std::unordered_map|Tensor)\s*<[^;=()]*>\s+"
    r"[A-Za-z_]\w*\s*[({]"
    r"|=\s*(?:std::vector|Tensor)\s*<[^;>]*>\s*\(\s*[^)\s]")


def _hot_function_lines(src):
    lines = set()
    for name, _def_line, first, last in src.functions:
        if name in HOT_FUNCTIONS:
            lines.update(range(first, last + 1))
    return lines


@register(
    "hot-path-alloc", "error",
    "allocation on the kernel/decode hot path",
    "no new/malloc/container growth (a) inside loop bodies or "
    "parallelFor lambdas in src/kernels/, or (b) anywhere in the "
    "per-token decode functions (decodeAttendRun, runDecodeStepInto, "
    "runLayer, attendOwnRows, ServeEngine::serveStep). Stage into "
    "pre-sized buffers, reuse a workspace (DecodeAttendWorkspace / "
    "AttentionWorkspace / DecodeStepWorkspace), or "
    "hoist the allocation out of the steady state; per-chunk staging "
    "that is deliberately amortized lives in the baseline with its "
    "justification.")
def check_hot_path_alloc(src, ctx):
    in_kernels = src.rel_path.startswith(KERNEL_DIRS)
    hot_lines = _hot_function_lines(src) \
        if src.rel_path.endswith(".cpp") else set()
    if not in_kernels and not hot_lines:
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        hot = lineno in hot_lines or \
            (in_kernels and (src.in_loop[lineno] or
                             src.in_pfor[lineno]))
        if hot and ALLOC_RE.search(code):
            yield lineno, None


SERVE_DIRS = ("src/serve/",)

# A checked element accessor inside a loop body: each call re-derives
# the row pointer and re-checks bounds, turning what should be one
# std::copy/rowPtr into width * (bounds check + index arithmetic).
# ServeEngine::prefillSlot shipped exactly this copy loop once.
AT_IN_LOOP_RE = re.compile(r"\.at\s*\(")


@register(
    "serve-elementwise-at", "error",
    "per-element .at() loop on the serving path",
    "calling .at() inside a loop or parallelFor body in src/serve/ "
    "re-checks bounds and re-derives the row pointer once per "
    "element; bulk moves belong on rowPtr()/data() with std::copy "
    "(or loadRow for KV views), which check once per row. Hoist the "
    "accessor out of the loop or switch to the bulk form.")
def check_serve_elementwise_at(src, ctx):
    if not src.rel_path.startswith(SERVE_DIRS):
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if (src.in_loop[lineno] or src.in_pfor[lineno]) and \
                AT_IN_LOOP_RE.search(code):
            yield lineno, None
