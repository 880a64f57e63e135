"""Environment-knob registry rule.

Every SOFTREC_* environment knob is part of the serving engine's
operator interface: it must be parsed by a config module that
hard-errors on malformed values (never a silent fallback), and it
must be documented in the README knob table so operators can find
it. A getenv() scattered anywhere else is how a knob silently forks
behaviour between binaries.
"""

import re

from registry import register

# The config modules: the only files allowed to call getenv().
ENV_ALLOWED_FILES = {
    "src/serve/serve_config.cpp",  # ServeConfig::fromEnv
    "src/common/exec_context.cpp",  # SOFTREC_THREADS latch
    "src/common/bench_report.cpp",  # SOFTREC_BENCH_DIR routing
    "src/fp16/half.cpp",           # SOFTREC_SIMD backend select
}

GETENV_RE = re.compile(r"\b(?:std::)?getenv\s*\(")
GETENV_NAME_RE = re.compile(r'\bgetenv\s*\(\s*"([^"]+)"')


@register(
    "env-registry", "error",
    "getenv() outside the config modules, or an undocumented knob",
    "environment knobs must route through the config modules "
    "(ServeConfig::fromEnv, ExecContext, bench_report, half) that "
    "validate hard — a malformed value is a startup error, never a "
    "silent fallback — and every SOFTREC_* name must appear in the "
    "README knob table. Direct getenv() elsewhere creates knobs with "
    "neither property.")
def check_env_registry(src, ctx):
    for lineno, code in enumerate(src.code_lines, start=1):
        if not GETENV_RE.search(code):
            continue
        raw = src.raw_lines[lineno - 1]
        if src.rel_path not in ENV_ALLOWED_FILES:
            yield lineno, (
                "getenv() outside the config modules; route the knob "
                "through ServeConfig::fromEnv / the owning config "
                "module")
            continue
        for name in GETENV_NAME_RE.findall(raw):
            if name.startswith("SOFTREC_") and \
                    name not in ctx.readme_text:
                yield lineno, (
                    "env knob %s is read here but not documented in "
                    "the README knob table" % name)
