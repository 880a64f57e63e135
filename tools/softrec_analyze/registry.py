"""Rule registry: every rule registers here with its severity and
rationale; the CLI, SARIF emitter, and selftest all read this table.

Severities:

* ``error``   — an invariant the repo depends on for correctness or
                reproducibility; the CI gate fails on it.
* ``warning`` — a heuristic rule that can rarely misfire; still gates
                CI (suppress with allow() or the baseline when wrong).
"""


class Rule:
    def __init__(self, name, severity, summary, rationale, check):
        self.name = name
        self.severity = severity
        self.summary = summary
        self.rationale = rationale
        self.check = check  # callable(SourceFile, AnalysisContext)


_RULES = {}


def register(name, severity, summary, rationale):
    """Decorator: register ``check(src, ctx)`` under ``name``."""
    if severity not in ("error", "warning"):
        raise ValueError("bad severity for rule %s" % name)

    def wrap(fn):
        if name in _RULES:
            raise ValueError("duplicate rule %s" % name)
        _RULES[name] = Rule(name, severity, summary, rationale, fn)
        return fn
    return wrap


def all_rules():
    """Every registered rule, name-sorted (imports rule modules on
    first use)."""
    _load()
    return [_RULES[name] for name in sorted(_RULES)]


_LOADED = False


def _load():
    global _LOADED
    if _LOADED:
        return
    # Importing a rules module runs its register() decorators.
    import rules_numerics    # noqa: F401
    import rules_hygiene     # noqa: F401
    import rules_concurrency  # noqa: F401
    import rules_hotpath     # noqa: F401
    import rules_envreg      # noqa: F401
    import rules_profscope   # noqa: F401
    import rules_serveapi    # noqa: F401
    import rules_simd        # noqa: F401
    _LOADED = True
