#!/usr/bin/env python3
"""Validate BENCH_*.json files against the softrec-bench-v1 schema.

Every bench in this repo emits a machine-readable report (see
src/common/bench_report.hpp). CI runs the benches in smoke mode and
feeds their output through this checker so a refactor that silently
breaks the report format — or starts emitting locale-dependent or
non-finite numbers — fails the build instead of corrupting downstream
tooling that parses the files.

Checked invariants:

  top-level       object with exactly the keys
                  {schema, name, config, kernels, derived};
                  schema == "softrec-bench-v1"; name is a non-empty
                  string.
  config          object; values are strings, booleans, integers, or
                  finite floats.
  kernels         array of rows, each with exactly the keys
                  {name, ms, bytes_read, bytes_written, calls,
                  threads}, plus optionally the run spread
                  {ms_min, ms_max} (both or neither); name non-empty
                  and unique; ms a finite float >= 0; with a spread,
                  ms_min <= ms <= ms_max; bytes/calls non-negative
                  integers; threads an integer >= 1.
  causal twins    a row named causal_<x> needs a row named <x> with
                  the same bytes_read and bytes_written: the causal
                  kernels stop at the diagonal to save time, while the
                  counters keep reporting the modeled, causal-oblivious
                  operands.
  derived         object; values are finite floats.
  required        a report named in REQUIRED_DERIVED must carry each
  derived         of its keys: micro_simd's in-process SDF overheads
                  (ls_overhead_ns_per_elem, gs_overhead_ns_per_elem,
                  ir_ns_per_row), which a change to its arms must not
                  drop silently.
  JSON text       must not contain NaN/Infinity tokens (the emitter
                  writes null for non-finite values; Python's json
                  module would otherwise accept them silently).

Usage:
  check_bench_json.py FILE [FILE...]   validate report files
  check_bench_json.py --self-test      run the embedded fixtures

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import math
import sys

SCHEMA = "softrec-bench-v1"
TOP_KEYS = {"schema", "name", "config", "kernels", "derived"}
ROW_KEYS = {"name", "ms", "bytes_read", "bytes_written", "calls",
            "threads"}
SPREAD_KEYS = {"ms_min", "ms_max"}
CAUSAL_PREFIX = "causal_"
# Derived keys a report of the given name must carry.
REQUIRED_DERIVED = {
    "micro_simd": ("ls_overhead_ns_per_elem", "gs_overhead_ns_per_elem",
                   "ir_ns_per_row"),
}


def is_int(value):
    """True for JSON integers (bool is a subclass of int: exclude)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value):
    if is_int(value):
        return True
    return isinstance(value, float) and math.isfinite(value)


def validate_text(path, text):
    """Return a list of 'path: message' findings (empty = clean)."""
    findings = []

    def bad(message):
        findings.append("%s: %s" % (path, message))

    try:
        doc = json.loads(text, parse_constant=lambda token: bad(
            "non-finite JSON token %r" % token))
    except json.JSONDecodeError as err:
        bad("not valid JSON: %s" % err)
        return findings

    if not isinstance(doc, dict):
        bad("top level must be an object")
        return findings
    missing = TOP_KEYS - doc.keys()
    extra = doc.keys() - TOP_KEYS
    if missing:
        bad("missing top-level keys: %s" % ", ".join(sorted(missing)))
    if extra:
        bad("unexpected top-level keys: %s" % ", ".join(sorted(extra)))
    if doc.get("schema") != SCHEMA:
        bad("schema must be %r, got %r" % (SCHEMA, doc.get("schema")))
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        bad("name must be a non-empty string")

    config = doc.get("config", {})
    if not isinstance(config, dict):
        bad("config must be an object")
    else:
        for key, value in config.items():
            if isinstance(value, (str, bool)):
                continue
            if not is_finite_number(value):
                bad("config[%r] must be a string, bool, or finite "
                    "number" % key)

    kernels = doc.get("kernels", [])
    if not isinstance(kernels, list):
        bad("kernels must be an array")
        kernels = []
    seen_names = set()
    for index, row in enumerate(kernels):
        where = "kernels[%d]" % index
        if not isinstance(row, dict):
            bad("%s must be an object" % where)
            continue
        missing = ROW_KEYS - row.keys()
        extra = row.keys() - ROW_KEYS - SPREAD_KEYS
        if missing:
            bad("%s missing keys: %s" %
                (where, ", ".join(sorted(missing))))
        if extra:
            bad("%s unexpected keys: %s" %
                (where, ", ".join(sorted(extra))))
        row_name = row.get("name")
        if not isinstance(row_name, str) or not row_name:
            bad("%s name must be a non-empty string" % where)
        elif row_name in seen_names:
            bad("%s duplicate kernel name %r" % (where, row_name))
        else:
            seen_names.add(row_name)
        ms = row.get("ms")
        if not is_finite_number(ms) or ms < 0:
            bad("%s ms must be a finite number >= 0" % where)
            ms = None
        spread = SPREAD_KEYS & row.keys()
        if spread and spread != SPREAD_KEYS:
            bad("%s needs both ms_min and ms_max or neither" % where)
        elif spread:
            lo, hi = row["ms_min"], row["ms_max"]
            if not is_finite_number(lo) or not is_finite_number(hi):
                bad("%s ms_min/ms_max must be finite numbers" % where)
            elif ms is not None and not lo <= ms <= hi:
                bad("%s needs ms_min <= ms <= ms_max (%r, %r, %r)" %
                    (where, lo, ms, hi))
        for key in ("bytes_read", "bytes_written", "calls"):
            if key in row and (not is_int(row[key]) or row[key] < 0):
                bad("%s %s must be a non-negative integer" %
                    (where, key))
        if "threads" in row and (not is_int(row["threads"]) or
                                 row["threads"] < 1):
            bad("%s threads must be an integer >= 1" % where)

    rows_by_name = {row.get("name"): row for row in kernels
                    if isinstance(row, dict)}
    for row_name, row in rows_by_name.items():
        if not isinstance(row_name, str) or \
                not row_name.startswith(CAUSAL_PREFIX):
            continue
        twin_name = row_name[len(CAUSAL_PREFIX):]
        twin = rows_by_name.get(twin_name)
        if twin is None:
            bad("kernel %r has no non-causal twin %r" %
                (row_name, twin_name))
            continue
        for key in ("bytes_read", "bytes_written"):
            if row.get(key) != twin.get(key):
                bad("kernel %r %s %r differs from its non-causal twin's "
                    "%r" % (row_name, key, row.get(key), twin.get(key)))

    derived = doc.get("derived", {})
    if not isinstance(derived, dict):
        bad("derived must be an object")
    else:
        for key, value in derived.items():
            if not is_finite_number(value):
                bad("derived[%r] must be a finite number" % key)
        for key in REQUIRED_DERIVED.get(name, ()):
            if key not in derived:
                bad("report %r needs derived[%r]" % (name, key))

    return findings


def validate_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        return ["%s: cannot read: %s" % (path, err)]
    return validate_text(path, text)


GOOD_FIXTURE = """{
  "schema": "softrec-bench-v1",
  "name": "fixture",
  "config": {"seq_len": 512, "gpu": "A100", "checked": false,
             "scale": 0.125},
  "kernels": [
    {"name": "softmax.row", "ms": 1.5, "bytes_read": 1024,
     "bytes_written": 1024, "calls": 2, "threads": 4},
    {"name": "sda.qk", "ms": 0, "bytes_read": 0,
     "bytes_written": 0, "calls": 1, "threads": 1},
    {"name": "sda.av", "ms": 2.5, "ms_min": 2.25, "ms_max": 5,
     "bytes_read": 0, "bytes_written": 0, "calls": 1, "threads": 1},
    {"name": "causal_softmax.row", "ms": 0.75, "bytes_read": 1024,
     "bytes_written": 1024, "calls": 2, "threads": 4}
  ],
  "derived": {"speedup": 1.25}
}"""

# Each bad fixture must produce at least one finding mentioning the
# named substring.
BAD_FIXTURES = [
    ("not json at all {", "not valid JSON"),
    ('{"schema": "softrec-bench-v2", "name": "x", "config": {}, '
     '"kernels": [], "derived": {}}', "schema must be"),
    ('{"schema": "softrec-bench-v1", "name": "", "config": {}, '
     '"kernels": [], "derived": {}}', "non-empty string"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"derived": {}}', "missing top-level keys"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [], "derived": {}, "extra": 1}',
     "unexpected top-level keys"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "k", "ms": -1, "bytes_read": 0, '
     '"bytes_written": 0, "calls": 1, "threads": 1}], "derived": {}}',
     "ms must be"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "k", "ms": 1, "bytes_read": -4, '
     '"bytes_written": 0, "calls": 1, "threads": 1}], "derived": {}}',
     "non-negative integer"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "k", "ms": 1, "bytes_read": 0, '
     '"bytes_written": 0, "calls": 1, "threads": 0}], "derived": {}}',
     "threads must be"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "k", "ms": 1, "bytes_read": 0, '
     '"bytes_written": 0, "calls": 1, "threads": 1}, {"name": "k", '
     '"ms": 1, "bytes_read": 0, "bytes_written": 0, "calls": 1, '
     '"threads": 1}], "derived": {}}', "duplicate kernel name"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "k", "ms": 6, "ms_min": 1, "ms_max": 5, '
     '"bytes_read": 0, "bytes_written": 0, "calls": 1, "threads": 1}], '
     '"derived": {}}', "ms_min <= ms <= ms_max"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "k", "ms": 1, "ms_min": 1, '
     '"bytes_read": 0, "bytes_written": 0, "calls": 1, "threads": 1}], '
     '"derived": {}}', "both ms_min and ms_max"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "sd/sda.av", "ms": 2, "bytes_read": 64, '
     '"bytes_written": 8, "calls": 1, "threads": 1}, '
     '{"name": "causal_sd/sda.av", "ms": 1, "bytes_read": 32, '
     '"bytes_written": 8, "calls": 1, "threads": 1}], "derived": {}}',
     "differs from its non-causal twin"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [{"name": "causal_sd/sda.av", "ms": 1, '
     '"bytes_read": 32, "bytes_written": 8, "calls": 1, '
     '"threads": 1}], "derived": {}}', "no non-causal twin"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [], "derived": {"r": NaN}}', "non-finite"),
    ('{"schema": "softrec-bench-v1", "name": "x", "config": {}, '
     '"kernels": [], "derived": {"r": null}}', "finite number"),
    ('{"schema": "softrec-bench-v1", "name": "x", '
     '"config": {"bad": [1]}, "kernels": [], "derived": {}}',
     "config"),
    ('{"schema": "softrec-bench-v1", "name": "micro_simd", '
     '"config": {}, "kernels": [], "derived": '
     '{"ls_overhead_ns_per_elem": 0.5, "ir_ns_per_row": 40}}',
     "needs derived['gs_overhead_ns_per_elem']"),
]

# A micro_simd report with its required keys passes; an overhead may be
# negative, since the two arms of a pair can cross.
GOOD_MICRO_SIMD = """{
  "schema": "softrec-bench-v1",
  "name": "micro_simd",
  "config": {},
  "kernels": [],
  "derived": {"ls_overhead_ns_per_elem": 0.5,
              "gs_overhead_ns_per_elem": -0.01, "ir_ns_per_row": 40}
}"""


def self_test():
    failures = 0
    for label, text in (("good", GOOD_FIXTURE),
                        ("good micro_simd", GOOD_MICRO_SIMD)):
        findings = validate_text(label, text)
        if findings:
            failures += 1
            print("self-test: %s fixture flagged:" % label,
                  file=sys.stderr)
            for finding in findings:
                print("  " + finding, file=sys.stderr)
    for index, (text, expect) in enumerate(BAD_FIXTURES):
        findings = validate_text("bad%d" % index, text)
        if not any(expect in finding for finding in findings):
            failures += 1
            print("self-test: bad fixture %d: expected a finding "
                  "containing %r, got %r" % (index, expect, findings),
                  file=sys.stderr)
    if failures:
        return 1
    print("check_bench_json self-test: %d fixtures OK" %
          (2 + len(BAD_FIXTURES)))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate softrec-bench-v1 JSON reports.")
    parser.add_argument("files", nargs="*",
                        help="report files to validate")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded fixtures")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.files:
        parser.print_usage(sys.stderr)
        return 2

    findings = []
    for path in args.files:
        findings.extend(validate_file(path))
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        return 1
    print("check_bench_json: %d file(s) OK" % len(args.files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
