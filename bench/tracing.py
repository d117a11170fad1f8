"""Spans around the calls into each kinkeq module, and the layer metrics.

The tracer wraps the public functions named in ``LAYERS`` from outside the
package: every module attribute bound to one of them (``reducer`` imports
``congruence`` as ``apply_congruence``, ``cli`` imports ``verify_trace``,
...) is replaced by a wrapper that records a span, and restored afterwards.
Spans are kept in memory and written out once the run ends.

A span's context is inherited from its nearest ``reducer.reduce``,
``moves.verify_trace`` or ``cli.main`` ancestor, so ``exact.congruence``
is split into the reducer's share (including the calls it makes through
``moves.apply_move``) and the verifier's share.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

import reference

LAYERS = {
    "exact": ("congruence", "inertia", "determinant", "diagonalizing_congruence", "extend_primitive"),
    "moves": ("verify_trace",),
    "reducer": ("reduce", "find_positive_vector", "four_squares", "integralize_first_row"),
    "cct": ("cct_search", "icct_trace"),
    "goeritz": ("parse_diagram", "goeritz_matrix"),
    "formats": ("serialize_trace", "parse_trace", "parse_matrix", "serialize_matrix"),
    "cli": ("main",),
}
CONTEXTS = {"reducer.reduce": "reduce", "moves.verify_trace": "verify", "cli.main": "query"}


def _info(name: str, args, result):
    """The count a span carries beside its time, read off its call."""
    if name == "exact.congruence":
        P = args[1]
        nonzero = sum(1 for row in P.entries for x in row if x)
        return nonzero, P.rows * P.cols, reference.max_entry_bits(result.entries)
    if name == "moves.verify_trace":
        return len(result.steps)
    if name == "reducer.four_squares":
        return args[0].bit_length(), sum(1 for x in result if x)
    if name == "cct.cct_search":
        return result is None
    if name.startswith("formats.serialize"):
        return len(result)
    if name.startswith("formats.parse"):
        return len(args[0])
    return None


class Span:
    __slots__ = ("name", "context", "parent", "op", "start", "end", "info")

    def __init__(self, name, context, parent, op):
        self.name, self.context, self.parent, self.op = name, context, parent, op
        self.start = self.end = 0
        self.info = None


class Tracer:
    """Records spans while installed; ``op`` tags the spans of the current op."""

    def __init__(self, p):
        self.p = p
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, op: int):
        """Tag the spans that follow with ``op``; drop what a timeout left open."""
        self.op = op
        self._stack.clear()

    def install(self):
        modules = [getattr(self.p, m) for m in self.p.__dict__] + [sys.modules["kinkeq"]]
        for module_name, functions in LAYERS.items():
            for fn_name in functions:
                original = getattr(getattr(self.p, module_name), fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        context = CONTEXTS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, context or (spans[parent].context if stack else None), parent, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            span.info = _info(name, args, result)
            return result

        return traced

    def dump(self, path):
        """Write the spans as JSON lines: name, context, parent, op, start, end, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.context, s.parent, s.op, s.start, s.end, s.info]) + "\n")


# (metric, unit): every traced run reports all of them, 0 where a layer
# is not reached by the workload.
LAYER_METRICS = (
    ("exact.congruence.reduce.calls", "count"),
    ("exact.congruence.reduce.self_ms", "ms"),
    ("exact.congruence.reduce.share", "ratio"),
    ("exact.congruence.verify.calls", "count"),
    ("exact.congruence.verify.self_ms", "ms"),
    ("exact.congruence.verify.share", "ratio"),
    ("exact.congruence.p_nonzero_share", "ratio"),
    ("exact.congruence.out_bits_max", "bits"),
    ("exact.inertia.audit.self_ms", "ms"),
    ("exact.determinant.audit.self_ms", "ms"),
    ("exact.audit.verify.share", "ratio"),
    ("exact.inertia.query.self_ms", "ms"),
    ("exact.determinant.query.self_ms", "ms"),
    ("exact.diagonalizing_congruence.self_ms", "ms"),
    ("exact.extend_primitive.self_ms", "ms"),
    ("moves.verify_trace.self_ms", "ms"),
    ("moves.verify_trace.steps", "count"),
    ("reducer.reduce.self_ms", "ms"),
    ("reducer.find_positive_vector.calls", "count"),
    ("reducer.find_positive_vector.self_ms", "ms"),
    ("reducer.find_positive_vector.witness_share", "ratio"),
    ("reducer.four_squares.calls", "count"),
    ("reducer.four_squares.self_ms", "ms"),
    ("reducer.four_squares.input_bits_max", "bits"),
    ("reducer.four_squares.nonzero_mean", "count"),
    ("reducer.integralize_first_row.self_ms", "ms"),
    ("cct.cct_search.calls", "count"),
    ("cct.cct_search.self_ms", "ms"),
    ("cct.cct_search.none_share", "ratio"),
    ("cct.icct_trace.self_ms", "ms"),
    ("goeritz.parse_diagram.self_ms", "ms"),
    ("goeritz.goeritz_matrix.self_ms", "ms"),
    ("formats.serialize_trace.self_ms", "ms"),
    ("formats.parse_trace.self_ms", "ms"),
    ("formats.parse_matrix.self_ms", "ms"),
    ("formats.serialize_matrix.self_ms", "ms"),
    ("formats.bytes", "bytes"),
    ("cli.main.self_ms", "ms"),
)

# Metrics that must repeat exactly for a seed: counts, not times.
COUNTS = tuple(
    name for name, unit in LAYER_METRICS if unit in ("count", "bits", "bytes")
) + (
    "exact.congruence.p_nonzero_share",
    "reducer.find_positive_vector.witness_share",
    "cct.cct_search.none_share",
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], failed_ops: set[int]) -> dict[str, float]:
    """Per-layer numbers from one traced pass.

    Times cover every op, a timed-out one up to its cap; counts skip the
    ops in ``failed_ops``, since where a timeout lands is not repeatable.
    """
    child_ns = [0] * len(spans)
    witness = set()
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
            if s.name == "exact.diagonalizing_congruence":
                witness.add(s.parent)

    self_ns: dict[tuple[str, str | None], int] = {}
    total_ns: dict[str, int] = {}
    for k, s in enumerate(spans):
        key = (s.name, s.context)
        self_ns[key] = self_ns.get(key, 0) + (s.end - s.start) - child_ns[k]
        outermost = s.parent < 0 or spans[s.parent].name != s.name
        if outermost:
            total_ns[s.name] = total_ns.get(s.name, 0) + s.end - s.start

    def self_ms(name, context=...):
        ns = sum(v for (n, c), v in self_ns.items() if n == name and (context is ... or c == context))
        return ns / 1e6

    done = [(k, s) for k, s in enumerate(spans) if s.op not in failed_ops]

    def calls(name, context=...):
        return sum(1 for _, s in done if s.name == name and (context is ... or s.context == context))

    def infos(name):
        return [s.info for _, s in done if s.name == name]

    congr = infos("exact.congruence")
    squares = infos("reducer.four_squares")
    searches = infos("cct.cct_search")
    fpv = [k for k, s in done if s.name == "reducer.find_positive_vector"]
    audit_ms = self_ms("exact.inertia", "verify") + self_ms("exact.determinant", "verify")
    values = {
        "exact.congruence.reduce.calls": calls("exact.congruence", "reduce"),
        "exact.congruence.reduce.self_ms": self_ms("exact.congruence", "reduce"),
        "exact.congruence.reduce.share": _ratio(
            self_ms("exact.congruence", "reduce"), total_ns.get("reducer.reduce", 0) / 1e6
        ),
        "exact.congruence.verify.calls": calls("exact.congruence", "verify"),
        "exact.congruence.verify.self_ms": self_ms("exact.congruence", "verify"),
        "exact.congruence.verify.share": _ratio(
            self_ms("exact.congruence", "verify"), total_ns.get("moves.verify_trace", 0) / 1e6
        ),
        "exact.congruence.p_nonzero_share": _ratio(sum(c[0] for c in congr), sum(c[1] for c in congr)),
        "exact.congruence.out_bits_max": max((c[2] for c in congr), default=0),
        "exact.inertia.audit.self_ms": self_ms("exact.inertia", "verify"),
        "exact.determinant.audit.self_ms": self_ms("exact.determinant", "verify"),
        "exact.audit.verify.share": _ratio(audit_ms, total_ns.get("moves.verify_trace", 0) / 1e6),
        "exact.inertia.query.self_ms": self_ms("exact.inertia", "query"),
        "exact.determinant.query.self_ms": self_ms("exact.determinant", "query"),
        "moves.verify_trace.steps": sum(infos("moves.verify_trace")),
        "reducer.find_positive_vector.witness_share": _ratio(
            sum(1 for k in fpv if k in witness), len(fpv)
        ),
        "reducer.four_squares.input_bits_max": max((b for b, _ in squares), default=0),
        "reducer.four_squares.nonzero_mean": _ratio(sum(z for _, z in squares), len(squares)),
        "cct.cct_search.none_share": _ratio(sum(searches), len(searches)),
        "formats.bytes": sum(s.info for _, s in done if s.name.startswith("formats.")),
    }
    for name, unit in LAYER_METRICS:
        if name in values:
            continue
        layer, _, metric = name.rpartition(".")
        values[name] = calls(layer) if metric == "calls" else self_ms(layer)
    return values
