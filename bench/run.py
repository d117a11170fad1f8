#!/usr/bin/env python3
"""Seeded benchmark for kinkeq: certify, verify, invariant and search queries.

    python3 bench/run.py --workload reduce --seed 1 --seconds 35 --trace 0

Runs one workload closed-loop (the next op starts when the previous one
ends) in this single process, for ``--seconds`` of wall time, checks every
op's output, and prints one JSON object as its last line of output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs a
fixed prefix of the workload's inputs three times: traced, untraced, and
traced again, with spans around every call into a kinkeq module.  It
reports the per-layer metrics of the last pass, the tracing overhead as
the drop in ops per second from the untraced pass, checks that both traced
passes give exactly the same counts, and writes the spans to
``.bench_out/spans-<workload>-<seed>.jsonl``.

kinkeq is imported from ``src/`` of this checkout; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import program
from clock import Clock
import tracing
from workloads import WORKLOADS

SETUP_REPEATS = 21

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)
RUN_METRICS = (
    ("fail_ratio", "ratio"),
    ("op_tail_pct", "%"),
    ("op_samples", "count"),
    ("certify_p50_ms", "ms"),
    ("certify_tail_ms", "ms"),
    ("verify_p50_ms", "ms"),
    ("verify_tail_ms", "ms"),
    ("trace_bytes_per_op", "bytes"),
    ("moves_per_op", "count"),
    ("end_entry_bits_max", "bits"),
    ("traced_ops_per_s", "1/s"),
    ("trace_overhead_ops_per_s", "1/s"),
    ("trace_counts_repeat", "bool"),
)
PER_LAYER = RUN_METRICS + tracing.LAYER_METRICS


@dataclass
class Record:
    """One op: its latency in reference seconds (see clock.py), why it
    failed (None if it passed), and its certificate sizes."""

    seconds: float
    failure: str | None
    timeout: bool = False
    phases: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    def rescale(self, factor: float) -> "Record":
        self.seconds /= factor
        self.phases = {k: v / factor for k, v in self.phases.items()}
        return self


def setup(workload, seed: int, clock: Clock):
    """Import kinkeq afresh and bind the seed's inputs to it, ``SETUP_REPEATS``
    times.  Returns the median set-up time, the last import and its inputs.
    """
    workdir = program.ROOT / ".bench_work" / f"{workload.name}-{seed}"
    corpus = workload.corpus_data(seed)
    times = []
    for _ in range(SETUP_REPEATS):
        factor = clock.factor(force=True)
        start = time.perf_counter()
        p = program.load()
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = workload.bind_all(p, corpus, workdir)
        times.append((time.perf_counter() - start) / factor)
    return statistics.median(times), p, inputs, workdir


def run_op(workload, p, inp, factor: float = 1.0) -> Record:
    """One op under the time cap, then its gate.  Never raises: a timeout,
    an exception or a failed gate is a failed op.  The cap is in reference
    seconds, so it allows ``factor`` times as much wall time; the record
    is returned in reference seconds."""
    start = time.perf_counter()
    try:
        with program.time_cap(workload.cap_s * factor):
            phases, out = workload.run(p, inp)
    except program.OpTimeout:
        record = Record(time.perf_counter() - start, f"time cap {workload.cap_s} s", timeout=True)
    except Exception as exc:  # the run must go on; the failure is reported
        record = Record(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    else:
        try:
            failure, sizes = workload.check(inp, out)
        except Exception as exc:
            failure, sizes = f"gate could not read the output: {type(exc).__name__}: {exc}", {}
        record = Record(sum(phases.values()), failure, phases=phases, sizes=sizes)
    return record.rescale(factor)


def run_loop(workload, p, inputs, seconds: float, clock: Clock) -> list[Record]:
    """Closed loop over the inputs, cycling, until ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        inp = inputs[len(records) % len(inputs)]
        records.append(run_op(workload, p, inp, clock.factor()))
    return records


def run_fixed(workload, p, inputs, clock: Clock, tracer=None) -> list[Record]:
    records = []
    for k, inp in enumerate(inputs):
        factor = clock.factor()
        if tracer is not None:
            tracer.begin(k)
        records.append(run_op(workload, p, inp, factor))
    return records


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def summarize(records: list[Record]) -> dict[str, float]:
    latencies = [r.seconds * 1e3 for r in records]
    failed = sum(1 for r in records if r.failure)
    tail_ms, tail_pct = tail(latencies)
    out = {
        "ops_per_s": len(records) / sum(r.seconds for r in records),
        "ok_ratio": 1 - failed / len(records),
        "fail_ratio": failed / len(records),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "op_tail_pct": tail_pct,
        "op_samples": len(records),
    }
    passed = [r for r in records if not r.failure]
    for phase in ("certify", "verify"):
        times = [r.phases[phase] * 1e3 for r in passed if phase in r.phases]
        out[f"{phase}_p50_ms"] = statistics.median(times) if times else 0.0
        out[f"{phase}_tail_ms"] = tail(times)[0] if times else 0.0
    sized = [r.sizes for r in passed if r.sizes]
    out["trace_bytes_per_op"] = statistics.fmean(s["trace_bytes"] for s in sized) if sized else 0.0
    out["moves_per_op"] = statistics.fmean(s["moves"] for s in sized) if sized else 0.0
    out["end_entry_bits_max"] = max((s["end_entry_bits"] for s in sized), default=0)
    return out


def timed_run(workload, p, inputs, seconds: float, clock: Clock, setup_s: float):
    records = run_loop(workload, p, inputs, seconds, clock)
    values = summarize(records)
    values["setup_s"] = setup_s
    return records, values, END_TO_END, True


def traced_run(workload, p, inputs, seed: int, clock: Clock):
    """Traced pass, untraced pass, traced repeat, all on the same inputs.

    The first traced pass also warms caches; the layer metrics and the
    tracing overhead come from the last two passes, the count check
    compares the two traced ones over the ops that finished in both.
    """
    inputs = inputs[: workload.trace_ops]
    passes = []
    for traced in (True, False, True):
        tracer = tracing.Tracer(p) if traced else None
        if tracer is not None:
            tracer.install()
        try:
            records = run_fixed(workload, p, inputs, clock, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append((tracer, records))
    (first, first_records), (_, plain), (tracer, records) = passes
    # An op near its cap may finish in one pass and not in the other, so
    # both passes count over the same ops: those that finished in both.
    timeouts = {k for rs in (first_records, records) for k, r in enumerate(rs) if r.timeout}
    layers = tracing.layer_metrics(tracer.spans, timeouts)
    again = tracing.layer_metrics(first.spans, timeouts)
    differ = [name for name in tracing.COUNTS if layers[name] != again[name]]
    if differ:
        print(f"traced counts differ between two passes: {', '.join(differ)}", file=sys.stderr)

    values = summarize(plain)
    values.update(layers)
    values["traced_ops_per_s"] = summarize(records)["ops_per_s"]
    values["trace_overhead_ops_per_s"] = values["ops_per_s"] - values["traced_ops_per_s"]
    values["trace_counts_repeat"] = 0 if differ else 1

    out_dir = program.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload.name}-{seed}.jsonl")
    return first_records + plain + records, values, PER_LAYER, not differ


def report(workload, seed, records, values, names, counts_repeat) -> dict:
    failures = [r.failure for r in records if r.failure]
    # A timeout is a failed op, not a wrong answer; anything else is wrong.
    wrong = [r.failure for r in records if r.failure and not r.timeout]
    print(f"# {workload.name} seed {seed}: {len(records)} ops, {len(failures)} failed")
    for reason in sorted(set(failures))[:10]:
        print(f"#   failed: {reason} (x{failures.count(reason)})")
    for name, unit in END_TO_END + PER_LAYER:
        if name in values:
            print(f"# {name} {values[name]:.6g} {unit}")
    return {
        "correct": not wrong and counts_repeat,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    clock = Clock()
    try:
        setup_s, p, inputs, workdir = setup(workload, args.seed, clock)
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced_run(workload, p, inputs, args.seed, clock)
        else:
            result = timed_run(workload, p, inputs, args.seconds, clock, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(workload, args.seed, *result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
