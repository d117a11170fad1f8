"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

import program
import run
import workloads

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_the_benchmark_workloads_and_metrics():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert units("end_to_end") == dict(run.END_TO_END)
    assert units("per_layer") == dict(run.PER_LAYER)


@pytest.mark.parametrize("name", NAMES)
def test_timed_run_prints_every_end_to_end_metric(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.05"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric_and_repeats_its_counts(name):
    workload = workloads.WORKLOADS[name]
    clock = run.Clock()
    _, p, inputs, workdir = run.setup(workload, 3, clock)
    try:
        records, values, names, counts_repeat = run.traced_run(workload, p, inputs[:3], 3, clock)
    finally:
        shutil.rmtree(workdir)
    assert counts_repeat and values["trace_counts_repeat"] == 1
    assert len(records) == 9 and not any(r.failure for r in records)
    assert {n: u for n, u in names if n in values} == units("per_layer")


class OnceTimedOutSearch(workloads.Search):
    """Its first op reaches the cap once, after one traced call, as an op
    near the cap can in one pass and not in the next."""

    timed_out = False

    def run(self, p, inp):
        if not self.timed_out:
            self.timed_out = True
            p.reducer.four_squares(7)
            raise program.OpTimeout()
        return super().run(p, inp)


def test_traced_counts_skip_an_op_that_timed_out_in_one_pass_only():
    workload = OnceTimedOutSearch()
    p = program.load()
    inputs = [workload.bind(p, data, i, None) for i, data in enumerate(workload.corpus_data(3)[:3])]
    records, values, _, counts_repeat = run.traced_run(workload, p, inputs, 3, run.Clock())
    assert [r.timeout for r in records] == [True] + [False] * 8
    assert counts_repeat and values["trace_counts_repeat"] == 1


class TamperedReduce(workloads.Reduce):
    """Flips the first negative kink of every certificate before verifying."""

    def run(self, p, inp):
        start = time.perf_counter()
        text = workloads.certify(p, inp.value, inp.data[1])
        tampered = text.replace("kink -1", "kink +1", 1)
        assert tampered != text
        report = workloads.verify(p, tampered)
        return {"certify+verify": time.perf_counter() - start}, (tampered, report)


def test_tampered_certificate_counts_as_failed():
    p = program.load()
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, -4]]
    inp = workloads.Input((rows, workloads.NEG_DEFINITE), p.exact.SymMatrix.from_rows(rows))
    assert run.run_op(workloads.Reduce(), p, inp).failure is None
    record = run.run_op(TamperedReduce(), p, inp)
    assert record.failure and not record.timeout
    assert run.summarize([record])["fail_ratio"] == 1


def test_gate_checks_more_than_the_verifier():
    """A valid certificate for the wrong target passes verify_trace but not the gate."""
    p = program.load()
    rows = [[2, 1], [1, -3]]
    text = workloads.certify(p, p.exact.SymMatrix.from_rows(rows), workloads.NEG_SEMIDEFINITE)
    report = workloads.verify(p, text)
    assert report.valid
    assert workloads.check_certificate(rows, workloads.NEG_SEMIDEFINITE, text, report)[0] is None
    assert workloads.check_certificate(rows, workloads.POS_DEFINITE, text, report)[0]
