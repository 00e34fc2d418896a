"""Tests of the benchmark itself (not part of the program's test suite):

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from posheaf import jsonio  # noqa: E402

import run  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, _load  # noqa: E402

MEMOS = ("_sheaf_certificate", "_posheaf_report", "_order_subsheaf")


def _ops(workload: str, seed: int, limit: int | None = None):
    w = WORKLOADS[workload]
    items = w.select(seed)
    return w, w.build(items[:limit] if limit else items)


def test_documents_are_byte_identical_for_a_seed():
    for w in WORKLOADS.values():
        items = w.select(3)
        assert items == w.select(3)
        first = [op.doc for op in w.build(items)]
        assert first == [op.doc for op in w.build(items)]
        assert [it["name"] for it in w.select(4)] != [it["name"] for it in items]


def test_every_seed_runs_the_same_number_of_ops():
    for w in WORKLOADS.values():
        assert len({len(w.select(seed)) for seed in range(8)}) == 1


def test_fresh_load_carries_no_memo_and_repeats_exactly():
    w, ops = _ops("laws", 0, limit=12)
    for op in ops:
        F = _load(jsonio.load_posheaf, op.doc)
        assert not any(hasattr(F, m) or hasattr(F.sheaf, m) for m in MEMOS)
        runs = []
        for _ in range(2):
            tr = Tracer()
            out = w.outcome(op, tr)
            counts = [(s["name"], s["counts"]) for s in tr.spans]
            runs.append((out, counts))
        assert runs[0] == runs[1]
        assert any(c for _, c in runs[0][1])
        F = _load(jsonio.load_posheaf, op.doc)
        assert not any(hasattr(F, m) or hasattr(F.sheaf, m) for m in MEMOS)


def test_gate_accepts_pinned_outcomes_and_rejects_a_planted_wrong_one():
    w, ops = _ops("laws", 0, limit=20)
    gate = run.Gate()
    run.run_pass(w, ops, NullTracer(), gate)
    assert (gate.attempted, gate.failed) == (20, 0)

    planted = list(ops)
    planted[3] = replace(ops[3], expect=dict(ops[3].expect, posheaf=not ops[3].expect["posheaf"]))
    gate = run.Gate()
    run.run_pass(w, planted, NullTracer(), gate)
    assert (gate.attempted, gate.failed) == (20, 1)
    assert gate.mismatches[0].startswith(ops[3].name)


def test_gate_rejects_an_outcome_that_contradicts_the_theory():
    w, ops = _ops("laws", 0)
    positive = next(op for op in ops if op.kind == "positive")
    gate = run.Gate()
    run.run_pass(w, [replace(positive, kind="break-POS3")], NullTracer(), gate)
    assert gate.failed == 1


def test_self_time_subtracts_the_union_of_child_intervals():
    def span(i, parent, start, end):
        return {"id": i, "parent": parent, "start": start, "end": end}

    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 2.0, 5.0),  # overlaps its sibling: [1, 5] is covered once
        span(3, 0, 8.0, 12.0),  # runs past its parent: only [8, 10] counts
        span(4, 1, 1.5, 2.0),
        span(5, None, 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 1.5, 2: 3.0, 3: 4.0, 4: 0.5, 5: 1.0}


def test_clock_scales_a_call_to_the_reference_speed():
    clock = run.Clock()
    result, (elapsed, reference) = clock.time(sum, [1, 2, 3])
    assert result == 6 and elapsed > 0 and reference >= clock.floor
    ref = run.REFERENCE_S
    assert clock.scaled((4e-3, ref)) == 4e-3  # made at the reference speed: kept
    assert abs(clock.scaled((6e-3, 1.5 * ref)) - 4e-3) < 1e-12  # made half as fast again


def test_tail_is_the_highest_percentile_with_ten_values_beyond_it():
    assert run.tail([float(i) for i in range(1, 157)])[0] == 90.0
    assert run.tail([float(i) for i in range(1, 1001)])[0] == 99.0
    assert run.tail([float(i) for i in range(1, 51)])[0] == 80.0
    assert run.tail([1.0] * 9)[0] == 50.0


def test_quantile_is_a_smooth_weighted_order_statistic():
    ramp = [float(i) for i in range(1, 157)]
    assert abs(run.quantile(ramp, 0.9) - 0.9 * 157) < 0.5
    assert abs(run.quantile(ramp, 0.5) - 78.5) < 1e-6  # symmetric weights
    assert abs(run.quantile([3.0] * 40, 0.8) - 3.0) < 1e-9
    steps = [1.0] * 50 + [2.0] * 50
    assert 1.0 < run.quantile(steps, 0.5) < 2.0


def test_traced_pass_reports_its_layers_and_passes_the_gate():
    w, ops = _ops("lattices", 0)
    small = [op for op in ops if op.kind == "generated"][:6]
    tracer, gate = Tracer(), run.Gate()
    run.run_pass(w, small, tracer, gate)
    assert gate.failed == 0
    m = run.layer_metrics(tracer.spans)
    assert m["jsonio.load.calls"] == len(small)
    assert m["sheaves.enumerate_subsheaves.members"] > 0
    shares = sum(v for k, v in m.items() if k.endswith(".self_share"))
    assert 0.99 < shares < 1.01


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


_DIGEST = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import run
from spans import NullTracer
from workloads import WORKLOADS
for name, w in WORKLOADS.items():
    ops = w.build([it for it in w.select(5) if it["kind"] not in ("frame-sheaf", "complete-not-frame")][:25])
    _, outs = run.run_pass(w, ops, NullTracer(), run.Gate())
    print(name, run.digest([op.doc for op in ops]), run.digest([[op.name, o] for op, o in zip(ops, outs)]))
"""


def test_outcome_digest_does_not_depend_on_the_hash_seed():
    code = _DIGEST.format(src=str(ROOT / "src"), here=str(HERE))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(WORKLOADS)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
