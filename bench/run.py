"""Run one posheaf benchmark workload and print its metrics.

    python3 bench/run.py --workload laws --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each op starts when the previous one
has ended. Set-up builds the workload's documents from the seed, at least
three times and for at least two seconds; the median is ``setup_s``. The
measured phase repeats passes over the fixed op list until ``--seconds``
have gone by, and at least ``MIN_PASSES`` times. Every op's outcome goes
through the correctness gate; any mismatch makes the exit code 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
passes with traced ones, where every call into a layer is a span and the
probes run, and prints the per-layer metrics; the spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``. The last line of standard
output is the JSON result; the line before it gives the run's provenance,
and its failed and undecided shares.

On a shared host each core switches, about once a second, between its own
speed and one half as fast or slower, when another tenant uses the same
core, and over minutes even its fastest speed drifts by a tenth or more.
Raw op times, and even each op's fastest time in a run, follow that drift.
So every timed call runs between two runs of a fixed pure-Python reference
loop, and the benchmark measures the call's time in units of the mean time
of those two loops (see ``Clock``). The times it prints are those ratios
times ``REFERENCE_S``, the loop's time on an uncontended core of the 2-vCPU
Intel Xeon virtual machine the benchmark was defined on: they read as that
machine's times at its full speed, on any host. An op's time is the median
of its repetitions; ``pass_s`` is the sum over the op list, and
``op_p50_ms`` and ``op_tail_ms`` are smooth quantile estimates over the op
times (see ``quantile``). ``setup_s`` is the median over set-ups of the sum
of the times of building each op. The provenance line gives the unscaled
median pass time and the reference loop's fastest time in the run beside
them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPS = 3
SETUP_MIN_S = 2.0
MIN_PASSES = 3
REFERENCE_S = 0.35e-3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
LAYERS = ("jsonio", "frames", "sheaves", "orders", "complete", "frame_equiv", "locale_equiv")

END_TO_END = {
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "jsonio.load.calls": "count",
    "jsonio.load.busy_s": "s",
    "frames.verify.calls": "count",
    "frames.verify.busy_s": "s",
    "sheaves.verify_sheaf.busy_s": "s",
    "sheaves.verify_sheaf.covers": "count",
    "sheaves.verify_sheaf.families": "count",
    "sheaves.enumerate_subsheaves.busy_s": "s",
    "sheaves.enumerate_subsheaves.members": "count",
    "orders.verify_posheaf.busy_s": "s",
    "orders.enumerate_downsheaves.busy_s": "s",
    "orders.enumerate_downsheaves.members": "count",
    "complete.is_complete.busy_s": "s",
    "complete.is_frame_sheaf.busy_s": "s",
    "complete.bounds.calls": "count",
    "complete.bounds.busy_s": "s",
    "frame_equiv.verify_frame_equivalence.busy_s": "s",
    "locale_equiv.etale_locale.busy_s": "s",
    "locale_equiv.etale_locale.elements": "count",
    "locale_equiv.cross_sections.busy_s": "s",
    "locale_equiv.cross_sections.sections": "count",
    "locale_equiv.verify_sh_lh_equivalence.busy_s": "s",
    "generate.busy_s": "s",
    "complete.budget_exceeded": "count",
    "locale_equiv.budget_exceeded": "count",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "harness.self_share": "ratio",
    "trace.overhead_s": "s",
}


def _require_program() -> None:
    """The program is imported from this checkout's ``src`` and nowhere else."""
    if not (SRC / "posheaf" / "__init__.py").is_file():
        sys.exit(f"error: no posheaf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _reference_loop() -> int:
    """A fixed pure-Python loop that takes ``REFERENCE_S`` on an uncontended
    core. Like the program, it builds tuples and frozensets and looks them up
    in a dict; a bare arithmetic loop slows less than the program on a busy
    core, and so tracks its speed less well."""
    seen: dict = {}
    for i in range(400):
        key = (i % 17, i % 5)
        seen[key] = seen.get(key, frozenset()) | frozenset((i % 7, i % 11, key))
    return len(seen)


class Clock:
    """Times calls, each between two runs of the reference loop, and scales a
    call's time to the speed at which the loop takes ``REFERENCE_S``."""

    def __init__(self):
        self.floor = math.inf
        self.last = self._reference()

    def _reference(self) -> float:
        t0 = time.perf_counter()
        _reference_loop()
        elapsed = time.perf_counter() - t0
        self.floor = min(self.floor, elapsed)
        return elapsed

    def time(self, fn, *args):
        """The call's result, and its sample: its time and the mean time of
        the reference loop just before and just after it."""
        before = self.last
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        self.last = self._reference()
        return result, (elapsed, (before + self.last) / 2)

    @staticmethod
    def scaled(sample) -> float:
        elapsed, reference = sample
        return elapsed * REFERENCE_S / reference


class Gate:
    """Counts ops attempted, failed (an outcome other than the pinned one, an
    outcome the theory rules out, or an exception) and undecided (ended in a
    budget)."""

    def __init__(self):
        self.attempted = self.failed = self.undecided = 0
        self.mismatches: list[str] = []

    def record(self, workload, op, out, probe_out=None) -> None:
        self.attempted += 1
        if "budget" in out:
            self.undecided += 1
        ok = workload.check(op, out) and (probe_out is None or probe_out == op.probe_expect)
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(
                    f"{op.name}: got {out} probe {probe_out}, expected {op.expect} probe {op.probe_expect}"
                )


def run_pass(workload, ops, tr, gate: Gate, samples=None, clock=None):
    """One pass over the op list: its unscaled time summed over the ops, and
    the outcomes. Each op's sample is appended to ``samples``."""
    clock = clock or Clock()
    outcomes = []
    total = 0.0
    for i, op in enumerate(ops):
        out, sample = clock.time(_run_op, workload, op, tr, i)
        total += sample[0]
        probe_out = None
        if tr.enabled:
            with tr.group("probe", op=i, probe=True):
                try:
                    probe_out = workload.probe(op, tr)
                except Exception:
                    probe_out = {"exception": traceback.format_exc(limit=3)}
        if samples is not None:
            samples[i].append(sample)
        gate.record(workload, op, out, probe_out)
        outcomes.append(out)
    return total, outcomes


def _run_op(workload, op, tr, i) -> dict:
    with tr.group("op", op=i):
        try:
            return workload.outcome(op, tr)
        except Exception:  # an unexpected exception fails the op; the run goes on
            return {"exception": traceback.format_exc(limit=3)}


def build_ops(workload, items, tr, clock: Clock):
    """One set-up: the ops built from the items, and each build's sample."""
    generated: dict = {}
    ops, samples = [], []
    for item in items:
        op, sample = clock.time(workload.build_op, item, tr, generated)
        ops.append(op)
        samples.append(sample)
    return ops, samples


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def quantile(values: list[float], p: float, grid: int = 40) -> float:
    """The Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each rank's
    slice of [0, 1]. Op costs jump by a tenth or more from one rank to the
    next, so a single order statistic would swing with every small change."""
    ranked = sorted(values)
    n = len(ranked)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    step = 1.0 / (n * grid)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(grid):
            t = (i * grid + k + 0.5) * step
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        weights.append(mass * step)
    return sum(w * x for w, x in zip(weights, ranked)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten values beyond it, and
    its estimate."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct * n / 100) >= 10:
            return pct, quantile(values, pct / 100)
    return 50.0, quantile(values, 0.5)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer sums over the spans of one traced pass."""
    from spans import duration, self_times

    selfs = self_times(spans)
    out: dict = {}
    op_total = sum(duration(s) for s in spans if s["name"] == "op")
    shares = {layer: 0.0 for layer in LAYERS}
    shares["harness"] = 0.0
    for s in spans:
        if s["name"] == "op":
            shares["harness"] += selfs[s["id"]]
            continue
        if s["name"] == "probe":
            continue
        name = s["name"]
        layer = name.split(".")[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + duration(s)
        for key, value in s["counts"].items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
        if not s["probe"]:
            if layer in shares:
                shares[layer] += selfs[s["id"]]
            if s["error"] == "budget":
                out[f"{layer}.budget_exceeded"] = out.get(f"{layer}.budget_exceeded", 0) + 1
    for layer, busy in shares.items():
        out[f"{layer}.self_share"] = busy / op_total if op_total else 0.0
    out["op_s"] = op_total
    return out


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "posheaf").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": _commit(),
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_program()
    from spans import NullTracer, Tracer, duration
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    items = workload.select(args.seed)

    clock = Clock()
    setups, generate_busy = [], []
    while len(setups) < SETUP_REPS or sum(e for rep in setups for e, _ in rep) < SETUP_MIN_S:
        tr = Tracer() if args.trace else NullTracer()
        ops, samples = build_ops(workload, items, tr, clock)
        setups.append(samples)
        if args.trace:
            generate_busy.append(sum(duration(s) for s in tr.spans if s["name"].startswith("generate.")))

    gate = Gate()
    op_samples: list[list[tuple]] = [[] for _ in ops]
    walls, traced = [], []
    tracer = Tracer()
    first_outcomes = None
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, outcomes = run_pass(workload, ops, NullTracer(), gate, op_samples, clock)
        walls.append(wall)
        first_outcomes = first_outcomes or outcomes
        if args.trace:
            mark = len(tracer.spans)
            run_pass(workload, ops, tracer, gate, clock=clock)
            traced.append(layer_metrics(tracer.spans[mark:]))
    per_op = [statistics.median(clock.scaled(s) for s in samples) for samples in op_samples]
    pct, tail_value = tail(per_op)

    prov = provenance(args)
    prov["docs_digest"] = digest([op.doc for op in ops])
    prov["outcome_digest"] = digest([[op.name, out] for op, out in zip(ops, first_outcomes)])
    prov["ops_per_pass"] = len(ops)
    prov["passes"] = len(walls)
    prov["unscaled_pass_median_s"] = statistics.median(walls)
    prov["reference_floor_ms"] = clock.floor * 1000.0
    prov["failed_share"] = gate.failed / gate.attempted
    prov["undecided_share"] = gate.undecided / gate.attempted
    prov["op_tail_percentile"] = pct
    if args.trace:
        values = {name: statistics.median(t.get(name, 0) for t in traced) for name in PER_LAYER}
        values["generate.busy_s"] = statistics.median(generate_busy)
        values["trace.overhead_s"] = statistics.median(t["op_s"] for t in traced) - statistics.median(walls)
        out_path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(out_path)
        prov["spans"] = str(out_path.relative_to(ROOT))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "pass_s": sum(per_op),
            "op_p50_ms": quantile(per_op, 0.5) * 1000.0,
            "op_tail_ms": tail_value * 1000.0,
            "setup_s": statistics.median(sum(clock.scaled(s) for s in rep) for rep in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for line in gate.mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    print(f"op_tail_ms is p{pct:g} of the times of {len(ops)} ops, each the median of {len(walls)} passes")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
