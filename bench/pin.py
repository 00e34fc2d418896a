"""Rebuild the pinned pools in ``pools/``: the candidate inputs of each
workload, the outcome every op and probe gives at the current commit, and the
op's cost, which only orders the pool into the strata that seeds draw from.

An item is pinned only if five fresh runs of its op agree and the outcome
satisfies the theory predicate for its kind. The cost is the median time of
those runs, in milliseconds.

    python3 bench/pin.py [laws|lattices|etale ...]
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from posheaf.report import PosheafError  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import POOL_DIR, WORKLOADS, Op, build_instance, recipe_name, to_doc  # noqa: E402

LAWS_GEN = {"gen": "posheaf", "max_opens": 6, "max_carrier": 3}
LATTICES_GEN = {"gen": "posheaf", "max_opens": 4, "max_carrier": 2}
ETALE_GEN = {"gen": "sheaf", "max_opens": 5, "max_carrier": 2}
COST_RUNS = 5


def _generated(base: dict, seeds, mutations, kind_of_parent: str) -> list[dict]:
    out = []
    for seed in seeds:
        for mutation in (None, *mutations):
            recipe = dict(base, seed=seed, mutate=mutation)
            out.append({"recipe": recipe, "kind": mutation or kind_of_parent})
    return out


def candidates(workload: str) -> list[dict]:
    if workload == "laws":
        return _generated(LAWS_GEN, range(300), ("break-POS3", "remove-amalgamation"), "positive")
    if workload == "lattices":
        fixed = [
            {"recipe": {"fixture": name}, "kind": "frame-sheaf", "fixed": True}
            for name in (
                "omega(FRAME_2)",
                "omega(FRAME_3)",
                "power(terminal(FRAME_2))",
                "power(terminal(FRAME_3))",
                "down_power(discrete(terminal(FRAME_2)))",
                "down_power(discrete(terminal(FRAME_3)))",
                "posheaf_ab",
            )
        ]
        fixed.append({"recipe": {"fixture": "m3"}, "kind": "complete-not-frame", "fixed": True})
        return fixed + _generated(LATTICES_GEN, range(120), (), "generated")
    if workload == "etale":
        fixed = [
            {"recipe": {"fixture": "identity(FRAME_D)"}, "kind": "local-homeomorphism", "fixed": True},
            {"recipe": {"fixture": "open_inclusion(FRAME_D,a)"}, "kind": "local-homeomorphism", "fixed": True},
            {"recipe": {"fixture": "three_chain_over_2"}, "kind": "not-local-homeomorphism", "fixed": True},
            {
                "recipe": dict(ETALE_GEN, seed=15, mutate=None),
                "kind": "budget",
                "fixed": True,
                "budget": {"lambda_elements": 12},
            },
        ]
        return fixed + _generated(ETALE_GEN, range(150), ("remove-amalgamation",), "sheaf")
    raise SystemExit(f"unknown workload {workload!r}")


def pin(workload: str) -> list[dict]:
    w = WORKLOADS[workload]
    items = []
    for cand in candidates(workload):
        name = recipe_name(cand["recipe"])
        if cand.get("budget"):
            name += "@" + ",".join(f"{k}={v}" for k, v in sorted(cand["budget"].items()))
        try:
            doc = to_doc(build_instance(cand["recipe"]))
        except PosheafError:
            continue  # the generator or the mutation does not apply to this seed
        op = Op(name=name, kind=cand["kind"], doc=doc, expect={}, budget=cand.get("budget"))
        outcomes, costs = [], []
        for _ in range(COST_RUNS):
            t0 = time.perf_counter()
            outcomes.append(w.outcome(op))
            costs.append((time.perf_counter() - t0) * 1000.0)
        probes = [w.probe(op, Tracer()) for _ in range(2)]
        if any(o != outcomes[0] for o in outcomes) or probes[0] != probes[1]:
            raise SystemExit(f"{name}: outcome differs between fresh runs")
        if not w.theory(op.kind, outcomes[0]):
            raise SystemExit(f"{name}: outcome {outcomes[0]} contradicts the theory for {op.kind}")
        item = {
            "name": name,
            "kind": cand["kind"],
            "recipe": cand["recipe"],
            "cost_ms": round(statistics.median(costs), 2),
            "expect": outcomes[0],
            "probe_expect": probes[0],
        }
        for key in ("fixed", "budget"):
            if key in cand:
                item[key] = cand[key]
        items.append(item)
        print(f"{workload}: {name} {item['cost_ms']} ms", file=sys.stderr)
    return items


def main(argv) -> None:
    for workload in argv or list(WORKLOADS):
        items = pin(workload)
        POOL_DIR.mkdir(exist_ok=True)
        text = json.dumps({"workload": workload, "items": items}, indent=1, sort_keys=True)
        (POOL_DIR / f"{workload}.json").write_text(text + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
