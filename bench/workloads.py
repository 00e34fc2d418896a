"""The benchmark's three workloads: inputs, ops, expected outcomes, probes.

Every workload is a fixed list of ops built from one workload seed. An op
loads its own instance from a JSON document (so no instance memo survives
from one op or repetition to the next) and calls the public functions of the
layers in the order the CLI path does. Each op's outcome is compared with the
outcome pinned for it in ``pools/<workload>.json`` and with the theory
predicate for its kind.

Why these workloads, and what each layer metric should move:

- ``laws`` is ``posheaf check posheaf``: frame check, gluing, POS1-POS3 and
  the internal-poset cross-check on ``gen_posheaf`` instances with the
  acceptance suite's settings, about a third of them ``break-POS3`` and
  ``remove-amalgamation`` mutants. Negatives stop at their first witness while
  positives walk every cover. Binary covers should move it; Sub/Dow
  enumeration changes should not.
  ``jsonio.load.*`` -> ``op_p50_ms``; ``frames.verify.*``,
  ``sheaves.verify_sheaf.*`` and ``orders.verify_posheaf.busy_s`` ->
  ``pass_s`` and ``op_p50_ms``.
- ``lattices`` is ``posheaf check frame-sheaf`` plus the frame equivalence
  and ``bounds`` of every subsheaf: Omega, P and D over the fixture frames,
  ``posheaf_ab``, ``m3`` and small generated posheaves. Sub/Dow enumeration
  under next-closure is its hot path. ``sheaves.enumerate_subsheaves.*``,
  ``orders.enumerate_downsheaves.*``, ``complete.*`` and
  ``frame_equiv.verify_frame_equivalence.busy_s`` -> ``pass_s`` and
  ``op_tail_ms``.
- ``etale`` is ``lambda``, ``gamma`` and ``verify equivalence`` on generated
  sheaves, their ``remove-amalgamation`` mutants (presheaves that take the
  reflection path) and the fixture locales, one of which is not a local
  homeomorphism, plus one op that ends in the section budget (exit 3).
  Frame kernels and the section searches are its hot path; a Sub-enumeration
  change must not move it. ``frames.verify.*`` and ``locale_equiv.*`` ->
  ``pass_s`` and ``op_tail_ms``.
- ``generate.busy_s`` -> ``setup_s`` everywhere, and
  ``<layer>.budget_exceeded`` -> the undecided share.

An op's time is the median of its repetitions in a run, each scaled to a
fixed reference speed (see ``run.py``), which is steady only when
every op repeats a few dozen times in a run. So a pass over a workload's
list must take well under a second, and each workload draws only pool items
that cost at most its ``max_cost_ms``. For the same reason
``lattices`` leaves out the fixtures that take half a second or more on a
2 GHz Xeon core: Omega and P over FRAME_D, D over ``posheaf_ab``, and
everything over the frame-6 fixtures or P(sheaf_ab), which take 12 s or more.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from posheaf import jsonio
from posheaf.complete import bounds, is_complete, is_frame_sheaf
from posheaf.fixtures import (
    FIXTURE_FRAMES,
    identity_locale,
    m3_posheaf,
    open_inclusion,
    posheaf_ab,
    three_chain_over_2,
)
from posheaf.frame_equiv import verify_frame_equivalence
from posheaf.generate import gen_frame, gen_posheaf, gen_sheaf, mutate, GenConfig
from posheaf.locale_equiv import (
    LocaleOverX,
    cross_sections,
    etale_locale,
    verify_sh_lh_equivalence,
)
from posheaf.orders import (
    PoSheaf,
    discrete,
    down_power_sheaf,
    enumerate_downsheaves,
    omega,
    power_sheaf,
    verify_posheaf,
)
from posheaf.report import Budget, ResourceLimit
from posheaf.sheaves import Presheaf, enumerate_subsheaves, terminal, verify_sheaf

from spans import NullTracer

POOL_DIR = Path(__file__).resolve().parent / "pools"

# A stratum of the pool closes when it holds a workload's stratum_size items
# or when the next item costs more than STRATUM_SPREAD times its cheapest one,
# so every seed draws a list of nearly the same cost and the costliest items
# are in every list.
STRATUM_SPREAD = 1.1


# ---------------------------------------------------------------- instances

def _frame(name):
    return FIXTURE_FRAMES[name]()


FIXTURES = {
    "omega(FRAME_2)": lambda: omega(_frame("FRAME_2")),
    "omega(FRAME_3)": lambda: omega(_frame("FRAME_3")),
    "power(terminal(FRAME_2))": lambda: power_sheaf(terminal(_frame("FRAME_2")), verify=False),
    "power(terminal(FRAME_3))": lambda: power_sheaf(terminal(_frame("FRAME_3")), verify=False),
    "down_power(discrete(terminal(FRAME_2)))": lambda: down_power_sheaf(discrete(terminal(_frame("FRAME_2"))), verify=False),
    "down_power(discrete(terminal(FRAME_3)))": lambda: down_power_sheaf(discrete(terminal(_frame("FRAME_3"))), verify=False),
    "posheaf_ab": posheaf_ab,
    "m3": m3_posheaf,
    "identity(FRAME_D)": lambda: identity_locale(_frame("FRAME_D")),
    "open_inclusion(FRAME_D,a)": lambda: open_inclusion(_frame("FRAME_D"), "a"),
    "three_chain_over_2": three_chain_over_2,
}


def recipe_name(recipe: dict) -> str:
    if "fixture" in recipe:
        return recipe["fixture"]
    name = f"{recipe['gen']}({recipe['max_opens']},{recipe['max_carrier']})[{recipe['seed']}]"
    return name + (f"+{recipe['mutate']}" if recipe.get("mutate") else "")


def build_instance(recipe: dict, tr=NullTracer(), generated: dict | None = None):
    """The instance a recipe names, built with the public generate and fixtures
    functions. ``generated`` keeps the unmutated instances already built, so
    that a seed's mutants share their parent's generation."""
    if "fixture" in recipe:
        return tr.call("fixtures.build", FIXTURES[recipe["fixture"]])
    cfg = GenConfig(seed=recipe["seed"], max_opens=recipe["max_opens"], max_carrier=recipe["max_carrier"])
    key = (recipe["gen"], cfg)
    generated = {} if generated is None else generated
    if key not in generated:
        X = tr.call("generate.gen_frame", gen_frame, cfg)
        build = gen_posheaf if recipe["gen"] == "posheaf" else gen_sheaf
        generated[key] = tr.call(f"generate.gen_{recipe['gen']}", build, X, cfg)
    instance = generated[key]
    if recipe.get("mutate"):
        instance = tr.call("generate.mutate", mutate, instance, recipe["mutate"], cfg)
    return instance


def _labelled(P: Presheaf) -> Presheaf:
    """The same presheaf with every section replaced by its label, so that
    power-sheaf carriers serialize."""
    carriers = {u: tuple(P.label(u, x) for x in P.carriers[u]) for u in P.frame.elements}
    res = {
        (u, v): {P.label(u, x): P.label(v, y) for x, y in table.items()}
        for (u, v), table in P.res.items()
        if u != v
    }
    return Presheaf(P.frame, carriers, res)


def to_doc(instance) -> str:
    if isinstance(instance, LocaleOverX):
        doc = jsonio.dump_locale_doc(instance)
    elif isinstance(instance, PoSheaf):
        sheaf = _labelled(instance.sheaf)
        orders = {
            u: [(instance.label(u, x), instance.label(u, y)) for x, y in instance.orders[u]]
            for u in instance.frame.elements
        }
        doc = jsonio.dump_posheaf_doc(PoSheaf(sheaf, orders))
    else:
        doc = jsonio.dump_presheaf_doc(instance)
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------- ops

def _first_failure(report):
    bad = report.first_failure()
    return None if bad is None else bad.name


def _load(loader, text: str):
    return loader(json.loads(text))


def _budget(op) -> Budget:
    return Budget(**op.budget) if op.budget else Budget()


def laws_op(op, tr) -> dict:
    F = tr.call("jsonio.load", _load, jsonio.load_posheaf, op.doc)
    frame = tr.call("frames.verify", F.frame.verify)
    cert = tr.call("sheaves.verify_sheaf", verify_sheaf, F.sheaf)
    tr.count(covers=len(cert.entries), families=sum(e["families"] for e in cert.entries))
    report = tr.call("orders.verify_posheaf", verify_posheaf, F)
    return {
        "frame": frame.passed,
        "sheaf": cert.passed,
        "amalgamations": (cert.witness or {}).get("amalgamations"),
        "posheaf": report.passed,
        "first_failure": _first_failure(report),
        "failed_laws": [r.name for r in report.subreports if not r.passed],
    }


def _bounds_in_scope(F: PoSheaf) -> bool:
    """Criterion 4's size limit for running bounds over a whole Sub lattice."""
    return len(F.frame.elements) <= 4 and sum(len(F.carrier(u)) for u in F.frame.elements) <= 40


def lattices_op(op, tr) -> dict:
    budget = _budget(op)
    F = tr.call("jsonio.load", _load, jsonio.load_posheaf, op.doc)
    out: dict = {}
    cert = tr.call("complete.is_complete", is_complete, F, budget=budget)
    out["complete"] = cert.passed
    if cert.passed:
        fs = tr.call("complete.is_frame_sheaf", is_frame_sheaf, F, budget=budget)
        out["frame_sheaf"] = fs.passed
        if fs.passed:
            eq = tr.call("frame_equiv.verify_frame_equivalence", verify_frame_equivalence, F, budget=budget)
            out["frame_equivalence"] = eq.passed
    if _bounds_in_scope(F):
        subs = tr.call("sheaves.enumerate_subsheaves", enumerate_subsheaves, F.sheaf, budget=budget)
        tr.count(members=len(subs))
        found = [tr.call("complete.bounds", bounds, F, S) for S in subs]
        out["subsheaves"] = len(subs)
        out["sups"] = sum(b.sup is not None for b in found)
        out["infs"] = sum(b.inf is not None for b in found)
    return out


LOCALE_KINDS = ("local-homeomorphism", "not-local-homeomorphism")


def etale_op(op, tr) -> dict:
    budget = _budget(op)
    if op.kind in LOCALE_KINDS:
        f = tr.call("jsonio.load", _load, jsonio.load_locale, op.doc)
        G = tr.call("locale_equiv.cross_sections", cross_sections, f, budget=budget)
        tr.count(sections=_sections(G))
        E = tr.call("locale_equiv.etale_locale", etale_locale, G.sheaf, budget=budget)
        tr.count(elements=len(E.frame.elements))
        instance = f
    else:
        P = tr.call("jsonio.load", _load, jsonio.load_presheaf, op.doc)
        E = tr.call("locale_equiv.etale_locale", etale_locale, P, budget=budget)
        tr.count(elements=len(E.frame.elements))
        G = tr.call("locale_equiv.cross_sections", cross_sections, E.locale, budget=budget)
        tr.count(sections=_sections(G))
        instance = P
    report = tr.call("locale_equiv.verify_sh_lh_equivalence", verify_sh_lh_equivalence, instance, budget=budget)
    return {
        "passed": report.passed,
        "first_failure": _first_failure(report),
        "laws": {r.name: r.passed for r in report.subreports},
        "input_is_sheaf": report.details.get("input_is_sheaf"),
        "elements": len(E.frame.elements),
        "sections": _sections(G),
    }


def _sections(G) -> int:
    return sum(len(G.sheaf.carriers[u]) for u in G.sheaf.frame.elements)


# ------------------------------------------------------------------- probes
# Public functions reached only from inside another layer are also called
# directly, on a fresh load of the op's document, in spans marked as probes.
# Probe spans count toward the layer's busy time and never toward op time.

def lattices_probe(op, tr) -> dict:
    budget = _budget(op)
    out = {}
    F = _load(jsonio.load_posheaf, op.doc)
    cert = tr.call("sheaves.verify_sheaf", verify_sheaf, F.sheaf)
    tr.count(covers=len(cert.entries), families=sum(e["families"] for e in cert.entries))
    out["posheaf"] = tr.call("orders.verify_posheaf", verify_posheaf, F).passed
    for name, fn, arg in (
        ("sheaves.enumerate_subsheaves", enumerate_subsheaves, F.sheaf),
        ("orders.enumerate_downsheaves", enumerate_downsheaves, F),
    ):
        try:
            members = len(tr.call(name, fn, arg, budget=budget))
        except ResourceLimit:
            out[name] = "budget"
            continue
        tr.count(members=members)
        out[name] = members
    return out


def etale_probe(op, tr) -> dict:
    budget = _budget(op)
    try:
        if op.kind in LOCALE_KINDS:
            sheaf = cross_sections(_load(jsonio.load_locale, op.doc), budget=budget).sheaf
        else:
            sheaf = _load(jsonio.load_presheaf, op.doc)
        E = etale_locale(sheaf, budget=budget)
    except ResourceLimit:
        return {"budget": True}
    frame = tr.call("frames.verify", E.frame.verify)
    cert = tr.call("sheaves.verify_sheaf", verify_sheaf, sheaf)
    tr.count(covers=len(cert.entries), families=sum(e["families"] for e in cert.entries))
    return {"frame": frame.passed, "sheaf": cert.passed}


def laws_probe(op, tr) -> dict:
    """Every public function of the laws path is called directly by the op."""
    return {}


# ------------------------------------------------------- theory predicates

def laws_theory(kind: str, out: dict) -> bool:
    if kind == "positive":
        return out["frame"] and out["sheaf"] and out["posheaf"]
    if kind == "break-POS3":
        pos = [n for n in out["failed_laws"] if n in ("posheaf.POS1", "posheaf.POS2", "posheaf.POS3")]
        return out["frame"] and out["sheaf"] and not out["posheaf"] and pos == ["posheaf.POS3"]
    if kind == "remove-amalgamation":
        return out["frame"] and not out["sheaf"] and out["amalgamations"] == 0
    return False


def lattices_theory(kind: str, out: dict) -> bool:
    if kind == "frame-sheaf":
        return bool(out.get("complete") and out.get("frame_sheaf") and out.get("frame_equivalence"))
    if kind == "complete-not-frame":
        return out.get("complete") is True and out.get("frame_sheaf") is False
    return kind == "generated"


def etale_theory(kind: str, out: dict) -> bool:
    if "budget" in out:
        return kind == "budget"
    laws = out["laws"]
    if kind == "sheaf":
        return out["passed"] and out["input_is_sheaf"] is True
    if kind == "remove-amalgamation":
        return out["passed"] and out["input_is_sheaf"] is False
    if kind == "local-homeomorphism":
        return laws["local_homeomorphism"] and laws["counit_iso"] and laws["counit_iso_iff_lh"]
    if kind == "not-local-homeomorphism":
        return not laws["local_homeomorphism"] and not laws["counit_iso"] and laws["counit_iso_iff_lh"]
    return False


# ----------------------------------------------------------------- workloads

@dataclass
class Op:
    name: str
    kind: str
    doc: str
    expect: dict
    probe_expect: dict = field(default_factory=dict)
    budget: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    run: object
    probe: object
    theory: object
    max_cost_ms: float
    stratum_size: int

    def pool(self) -> list[dict]:
        return json.loads((POOL_DIR / f"{self.name}.json").read_text())["items"]

    def select(self, seed: int) -> list[dict]:
        """The pool items one workload seed runs: every fixed item, and one
        item drawn from each cost stratum of each kind, among the items that
        cost at most ``max_cost_ms``."""
        rng = random.Random(f"{self.name}:{seed}")
        items = self.pool()
        chosen = [it for it in items if it.get("fixed")]
        drawn = [it for it in items if not it.get("fixed") and it["cost_ms"] <= self.max_cost_ms]
        for kind in sorted({it["kind"] for it in drawn}):
            ranked = sorted(
                (it for it in drawn if it["kind"] == kind),
                key=lambda it: (it["cost_ms"], it["name"]),
            )
            for stratum in _strata(ranked, self.stratum_size):
                chosen.append(rng.choice(stratum))
        return chosen

    def build_op(self, item: dict, tr=NullTracer(), generated: dict | None = None) -> Op:
        """Set-up of one op: generate its instance and serialize it."""
        return Op(
            name=item["name"],
            kind=item["kind"],
            doc=tr.call("jsonio.dump", to_doc, build_instance(item["recipe"], tr, generated)),
            expect=item["expect"],
            probe_expect=item.get("probe_expect", {}),
            budget=item.get("budget"),
        )

    def build(self, items: list[dict], tr=NullTracer()) -> list[Op]:
        generated: dict = {}
        return [self.build_op(it, tr, generated) for it in items]

    def outcome(self, op: Op, tr=NullTracer()) -> dict:
        try:
            return self.run(op, tr)
        except ResourceLimit as exc:
            return {"budget": exc.what}

    def check(self, op: Op, out: dict) -> bool:
        return out == op.expect and self.theory(op.kind, out)


def _strata(ranked: list[dict], size: int) -> list[list[dict]]:
    strata: list[list[dict]] = []
    for it in ranked:
        cur = strata[-1] if strata else None
        if cur is None or len(cur) == size or it["cost_ms"] > STRATUM_SPREAD * max(cur[0]["cost_ms"], 0.01):
            strata.append([it])
        else:
            cur.append(it)
    return strata


WORKLOADS = {
    "laws": Workload("laws", laws_op, laws_probe, laws_theory, max_cost_ms=40.0, stratum_size=12),
    "lattices": Workload("lattices", lattices_op, lattices_probe, lattices_theory, max_cost_ms=30.0, stratum_size=2),
    "etale": Workload("etale", etale_op, etale_probe, etale_theory, max_cost_ms=100.0, stratum_size=5),
}
