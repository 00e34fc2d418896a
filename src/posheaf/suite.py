"""The acceptance battery: every multi-form characterization agreeing on a
generated-plus-mutated corpus, the canonical complete/frame sheaves with
their textbook adjoints, adjunction laws, both equivalences, the agreement
inequality, ordered sheaf-locale axioms, mutation soundness, and byte-level
determinism of this very report."""
from __future__ import annotations

import itertools
import json

from .complete import (
    _adjoint_square_check,
    bounds,
    check_finite_completeness,
    image_subsheaf,
    is_complete,
    is_frame_sheaf,
    sup_morphism,
    verify_sup_preserving,
)
from .frames import FrameHom, frame_iso
from .frame_equiv import FrameUnderX, frame_hom_to_sheaf, verify_frame_equivalence
from .fixtures import (
    FIXTURE_FRAMES,
    frame_2,
    frame_3,
    frame_6,
    frame_d,
    identity_locale,
    m3_posheaf,
    open_inclusion,
    posheaf_ab,
    sheaf_ab,
    three_chain_over_2,
)
from .generate import GenConfig, gen_endomorphism, gen_frame, gen_frame_morphism, gen_posheaf, mutate
from .locale_equiv import (
    cross_sections,
    etale_locale,
    check_cposl,
    check_posl,
    triangle_gamma_side,
    triangle_lambda_side,
    unit,
    verify_sh_lh_equivalence,
)
from .orders import (
    PoSheaf,
    discrete,
    down_closure,
    down_embedding,
    down_power_sheaf,
    is_downsheaf,
    morphism_leq,
    omega,
    power_inclusion,
    power_sheaf,
    principal,
    verify_galois,
    verify_order_preserving,
    verify_posheaf,
)
from .report import Budget, CheckReport, PosheafError, RepairFailed, ResourceLimit
from .sheaves import (
    Point,
    SheafMorphism,
    SubSheaf,
    enumerate_points,
    enumerate_subsheaves,
    epsilon,
    generate_subsheaf,
    sheaf_iso,
    subterminal,
    terminal,
    verify_morphism,
    verify_presheaf,
    verify_sheaf,
)

CRITERIA_TITLES = {
    1: "equivalence batteries agree on every instance",
    2: "canonical objects are complete frame sheaves with the textbook adjoints",
    3: "down-closure and sup adjunctions verified exhaustively",
    4: "left adjoints preserve suprema, right adjoints preserve infima",
    5: "the adjoint square holds and completeness is self-dual",
    6: "frame sheaves are frame homs under the base, both roundtrips",
    7: "triangle identities; unit bijective on sheaves; counit iso exactly on local homeomorphisms",
    8: "sheaf locale of the terminal presheaf is the base; sections of identity and open inclusions",
    9: "agreement opens shrink under tuple refinement",
    10: "ordered sheaf-locale axioms match the posheaf layer verdicts",
    11: "each mutation kind is caught by exactly its targeted check",
    12: "the suite report is byte-identical across runs",
}


def _agreement_subreport(report: CheckReport) -> bool:
    subs = {r.name: r for r in report.subreports}
    for name, rep in subs.items():
        if name.endswith("agreement") or name.endswith("agreement_with_posheaf") or name.endswith(
            "agreement_with_completeness"
        ):
            return rep.passed
    return True


class _Battery:
    """Accumulates battery applications: every record must have agreeing
    forms; mutated negatives are tracked for the corpus quota."""

    def __init__(self):
        self.records = []
        self.disagreements = []

    def add(self, battery: str, instance: str, verdict: bool, agree: bool, mutated_negative: bool = False):
        self.records.append(
            {
                "battery": battery,
                "instance": instance,
                "verdict": verdict,
                "agreement": agree,
                "mutated_negative": mutated_negative and not verdict,
            }
        )
        if not agree:
            self.disagreements.append({"battery": battery, "instance": instance})

    def add_report(self, battery: str, instance: str, report: CheckReport, mutated_negative: bool = False):
        """add() with the verdict (the reconciled forms' own, when the report
        keeps one) and the agreement read from a check's report."""
        self.add(battery, instance, report.details.get("verdict", report.passed), _agreement_subreport(report), mutated_negative)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def mutated_negatives(self) -> int:
        return sum(1 for r in self.records if r["mutated_negative"])

    def summary(self) -> dict:
        per_battery: dict = {}
        for r in self.records:
            entry = per_battery.setdefault(r["battery"], {"instances": 0, "negatives": 0, "mutated_negatives": 0})
            entry["instances"] += 1
            entry["negatives"] += 0 if r["verdict"] else 1
            entry["mutated_negatives"] += 1 if r["mutated_negative"] else 0
        return {
            "instances": self.total,
            "mutated_negatives": self.mutated_negatives,
            "per_battery": {k: per_battery[k] for k in sorted(per_battery)},
            "disagreements": self.disagreements,
        }


def _generated_posheaves(seed: int, count: int, budget: Budget) -> list[tuple[str, PoSheaf]]:
    out = []
    i = 0
    attempts = 0
    while len(out) < count and attempts < count * 4:
        cfg = GenConfig(seed=seed * 1000 + attempts, max_opens=6, max_carrier=3)
        attempts += 1
        try:
            X = gen_frame(cfg)
            F = gen_posheaf(X, cfg)
        except RepairFailed:
            continue
        out.append((f"gen[{cfg.seed}]", F))
        i += 1
    return out


def _criterion_1(seed: int, budget: Budget) -> tuple[bool, dict]:
    battery = _Battery()
    corpus = _generated_posheaves(seed, 32, budget)
    fixture_posheaves = [
        ("omega(FRAME_2)", omega(frame_2())),
        ("omega(FRAME_3)", omega(frame_3())),
        ("omega(FRAME_D)", omega(frame_d())),
        ("posheaf_ab", posheaf_ab()),
        ("discrete(sheaf_ab)", discrete(sheaf_ab())),
        ("m3", m3_posheaf()),
    ]
    all_posheaves = corpus + fixture_posheaves

    # posheaf battery: the patching-law reading versus the internal-poset reading
    pos3_mutants = []
    for name, F in all_posheaves:
        rep = verify_posheaf(F)
        battery.add_report("posheaf", name, rep)
    for name, F in all_posheaves:
        try:
            mutant = mutate(F, "break-POS3", GenConfig(seed=seed))
        except PosheafError:
            continue
        rep = verify_posheaf(mutant)
        battery.add_report("posheaf", f"{name}+break-POS3", rep, mutated_negative=True)
        pos3_mutants.append((name, F, mutant))
    # the sheaf-of-posets-but-not-posheaf pattern
    not_posheaf = PoSheaf(sheaf_ab(), {"a": [("x", "y")]})
    rep = verify_posheaf(not_posheaf)
    battery.add_report("posheaf", "order-below-discrete-above", rep)

    # order-preservation battery (three forms)
    op_subjects = corpus[:12] + fixture_posheaves[:4]
    for name, F in op_subjects:
        ident = SheafMorphism.identity(F.sheaf)
        rep = verify_order_preserving(ident, F, F)
        battery.add_report("order_preserving", f"id[{name}]", rep)
        Om = omega(F.frame)
        const_top = SheafMorphism.of(F.sheaf, Om.sheaf, lambda u, x: u)
        rep2 = verify_order_preserving(const_top, F, Om)
        battery.add_report("order_preserving", f"const_top[{name}]", rep2)
        if any(x != y for u in F.frame.elements for x, y in F.sorted_pairs(u)):
            rep3 = verify_order_preserving(ident, F, F.opposite())
            battery.add_report("order_preserving", f"flip[{name}]", rep3, mutated_negative=True)
    # identity into a patching-order mutant drops a comparable pair: all three
    # forms must reject it together
    for name, F, mutant in pos3_mutants:
        rep = verify_order_preserving(SheafMorphism.identity(F.sheaf), F, mutant)
        battery.add_report("order_preserving", f"into-mutant[{name}]", rep, mutated_negative=True)

    # morphism order battery (three forms)
    for name, F in corpus[:8]:
        cfg = GenConfig(seed=seed * 17 + len(name))
        alpha = gen_endomorphism(F, cfg)
        ident = SheafMorphism.identity(F.sheaf)
        for label, (a, b) in {
            "id<=id": (ident, ident),
            "endo<=endo": (alpha, alpha),
            "id<=endo": (ident, alpha),
        }.items():
            _, rep = morphism_leq(a, b, F, F)
            battery.add_report("morphism_order", f"{label}[{name}]", rep)

    # downsheaf battery (three forms, incl. classifier)
    for name, F in corpus[:16] + [("posheaf_ab", posheaf_ab())]:
        pts = enumerate_points(F.sheaf)
        top_pt = pts[-1]
        pr = principal(F, top_pt)
        rep = is_downsheaf(pr, F)
        battery.add_report("downsheaf", f"principal[{name}]", rep)
        strict = next(((u, x, y) for u in F.frame.elements for x, y in F.sorted_pairs(u) if x != y), None)
        if strict:
            u, x, y = strict
            upper = generate_subsheaf(F.sheaf, SubSheaf(F.sheaf, {u: [y]}), require_closed=False)
            rep2 = is_downsheaf(upper, F)
            battery.add_report("downsheaf", f"generated-upper[{name}]", rep2, mutated_negative=True)
            closed = down_closure(F, upper)
            rep3 = is_downsheaf(closed, F)
            battery.add_report("downsheaf", f"down-closure[{name}]", rep3)

    # Galois battery (three forms)
    for name, F in corpus[:6]:
        ident = SheafMorphism.identity(F.sheaf)
        rep = verify_galois(ident, ident, F, F)
        battery.add_report("galois", f"id_pair[{name}]", rep)
    for fname in ("FRAME_2", "FRAME_3", "FRAME_D"):
        Om = omega(FIXTURE_FRAMES[fname]())
        const_top = SheafMorphism.of(Om.sheaf, Om.sheaf, lambda u, w: u)
        const_bottom = SheafMorphism.of(Om.sheaf, Om.sheaf, lambda u, w: Om.frame.bottom)
        rep = verify_galois(const_top, const_bottom, Om, Om)
        battery.add_report("galois", f"broken_pair[omega({fname})]", rep, mutated_negative=True)
    # per-instance broken pairs: collapse-to-top against collapse-to-a-section
    for name, F in corpus[:14]:
        top_sections = F.carrier(F.frame.top)
        if len(F.frame.elements) < 2 or not top_sections:
            continue
        Om = omega(F.frame)
        const_top = SheafMorphism.of(F.sheaf, Om.sheaf, lambda u, x: u)
        x0 = top_sections[0]
        const_sec = SheafMorphism.of(Om.sheaf, F.sheaf, lambda u, w: F.sheaf.restrict(F.frame.top, x0, u))
        rep = verify_galois(const_top, const_sec, F, Om)
        battery.add_report("galois", f"broken_pair[{name}]", rep, mutated_negative=True)

    # completeness battery: all the equivalent readings, including the duals
    for name, F in corpus[:14] + fixture_posheaves:
        try:
            cert = is_complete(F, budget=budget)
        except ResourceLimit:
            continue
        agree = cert.agreement.passed
        battery.add("completeness", name, cert.passed, agree)

    # sup-preservation battery (three forms)
    for fname in ("FRAME_2", "FRAME_3", "FRAME_D"):
        Om = omega(FIXTURE_FRAMES[fname]())
        ident = SheafMorphism.identity(Om.sheaf)
        rep = verify_sup_preserving(ident, Om, Om, budget=budget)
        battery.add_report("sup_preserving", f"id[omega({fname})]", rep)
        frame = Om.frame
        c = frame.elements[1] if len(frame.elements) > 1 else frame.top
        shrink = SheafMorphism.of(Om.sheaf, Om.sheaf, lambda u, w: frame.meet(w, c))
        rep2 = verify_sup_preserving(shrink, Om, Om, budget=budget)
        battery.add_report("sup_preserving", f"shrink[omega({fname})]", rep2)
        const_top = SheafMorphism.of(Om.sheaf, Om.sheaf, lambda u, w: u)
        rep3 = verify_sup_preserving(const_top, Om, Om, budget=budget)
        battery.add_report("sup_preserving", f"const_top[omega({fname})]", rep3, mutated_negative=True)

    # finite completeness battery (adjoint vs per-open forms)
    for name, F in corpus[:10] + fixture_posheaves[:4]:
        rep = check_finite_completeness(F, mode="both")
        agree = all(
            sub.passed
            for inner in rep.subreports
            for sub in inner.subreports
            if sub.name.endswith("agreement")
        )
        battery.add("finite_completeness", name, rep.passed, agree)

    # frame sheaf battery (definition square vs Heyting/Frobenius)
    frame_sheaf_instances = [
        ("omega(FRAME_2)", omega(frame_2())),
        ("omega(FRAME_3)", omega(frame_3())),
        ("omega(FRAME_D)", omega(frame_d())),
        ("posheaf_ab", posheaf_ab()),
        ("power(sheaf_ab)", power_sheaf(sheaf_ab(), budget=budget, verify=False)),
        ("m3", m3_posheaf()),
    ]
    for name, F in frame_sheaf_instances:
        try:
            rep = is_frame_sheaf(F, budget=budget)
        except PosheafError:
            continue
        battery.add_report("frame_sheaf", name, rep)

    # top up the corpus until the instance and mutated-negative quotas clear,
    # deterministically in the seed
    extra = 0
    while (battery.total < 210 or battery.mutated_negatives < 55) and extra < 60:
        cfg = GenConfig(seed=seed * 9091 + extra, max_opens=5, max_carrier=3)
        extra += 1
        try:
            F = gen_posheaf(gen_frame(cfg), cfg)
        except RepairFailed:
            continue
        name = f"topup[{cfg.seed}]"
        rep = verify_posheaf(F)
        battery.add_report("posheaf", name, rep)
        try:
            mutant = mutate(F, "break-POS3", cfg)
        except PosheafError:
            continue
        rep_m = verify_posheaf(mutant)
        battery.add_report("posheaf", f"{name}+break-POS3", rep_m, mutated_negative=True)
        rep_o = verify_order_preserving(SheafMorphism.identity(F.sheaf), F, mutant)
        battery.add_report("order_preserving", f"into-mutant[{name}]", rep_o, mutated_negative=True)

    summary = battery.summary()
    passed = (
        not battery.disagreements
        and battery.total >= 200
        and battery.mutated_negatives >= 50
    )
    return passed, summary


def _minimal_extension_adjoints(F, P, cert) -> bool:
    frame = F.frame
    for u in frame.elements:
        for v in frame.down(u):
            if v == u:
                continue
            data = cert.restriction_data[(u, v)]
            left, right, extensions = data["left_adjoint"], data["right_adjoint"], P.carrier(u)
            if not data["surjective"] or left is None or right is None:
                return False
            for S, a, b in zip(P.carrier(v), left, right):
                if extensions[a] != S:
                    return False
                parts = {
                    w: [
                        x
                        for x in F.carriers[w]
                        if S.contains(frame.meet(w, v), F.restrict(w, x, frame.meet(w, v)))
                    ]
                    for w in frame.down(u)
                }
                expected = generate_subsheaf(F, SubSheaf(F, parts), require_closed=False)
                if extensions[b] != expected:
                    return False
    return True


def _canonical_triples(budget: Budget):
    """Per fixture frame: (Ω, ℙF, 𝔻F) with the designated fixture sheaf."""
    out = []
    for fname, build in FIXTURE_FRAMES.items():
        X = build()
        if fname == "FRAME_D":
            F = sheaf_ab(X)
            F_po = posheaf_ab(X)
        else:
            F = terminal(X)
            F_po = discrete(F)
        out.append((fname, X, F, F_po))
    return out


def _criterion_2(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {}
    ok = True
    for fname, X, F, F_po in _canonical_triples(budget):
        entry = {}
        Om = omega(X)
        entry["omega_complete"] = is_complete(Om, budget=budget).passed
        entry["omega_frame_sheaf"] = is_frame_sheaf(Om, budget=budget).passed
        P = power_sheaf(F, budget=budget, verify=False)
        cert_p = is_complete(P, budget=budget)
        entry["power_complete"] = cert_p.passed
        entry["power_frame_sheaf"] = is_frame_sheaf(P, budget=budget).passed
        entry["power_adjoints_match_formulas"] = _minimal_extension_adjoints(F, P, cert_p)
        D = down_power_sheaf(F_po, budget=budget, verify=False)
        cert_d = is_complete(D, budget=budget)
        entry["down_power_complete"] = cert_d.passed
        entry["down_power_frame_sheaf"] = is_frame_sheaf(D, budget=budget).passed
        results[fname] = entry
        ok = ok and all(entry.values())
    return ok, results


def _complete_fixture_list(budget: Budget):
    return [
        ("omega(FRAME_2)", omega(frame_2())),
        ("omega(FRAME_3)", omega(frame_3())),
        ("omega(FRAME_D)", omega(frame_d())),
        ("omega(FRAME_6)", omega(frame_6())),
        ("posheaf_ab", posheaf_ab()),
        ("m3", m3_posheaf()),
    ]


def _criterion_3(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {}
    ok = True
    adjoint_pairs = []
    for name, F in _complete_fixture_list(budget):
        entry = {}
        P = power_sheaf(F.sheaf, budget=budget, verify=False)
        D = down_power_sheaf(F, budget=budget, verify=False)
        down_map = SheafMorphism.of(P.sheaf, D.sheaf, lambda u, S: down_closure(F, S).clip(u))
        inc = power_inclusion(D, P)
        rep = verify_galois(down_map, inc, P, D)
        entry["down_closure_adjoint_to_inclusion"] = rep.passed
        adjoint_pairs.append((f"down⊣inc[{name}]", down_map, inc, P, D))
        sup_d, sup_p, sup_rep = sup_morphism(F, budget=budget)
        entry["sup_adjoint_to_embedding"] = sup_rep.passed
        adjoint_pairs.append((f"sup⊣emb[{name}]", sup_d, down_embedding(F, D), D, F))
        results[name] = entry
        ok = ok and all(entry.values())
    return ok, results, adjoint_pairs


def _adjoints_preserve_bounds(alpha: SheafMorphism, beta: SheafMorphism, F: PoSheaf, G: PoSheaf, budget: Budget) -> bool:
    """Left adjoints preserve existing sups; right adjoints existing infs."""
    subs = enumerate_subsheaves(F.sheaf, budget=budget)
    for S in subs:
        b = bounds(F, S)
        if b.sup is None:
            continue
        img = image_subsheaf(alpha, S)
        bi = bounds(G, img)
        expected = Point(b.sup.dom, alpha(b.sup.dom, b.sup.value))
        if bi.sup != expected:
            return False
    subs_g = enumerate_subsheaves(G.sheaf, budget=budget)
    for S in subs_g:
        b = bounds(G, S)
        if b.inf is None:
            continue
        img = image_subsheaf(beta, S)
        bi = bounds(F, img)
        expected = Point(b.inf.dom, beta(b.inf.dom, b.inf.value))
        if bi.inf != expected:
            return False
    return True


def _criterion_4(adjoint_pairs, budget: Budget) -> tuple[bool, dict]:
    results = {}
    ok = True
    for name, alpha, beta, F, G in adjoint_pairs:
        # subsheaf lattices of powersheaves over the larger classifiers grow
        # past desk scale; the small-frame pairs cover the same constructions
        if len(F.frame.elements) > 4 or sum(len(F.carrier(u)) for u in F.frame.elements) > 40:
            continue
        try:
            good = _adjoints_preserve_bounds(alpha, beta, F, G, budget)
        except ResourceLimit:
            results[name] = "budget"
            continue
        results[name] = good
        ok = ok and good
    checked = [k for k, v in results.items() if v is True]
    ok = ok and len(checked) >= 6
    return ok, results


def _criterion_5(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {"adjoint_square": {}, "self_dual": {}}
    ok = True
    for name, F in _complete_fixture_list(budget):
        cert = is_complete(F, budget=budget)
        results["adjoint_square"][name] = cert.passed and _adjoint_square_check(F, cert.restriction_data).passed
        ok = ok and results["adjoint_square"][name]
    corpus = _generated_posheaves(seed + 5, 8, budget) + [
        ("discrete(sheaf_ab)", discrete(sheaf_ab())),
        ("posheaf_ab", posheaf_ab()),
        ("m3", m3_posheaf()),
    ]
    for name, F in corpus:
        try:
            a = is_complete(F, budget=budget).passed
            b = is_complete(F.opposite(), budget=budget).passed
        except ResourceLimit:
            continue
        results["self_dual"][name] = a == b
        ok = ok and (a == b)
    return ok, results


def _generated_frame_homs(seed: int, count: int):
    """Frame homs via monotone maps between the join-irreducible posets
    (Birkhoff duality at desk scale)."""
    import random

    out = []
    attempt = 0
    while len(out) < count and attempt < count * 6:
        cfg_x = GenConfig(seed=seed * 31 + attempt, max_opens=6)
        cfg_l = GenConfig(seed=seed * 37 + attempt + 1, max_opens=6)
        attempt += 1
        X = gen_frame(cfg_x)
        L = gen_frame(cfg_l)
        jx = X.join_irreducibles()
        jl = L.join_irreducibles()
        rng = random.Random(f"hom:{seed}:{attempt}")
        if jl and not jx:
            continue
        mapping_j = {}
        ok = True
        for q in jl:
            mapping_j[q] = rng.choice(jx)
        for q1 in jl:
            for q2 in jl:
                if L.leq(q1, q2) and not X.leq(mapping_j[q1], mapping_j[q2]):
                    ok = False
        if not ok:
            continue
        hom_map = {
            x: L.join_all(q for q in jl if X.leq(mapping_j[q], x)) for x in X.elements
        }
        h = FrameUnderX(FrameHom(X, L, hom_map))
        if h.verify().passed:
            out.append((f"hom[{attempt}]", h))
    return out


def _criterion_6(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {"fixtures": {}, "generated": {}}
    ok = True
    fixture_frame_sheaves = [
        ("omega(FRAME_2)", omega(frame_2())),
        ("omega(FRAME_3)", omega(frame_3())),
        ("omega(FRAME_D)", omega(frame_d())),
        ("omega(FRAME_6)", omega(frame_6())),
        ("power(sheaf_ab)", power_sheaf(sheaf_ab(), budget=budget, verify=False)),
        ("posheaf_ab", posheaf_ab()),
    ]
    for name, F in fixture_frame_sheaves:
        rep = verify_frame_equivalence(F, budget=budget)
        results["fixtures"][name] = rep.passed
        ok = ok and rep.passed
    homs = _generated_frame_homs(seed, 20)
    for name, h in homs:
        rep_h = verify_frame_equivalence(h, budget=budget)
        rep_s = verify_frame_equivalence(frame_hom_to_sheaf(h), budget=budget)
        results["generated"][name] = rep_h.passed and rep_s.passed
        ok = ok and results["generated"][name]
    results["generated_count"] = len(homs)
    ok = ok and len(homs) >= 20
    return ok, results


def _fixture_presheaves():
    FD = frame_d()
    return [
        ("terminal(FRAME_D)", terminal(FD)),
        ("sheaf_ab", sheaf_ab(FD)),
        ("omega(FRAME_D)-as-sets", omega(FD).sheaf),
        ("subterminal(a)", subterminal(FD, "a")),
        ("terminal(FRAME_3)", terminal(frame_3())),
    ]


def _fixture_locales():
    FD = frame_d()
    return [
        ("identity(FRAME_D)", identity_locale(FD), True),
        ("open_inclusion(a)", open_inclusion(FD, "a"), True),
        ("lambda(sheaf_ab)", etale_locale(sheaf_ab(FD)).locale, True),
        ("three_chain_over_2", three_chain_over_2(), False),
    ]


def _criterion_7(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {"triangles": {}, "unit": {}, "counit": {}}
    ok = True
    for name, P in _fixture_presheaves():
        rep = triangle_lambda_side(P, budget=budget)
        results["triangles"][f"lambda[{name}]"] = rep.passed
        ok = ok and rep.passed
    for name, f, expect_lh in _fixture_locales():
        rep = triangle_gamma_side(f, budget=budget)
        results["triangles"][f"gamma[{name}]"] = rep.passed
        ok = ok and rep.passed
    for name, P in _fixture_presheaves():
        rep = verify_sh_lh_equivalence(P, budget=budget)
        results["unit"][name] = rep.passed
        ok = ok and rep.passed
    for name, f, expect_lh in _fixture_locales():
        rep = verify_sh_lh_equivalence(f, budget=budget)
        by_name = {r.name: r for r in rep.subreports}
        lh_ok = by_name["local_homeomorphism"].passed
        iso_ok = by_name["counit_iso"].passed
        agree = by_name["counit_iso_iff_lh"].passed
        expected = (lh_ok == expect_lh) and (iso_ok == expect_lh) and agree
        results["counit"][name] = expected
        ok = ok and expected
    return ok, results


def _criterion_8(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {}
    ok = True
    for fname, build in FIXTURE_FRAMES.items():
        X = build()
        E = etale_locale(terminal(X), budget=budget)
        mapping = E.locale.fstar.mapping
        bijective = len(set(mapping.values())) == len(X.elements) == len(E.frame.elements)
        iso = bijective and frame_iso(X, E.frame, fixed=dict(mapping)) == mapping
        results[f"lambda(terminal[{fname}])=base"] = bool(iso)
        ok = ok and iso
    FD = frame_d()
    G_id = cross_sections(identity_locale(FD), budget=budget)
    sizes_id = [len(G_id.sheaf.carriers[u]) for u in FD.elements]
    results["gamma(identity)=terminal"] = sizes_id == [1, 1, 1, 1]
    ok = ok and results["gamma(identity)=terminal"]
    G_a = cross_sections(open_inclusion(FD, "a"), budget=budget)
    sub = subterminal(FD, "a")
    match = [len(G_a.sheaf.carriers[u]) for u in FD.elements] == [len(sub.carriers[u]) for u in FD.elements]
    results["gamma(open_inclusion)=subterminal"] = match and sheaf_iso(G_a.sheaf, sub) is not None
    ok = ok and results["gamma(open_inclusion)=subterminal"]
    return ok, results


def _criterion_9(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {}
    ok = True
    for name, P in _fixture_presheaves():
        frame = P.frame
        secs = P.sections()
        holds = True
        checked = 0
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for left in itertools.combinations_with_replacement(secs, n):
                for right in itertools.combinations_with_replacement(secs, m):
                    joint = epsilon(P, list(left) + list(right))
                    apart = frame.meet(epsilon(P, list(left)), epsilon(P, list(right)))
                    checked += 1
                    if not frame.leq(joint, apart):
                        holds = False
                        break
                if not holds:
                    break
            if not holds:
                break
        results[name] = {"holds": holds, "tuples": checked}
        ok = ok and holds
    return ok, results


def _criterion_10(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {}
    ok = True
    FD = frame_d()

    # trivial orders on the identity locale
    f_id = identity_locale(FD)
    trivial = {u: [] for u in FD.elements}
    rep_p = check_posl(f_id, trivial, budget=budget)
    rep_c = check_cposl(f_id, trivial, budget=budget)
    results["identity+trivial"] = rep_p.passed and rep_c.passed
    ok = ok and results["identity+trivial"]

    # omega transported along the unit: complete, so CPOSL holds
    Om = omega(FD)
    E = etale_locale(Om.sheaf, budget=budget)
    G = cross_sections(E.locale, budget=budget)
    eta, _ = unit(Om.sheaf, E, G)
    orders = {
        u: [(eta(u, v), eta(u, w)) for v in Om.carrier(u) for w in Om.carrier(u) if FD.leq(v, w)]
        for u in FD.elements
    }
    rep_p = check_posl(E.locale, orders, budget=budget)
    rep_c = check_cposl(E.locale, orders, budget=budget)
    agree_p = _agreement_subreport(rep_p)
    agree_c = _agreement_subreport(rep_c)
    results["lambda(omega)+transported"] = rep_p.passed and rep_c.passed and agree_p and agree_c
    ok = ok and results["lambda(omega)+transported"]

    # posheaf_ab without bottoms: POSL holds, CPOSL fails at CPOSL1, and the
    # verdicts still agree with the posheaf layer
    E_ab = etale_locale(sheaf_ab(FD), budget=budget)
    discrete_orders = {u: [] for u in FD.elements}
    rep_p = check_posl(E_ab.locale, discrete_orders, budget=budget)
    rep_c = check_cposl(E_ab.locale, discrete_orders, budget=budget)
    by_name = {r.name: r for r in rep_c.subreports}
    results["lambda(sheaf_ab)+discrete"] = (
        rep_p.passed
        and not rep_c.passed
        and not by_name["cposl.CPOSL1"].passed
        and _agreement_subreport(rep_p)
        and _agreement_subreport(rep_c)
    )
    ok = ok and results["lambda(sheaf_ab)+discrete"]

    # ordered sheaf_ab transported: complete posheaf, CPOSL holds
    PAB = posheaf_ab(FD)
    G_ab = cross_sections(E_ab.locale, budget=budget)
    eta_ab, _ = unit(sheaf_ab(FD), E_ab, G_ab)
    orders_ab = {
        u: [
            (eta_ab(u, x), eta_ab(u, y))
            for (x, y) in PAB.sorted_pairs(u)
        ]
        for u in FD.elements
    }
    rep_p = check_posl(E_ab.locale, orders_ab, budget=budget)
    rep_c = check_cposl(E_ab.locale, orders_ab, budget=budget)
    results["lambda(sheaf_ab)+transported"] = (
        rep_p.passed and rep_c.passed and _agreement_subreport(rep_p) and _agreement_subreport(rep_c)
    )
    ok = ok and results["lambda(sheaf_ab)+transported"]
    return ok, results


def _criterion_11(seed: int, budget: Budget) -> tuple[bool, dict]:
    results = {}
    ok = True

    # break-distributivity: the frame verifier reports distributivity and
    # nothing earlier
    cfg = GenConfig(seed=seed)
    X = gen_frame(cfg)
    bad = mutate(X, "break-distributivity", cfg)
    from .frames import close_and_verify_frame

    _, rep = close_and_verify_frame(list(bad.elements), list(bad.pairs()))
    results["break-distributivity"] = rep.name == "frame.distributive"
    ok = ok and results["break-distributivity"]

    pos3_hits = nat_hits = amal_hits = 0
    pos3_ok = nat_ok = amal_ok = True
    for i in range(14):
        cfg = GenConfig(seed=seed * 7 + i, max_opens=6, max_carrier=3)
        try:
            F = gen_posheaf(gen_frame(cfg), cfg)
        except RepairFailed:
            continue
        try:
            mutant = mutate(F, "break-POS3", cfg)
            pos3_hits += 1
            rep = verify_posheaf(mutant)
            by_name = {r.name: r for r in rep.subreports}
            pos3_ok = pos3_ok and (
                not rep.passed
                and by_name["posheaf.POS1"].passed
                and by_name["posheaf.POS2"].passed
                and not by_name["posheaf.POS3"].passed
            )
        except PosheafError:
            pass
        try:
            mutant = mutate(F, "remove-amalgamation", cfg)
            amal_hits += 1
            cert = verify_sheaf(mutant.sheaf)
            amal_ok = amal_ok and verify_presheaf(mutant.sheaf).passed and not cert.passed and cert.witness["amalgamations"] == 0
        except PosheafError:
            pass
        try:
            alpha = gen_endomorphism(F, cfg)
            mutant_m = mutate((F, alpha), "break-naturality", cfg)
            nat_hits += 1
            nat_ok = nat_ok and not verify_morphism(mutant_m).passed
        except PosheafError:
            pass
    results["break-POS3"] = pos3_ok and pos3_hits >= 3
    results["remove-amalgamation"] = amal_ok and amal_hits >= 3
    results["break-naturality"] = nat_ok and nat_hits >= 3
    ok = ok and results["break-POS3"] and results["remove-amalgamation"] and results["break-naturality"]

    # break-meet-square: natural, order- and sup-preserving, fails only the
    # finite-meet component of the frame-morphism check
    from .complete import verify_frame_morphism

    Om, ident = gen_frame_morphism(frame_d(), cfg)
    Om2, shrink = mutate((Om, ident), "break-meet-square", cfg)
    rep = verify_frame_morphism(shrink, Om2, Om2, budget=budget)
    meets = [r for r in rep.subreports if r.name == "frame_morphism.finite_meets"][0]
    sup_rep = verify_sup_preserving(shrink, Om2, Om2, budget=budget)
    results["break-meet-square"] = (
        verify_morphism(shrink).passed
        and verify_order_preserving(shrink, Om2, Om2).passed
        and sup_rep.passed
        and not rep.passed
        and not meets.passed
    )
    ok = ok and results["break-meet-square"]
    return ok, results


def _run_criteria(seed: int, budget: Budget) -> list[dict]:
    criteria = []

    passed, details = _criterion_1(seed, budget)
    criteria.append({"id": 1, "title": CRITERIA_TITLES[1], "passed": passed, "details": details})

    passed, details = _criterion_2(seed, budget)
    criteria.append({"id": 2, "title": CRITERIA_TITLES[2], "passed": passed, "details": details})

    passed, details, adjoint_pairs = _criterion_3(seed, budget)
    criteria.append({"id": 3, "title": CRITERIA_TITLES[3], "passed": passed, "details": details})

    passed, details = _criterion_4(adjoint_pairs, budget)
    criteria.append({"id": 4, "title": CRITERIA_TITLES[4], "passed": passed, "details": details})

    passed, details = _criterion_5(seed, budget)
    criteria.append({"id": 5, "title": CRITERIA_TITLES[5], "passed": passed, "details": details})

    passed, details = _criterion_6(seed, budget)
    criteria.append({"id": 6, "title": CRITERIA_TITLES[6], "passed": passed, "details": details})

    passed, details = _criterion_7(seed, budget)
    criteria.append({"id": 7, "title": CRITERIA_TITLES[7], "passed": passed, "details": details})

    passed, details = _criterion_8(seed, budget)
    criteria.append({"id": 8, "title": CRITERIA_TITLES[8], "passed": passed, "details": details})

    passed, details = _criterion_9(seed, budget)
    criteria.append({"id": 9, "title": CRITERIA_TITLES[9], "passed": passed, "details": details})

    passed, details = _criterion_10(seed, budget)
    criteria.append({"id": 10, "title": CRITERIA_TITLES[10], "passed": passed, "details": details})

    passed, details = _criterion_11(seed, budget)
    criteria.append({"id": 11, "title": CRITERIA_TITLES[11], "passed": passed, "details": details})

    return criteria


def acceptance_suite(seed: int = 42, budget: Budget | None = None, *, determinism_rerun: bool = True) -> dict:
    """Run the full battery; criterion 12 reruns criteria 1-11 and demands a
    byte-identical serialization."""
    budget = budget or Budget()
    first = _run_criteria(seed, budget)
    if determinism_rerun:
        second = _run_criteria(seed, budget)
        identical = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    else:
        identical = True
    first.append(
        {
            "id": 12,
            "title": CRITERIA_TITLES[12],
            "passed": identical,
            "details": {"rerun_compared": determinism_rerun},
        }
    )
    return {
        "seed": seed,
        "passed": all(c["passed"] for c in first),
        "criteria": first,
    }
