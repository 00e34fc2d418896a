"""Order layer: POS1-3 vs the internal poset, point/morphism order,
downsheaves, principal ideals, powersheaves, down-closure, Galois pairs."""
from __future__ import annotations

import sys

import pytest

import oracles
from posheaf import sheaves
from posheaf.frames import FiniteFrame, FinitePoset, FrameHom
from posheaf.report import MalformedInput
from posheaf.sheaves import (
    Point,
    Presheaf,
    SheafMorphism,
    SubSheaf,
    enumerate_points,
    full_subsheaf,
    generate_subsheaf,
    terminal,
    verify_sheaf,
    verify_subsheaf,
)
from posheaf.orders import (
    PoSheaf,
    classifier,
    discrete,
    down_closure,
    down_embedding,
    down_power_sheaf,
    enumerate_downsheaves,
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
from posheaf.complete import product_posheaf
from posheaf.fixtures import FIXTURE_FRAMES, frame_2, posheaf_ab
from posheaf.frame_equiv import FrameUnderX, frame_hom_to_sheaf
from posheaf.generate import GenConfig, gen_frame, gen_posheaf


def point_leq_bool(F: PoSheaf, p: Point, q: Point) -> bool:
    """p ≤ q in the point order: one bit of F's rows (PoSheaf.row)."""
    P = F.sheaf
    return bool(F.row(P.position(*p)) >> P.position(*q) & 1)


def test_omega_is_a_posheaf(FD, F3, F6):
    for frame in (FD, F3, F6):
        Om = omega(frame)
        assert verify_posheaf(Om).passed
    assert [len(omega(FD).carrier(u)) for u in FD.elements] == [1, 2, 2, 4]
    Om2 = omega(frame_2())
    assert Om2.carrier("1") == ("0", "1")


def test_posheaf_of_builds_the_rows_of_the_pair_lists():
    # Ω, ℙ, F×G and Φ give their orders as predicates to PoSheaf.of; the
    # pair lists of the same predicates must give the same rows
    for build in FIXTURE_FRAMES.values():
        X = build()
        Om = omega(X)
        cases = [
            (Om, lambda u, x, y: X.leq(x, y)),
            (power_sheaf(terminal(X)), lambda u, s, t: s.issubset(t)),
            (product_posheaf(Om, Om), lambda u, p, q: X.leq(p[0], q[0]) and X.leq(p[1], q[1])),
            (frame_hom_to_sheaf(FrameUnderX(FrameHom.identity(X))), lambda u, x, y: X.leq(x, y)),
        ]
        for F, leq in cases:
            G = PoSheaf(F.sheaf, {u: [(x, y) for x in xs for y in xs if leq(u, x, y)] for u, xs in F.carriers.items()})
            for u in X.elements:
                assert (F.poset(u).up_rows, F.poset(u).down_rows) == (G.poset(u).up_rows, G.poset(u).down_rows)


def test_posheaf_ab_passes(PAB):
    assert verify_posheaf(PAB).passed


def test_memoized_posheaf_report_keeps_its_time(PAB):
    first = verify_posheaf(PAB)
    assert first.elapsed_ms is not None
    elapsed = first.elapsed_ms
    second = verify_posheaf(PAB)
    assert second is first
    assert second.elapsed_ms == elapsed
    assert verify_sheaf(PAB.sheaf) is verify_sheaf(PAB.sheaf)
    frame = FiniteFrame(PAB.frame.poset)
    first = frame.verify()
    assert first.elapsed_ms is not None
    elapsed = first.elapsed_ms
    second = frame.verify()
    assert second is first
    assert second.elapsed_ms == elapsed


def test_discrete_orders_pass(SAB):
    assert verify_posheaf(discrete(SAB)).passed


def test_example_2_2_pattern_fails_pos3(SAB):
    # nontrivial order below, discrete at the top
    F = PoSheaf(SAB, {"a": [("x", "y")]})
    rep = verify_posheaf(F)
    assert not rep.passed
    by_name = {r.name: r for r in rep.subreports}
    assert by_name["posheaf.POS1"].passed
    assert by_name["posheaf.POS2"].passed
    assert not by_name["posheaf.POS3"].passed
    assert by_name["posheaf.POS3"].witness["patched"] == ["xz", "yz"]
    assert by_name["posheaf.POS3"].witness["lower_family"] == ["x", "z"]
    # the internal reading fails in lockstep
    assert not by_name["posheaf.internal_poset"].passed
    assert by_name["posheaf.agreement"].passed


def test_a_poset_out_of_carrier_order_is_malformed(SAB):
    # a given FinitePoset is kept as it is, and the kernels read its rows by
    # carrier position, so its elements must be the carrier in order
    xs = SAB.carriers["a"]
    poset = FinitePoset(xs, [(xs[0], xs[1])])
    assert PoSheaf(SAB, {"a": poset}).poset("a") is poset
    for elements in (tuple(reversed(xs)), xs[:1], xs + ("w",)):
        with pytest.raises(MalformedInput, match="not over the carrier in carrier order"):
            PoSheaf(SAB, {"a": FinitePoset(elements, [])})
    # order pairs are read through the sheaf's own positions, and a pair
    # with an end outside the carrier is named
    assert PoSheaf(SAB, {"a": [(xs[0], xs[1])]}).poset("a").index is SAB.at["a"]
    with pytest.raises(MalformedInput, match=r"order pair at 'a' outside the carrier: \('x', 'w'\)"):
        PoSheaf(SAB, {"a": [(xs[0], xs[1]), ("x", "w")]})


def test_pos2_violation_detected(SAB):
    F = PoSheaf(SAB, {"1": [("xz", "yz")]})  # order on top, discrete below
    rep = verify_posheaf(F)
    by_name = {r.name: r for r in rep.subreports}
    assert not by_name["posheaf.POS2"].passed
    assert by_name["posheaf.agreement"].passed
    # the order subsheaf is not restriction-closed, which fails both halves
    # of the subsheaf check with the same witness
    internal = {r.name: r for r in by_name["posheaf.internal_poset"].subreports}
    closed, amalgamation = internal["internal.subsheaf_restriction"], internal["internal.subsheaf_amalgamation"]
    assert not closed.passed and not amalgamation.passed
    assert closed.witness == amalgamation.witness == {"open": "1", "section": "(xz,yz)", "at": "a"}


def _calls_during(run, *functions) -> list[tuple]:
    """run(), recording (function, arguments) at each call of the given
    functions (at each resumption, for a generator)."""
    codes = {f.__code__: f for f in functions}
    calls = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append((codes[frame.f_code], dict(frame.f_locals)))

    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_passing_posheaf_check_builds_no_square_and_searches_no_family(SAB, FD):
    # on a pass the internal subsheaf reading is decided at the germs and
    # gluing on one square per open: no F×F, no restriction-closure scan and
    # no family search; a reject reads its witness from F's tables, with no
    # restriction-closure scan either
    watched = (sheaves.product_sheaf, sheaves.verify_restriction_closed, sheaves.compatible_families)
    passing = [posheaf_ab(), omega(FD)]
    for seed in range(10):
        cfg = GenConfig(seed=seed)
        passing.append(gen_posheaf(gen_frame(cfg), cfg))
    for F in passing:
        # verify_sheaf keeps its certificate on the sheaf, and gen_posheaf
        # has checked its sheaf already: check a fresh copy
        F = PoSheaf(Presheaf(F.frame, F.sheaf.carriers, F.sheaf.res), F.orders)
        assert not _calls_during(lambda: verify_posheaf(F).require(), *watched)
    verdicts = set()
    for orders in ({}, {"a": [("x", "y")], "1": [("xz", "yz")]}, {"1": [("xz", "yz")]}):
        F = PoSheaf(SAB, orders)
        calls = _calls_during(lambda: verdicts.add(verify_posheaf(F).passed), *watched[:2])
        assert not calls, orders
    assert verdicts == {True, False}


def test_verify_posheaf_builds_no_square(monkeypatch):
    # every reading of the posheaf laws, a reject's witnesses included, comes
    # from F's own tables: building F×F refuses, and orders holds no name
    # that builds it (the order subsheaf is a test oracle)
    from posheaf import orders
    from posheaf.fixtures import FIXTURE_FRAMES, m3_posheaf
    from posheaf.generate import mutate
    from posheaf.report import RepairFailed

    instances = [omega(build()) for build in FIXTURE_FRAMES.values()] + [posheaf_ab(), m3_posheaf()]
    for seed in range(30):
        cfg = GenConfig(seed=seed)
        F = gen_posheaf(gen_frame(cfg), cfg)
        instances.append(F)
        try:
            instances.append(mutate(F, "break-POS3", cfg))
        except RepairFailed:
            pass

    def refuse(*args, **kwargs):
        raise AssertionError("verify_posheaf built F×F")

    assert not hasattr(orders, "product_sheaf") and not hasattr(orders, "order_subsheaf")
    monkeypatch.setattr(sheaves, "product_sheaf", refuse)
    verdicts = [verify_posheaf(PoSheaf(F.sheaf, F.orders)).passed for F in instances]
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 30


def test_point_order(PAB, FD):
    pts = enumerate_points(PAB.sheaf)
    bottom = Point("0", "*")
    for p in pts:
        assert point_leq_bool(PAB, bottom, p)
    assert point_leq_bool(PAB, Point("a", "x"), Point("1", "yz"))
    w = oracles.point_leq(PAB, Point("b", "z"), Point("a", "x"))
    assert not w.holds and w.agree()
    w2 = oracles.point_leq(PAB, Point("a", "x"), Point("b", "z"))
    assert not w2.holds
    # the package's row bit is the oracle's reading on every pair
    assert all(point_leq_bool(PAB, p, q) == oracles.point_leq_bool(PAB, p, q) for p in pts for q in pts)


def test_point_order_is_a_partial_order(PAB):
    pts = enumerate_points(PAB.sheaf)
    for p in pts:
        assert point_leq_bool(PAB, p, p)
        for q in pts:
            if point_leq_bool(PAB, p, q) and point_leq_bool(PAB, q, p):
                assert p == q
            for r in pts:
                if point_leq_bool(PAB, p, q) and point_leq_bool(PAB, q, r):
                    assert point_leq_bool(PAB, p, r)


def test_points_discrete_for_unordered_sheaves(SAB):
    D = discrete(SAB)
    pts = enumerate_points(SAB)
    for p in pts:
        for q in pts:
            if p.dom == q.dom and point_leq_bool(D, p, q):
                assert p == q


def test_order_preserving_three_forms(PAB, FD):
    ident = SheafMorphism.identity(PAB.sheaf)
    assert verify_order_preserving(ident, PAB, PAB).passed

    Om = omega(FD)
    const_top = SheafMorphism(
        PAB.sheaf, Om.sheaf, {u: {x: u for x in PAB.carrier(u)} for u in FD.elements}
    )
    assert verify_order_preserving(const_top, PAB, Om).passed

    # breaking one comparable pair breaks all three forms with the same witness
    swap = SheafMorphism(
        PAB.sheaf,
        PAB.sheaf,
        {
            "0": {"*": "*"},
            "a": {"x": "y", "y": "x"},
            "b": {"z": "z"},
            "1": {"xz": "yz", "yz": "xz"},
        },
    )
    assert swap.verify().passed
    rep = verify_order_preserving(swap, PAB, PAB)
    assert not rep.passed
    forms = {r.name: r for r in rep.subreports}
    assert not forms["order_preserving.points"].passed
    assert not forms["order_preserving.per_open"].passed
    assert not forms["order_preserving.factoring"].passed
    assert forms["order_preserving.per_open"].witness["pair"] == ["x", "y"]
    assert forms["order_preserving.agreement"].passed


def test_morphism_order(PAB, FD):
    ident = SheafMorphism.identity(PAB.sheaf)
    ok, rep = morphism_leq(ident, ident, PAB, PAB)
    assert ok and rep.subreports[-1].passed

    Om = omega(FD)
    # classifiers of nested downsheaves compare pointwise
    small = principal(PAB, Point("a", "x"))
    large = principal(PAB, Point("1", "yz"))
    assert small.issubset(large)
    phi_small, _ = classifier(small, PAB)
    phi_large, _ = classifier(large, PAB)
    ok_sl, _ = morphism_leq(phi_small, phi_large, PAB, Om)
    assert ok_sl

    # antisymmetry on a small morphism corpus
    morphs = [ident, SheafMorphism(PAB.sheaf, PAB.sheaf, {
        "0": {"*": "*"}, "a": {"x": "x", "y": "x"}, "b": {"z": "z"}, "1": {"xz": "xz", "yz": "xz"},
    })]
    for f in morphs:
        assert f.verify().passed
        for g in morphs:
            ok_fg, _ = morphism_leq(f, g, PAB, PAB)
            ok_gf, _ = morphism_leq(g, f, PAB, PAB)
            if ok_fg and ok_gf:
                assert f.maps == g.maps


def test_downsheaf_three_forms(PAB):
    good = principal(PAB, Point("a", "x"))
    rep = is_downsheaf(good, PAB)
    assert rep.passed

    bad = generate_subsheaf(PAB.sheaf, SubSheaf(PAB.sheaf, {"0": ["*"], "a": ["y"]}))
    assert verify_subsheaf(bad).passed
    rep_bad = is_downsheaf(bad, PAB)
    assert not rep_bad.passed
    forms = {r.name: r for r in rep_bad.subreports}
    assert not forms["downsheaf.points"].passed
    assert not forms["downsheaf.per_open"].passed
    assert not forms["downsheaf.classifier"].passed
    assert forms["downsheaf.per_open"].witness == {"open": "a", "pair": ["x", "y"]}
    assert forms["downsheaf.agreement"].passed

    least = generate_subsheaf(PAB.sheaf, SubSheaf(PAB.sheaf, {"0": ["*"]}))
    assert is_downsheaf(least, PAB).passed
    phi, phi_rep = classifier(least, PAB)
    assert phi_rep.passed
    assert phi("1", "xz") == "0"  # characteristic map of bottom


def test_classifier_pullback(PAB):
    G = principal(PAB, Point("1", "xz"))
    phi, rep = classifier(G, PAB)
    assert rep.passed
    for u in PAB.frame.elements:
        for x in PAB.carrier(u):
            assert (phi(u, x) == u) == G.contains(u, x)


def test_principal_examples(PAB, FD):
    Om = omega(FD)
    top_point = Point("1", "1")
    assert principal(Om, top_point).parts == full_subsheaf(Om.sheaf).parts

    down_x = principal(PAB, Point("a", "x"))
    assert down_x.parts == SubSheaf(PAB.sheaf, {"0": ["*"], "a": ["x"]}).parts

    up_x = principal(PAB, Point("a", "x"), "filter")
    assert up_x.parts == SubSheaf(PAB.sheaf, {"0": ["*"], "a": ["x", "y"]}).parts
    # uppersheaf = downsheaf of the opposite
    assert is_downsheaf(SubSheaf(PAB.opposite().sheaf, {u: up_x.sorted_part(u) for u in FD.elements}), PAB.opposite()).passed


def test_opposite_involution(PAB):
    assert PAB.opposite().opposite().orders == PAB.orders
    D = discrete(PAB.sheaf)
    assert D.opposite().orders == D.orders


def test_downsheaves_of_opposite_are_uppersheaves(PAB):
    ups = {s.parts for s in enumerate_downsheaves(PAB.opposite())}
    # oracle: subsheaves that are per-open upsets of PAB
    expected = set()
    from posheaf.sheaves import enumerate_subsheaves

    for s in enumerate_subsheaves(PAB.sheaf):
        if all(
            not (PAB.leq(u, x, y) and not s.contains(u, y))
            for u in PAB.frame.elements
            for x in s.sorted_part(u)
            for y in PAB.carrier(u)
        ):
            expected.add(s.parts)
    assert ups == expected


def test_power_sheaf_of_terminal_is_omega(FD):
    P = power_sheaf(terminal(FD))
    Om = omega(FD)
    assert [len(P.carrier(u)) for u in FD.elements] == [len(Om.carrier(u)) for u in FD.elements]
    # subterminals are classified by opens: the orders agree through any
    # monotone relabeling; sizes plus posheaf laws pin the shape here
    assert verify_posheaf(P).passed


def test_power_sheaf_restriction_example(SAB):
    P = power_sheaf(SAB)
    full = full_subsheaf(SAB)
    clipped = P.sheaf.restrict("1", full, "a")
    assert clipped.parts == SubSheaf(SAB, {"0": ["*"], "a": ["x", "y"]}).parts


def test_down_power_equals_power_iff_discrete(SAB, PAB):
    D_disc = down_power_sheaf(discrete(SAB))
    P = power_sheaf(SAB)
    assert {s.parts for s in D_disc.carrier("1")} == {s.parts for s in P.carrier("1")}
    D_ord = down_power_sheaf(PAB)
    assert len(D_ord.carrier("1")) < len(P.carrier("1"))


def test_down_embedding_factors_through_downsheaves(PAB):
    D = down_power_sheaf(PAB)
    P = power_sheaf(PAB.sheaf)
    emb = down_embedding(PAB, D)
    assert emb.verify().passed
    assert verify_order_preserving(emb, PAB, D).passed
    # injective on points
    pts = enumerate_points(PAB.sheaf)
    images = {(p.dom, emb(p.dom, p.value)) for p in pts}
    assert len(images) == len(pts)
    # factoring: every image is a downsheaf, hence a ℙF element too
    inc = power_inclusion(D, P)
    assert inc.verify().passed


def test_down_closure_laws(PAB):
    S_pr = principal(PAB, Point("a", "x"))
    assert down_closure(PAB, S_pr).parts == S_pr.parts  # idempotent on downsheaves

    gen_y = generate_subsheaf(PAB.sheaf, SubSheaf(PAB.sheaf, {"0": ["*"], "a": ["y"]}))
    closed = down_closure(PAB, gen_y)
    assert closed.part("a") == frozenset({"x", "y"})
    assert closed.part("0") == frozenset({"*"})
    assert is_downsheaf(closed, PAB).passed

    least = generate_subsheaf(PAB.sheaf, SubSheaf(PAB.sheaf, {"0": ["*"]}))
    assert down_closure(PAB, least).parts == least.parts

    # extensive, monotone, idempotent; fixpoints are exactly downsheaves
    from posheaf.sheaves import enumerate_subsheaves

    subs = enumerate_subsheaves(PAB.sheaf)
    downs = {d.parts for d in enumerate_downsheaves(PAB)}
    for S in subs:
        dS = down_closure(PAB, S)
        assert S.issubset(dS)
        assert down_closure(PAB, dS).parts == dS.parts
        assert (dS.parts == S.parts) == (S.parts in downs)
        for T in subs:
            if S.issubset(T):
                assert dS.issubset(down_closure(PAB, T))
        # reflection: ↓S ⊆ G ⇔ S ⊆ G for every downsheaf G
        for G in enumerate_downsheaves(PAB):
            assert dS.issubset(G) == S.issubset(G)


def test_galois_three_forms(PAB):
    P = power_sheaf(PAB.sheaf)
    D = down_power_sheaf(PAB)
    down_map = SheafMorphism(
        P.sheaf,
        D.sheaf,
        {
            u: {S: down_closure(PAB, _lift(PAB, S)).clip(u) for S in P.carrier(u)}
            for u in PAB.frame.elements
        },
    )
    inc = power_inclusion(D, P)
    rep = verify_galois(down_map, inc, P, D)
    assert rep.passed

    ident = SheafMorphism.identity(PAB.sheaf)
    assert verify_galois(ident, ident, PAB, PAB).passed

    # an order-preserving pair that is not adjoint
    Om = omega(PAB.frame)
    const_top = SheafMorphism(PAB.sheaf, Om.sheaf, {u: {x: u for x in PAB.carrier(u)} for u in PAB.frame.elements})
    const_bottomish = SheafMorphism(
        Om.sheaf, PAB.sheaf,
        {u: {w: PAB.sheaf.restrict(PAB.frame.top, "xz", u) for w in Om.carrier(u)} for u in PAB.frame.elements},
    )
    assert const_bottomish.verify().passed
    bad = verify_galois(const_top, const_bottomish, PAB, Om)
    assert not bad.passed
    forms = {r.name: r for r in bad.subreports}
    assert forms["galois.agreement"].passed


def _lift(F, S):
    """Re-anchor a clipped subsheaf for the down-closure computation."""
    return SubSheaf(F.sheaf, {u: S.sorted_part(u) for u in F.frame.elements})
