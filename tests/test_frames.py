"""Frame substrate: closure+laws, Heyting implication, frame homs, adjoints."""
from __future__ import annotations

import itertools
from collections import Counter

import pytest

from posheaf.frames import (
    FiniteFrame,
    FinitePoset,
    FrameHom,
    MonotoneMap,
    build_frame,
    close_and_verify_frame,
    galois_check,
    heyting_implication,
    left_adjoint,
    preserves_all_joins,
    preserves_all_meets,
    verify_frame_hom,
)
from posheaf.generate import GenConfig, gen_frame, gen_sheaf
from posheaf.locale_equiv import etale_locale
from posheaf.report import NotDistributive

from oracles import covers, right_adjoint


def all_monotone_maps(src: FinitePoset, tgt: FinitePoset):
    """Oracle: every monotone map src -> tgt by brute force."""
    for values in itertools.product(tgt.elements, repeat=len(src.elements)):
        mapping = dict(zip(src.elements, values))
        f = MonotoneMap(src, tgt, mapping)
        if f.verify().passed:
            yield f


def test_frame_d_valid(FD):
    assert len(FD.elements) == 4
    assert FD.bottom == "0" and FD.top == "1"
    assert FD.meet("a", "b") == "0"
    assert FD.join("a", "b") == "1"
    assert FD.verify().passed


def test_n5_not_distributive():
    frame, report = close_and_verify_frame(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")],
    )
    assert frame is None
    assert report.name == "frame.distributive"
    assert report.witness["triple"] == ["z", "x", "y"]
    with pytest.raises(NotDistributive):
        build_frame(["0", "x", "y", "z", "1"], [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")])


def test_cycle_is_not_a_poset():
    frame, report = close_and_verify_frame(["p", "q"], [("p", "q"), ("q", "p")])
    assert frame is None
    assert report.name == "frame.poset"
    assert sorted(report.witness["cycle"]) == ["p", "q"]


def test_missing_joins_is_not_a_lattice():
    # two incomparable points, no top
    frame, report = close_and_verify_frame(["0", "p", "q"], [("0", "p"), ("0", "q")])
    assert frame is None
    assert report.name == "frame.lattice"


def test_frame_3_heyting(F3):
    assert F3.heyting("a", "0") == "0"
    assert F3.heyting("1", "a") == "a"


def test_heyting_examples(FD):
    # oracle: scan every z with z ∧ x ≤ y
    def oracle(frame, x, y):
        zs = [z for z in frame.elements if frame.leq(frame.meet(z, x), y)]
        best = [z for z in zs if all(frame.leq(o, z) for o in zs)]
        assert len(best) == 1
        return best[0]

    assert heyting_implication(FD, "a", "b") == oracle(FD, "a", "b") == "b"
    for frame in (FD,):
        for y in frame.elements:
            assert heyting_implication(frame, frame.bottom, y) == frame.top
        for x in frame.elements:
            assert heyting_implication(frame, x, x) == frame.top


def test_heyting_law_holds_everywhere(FD, F3, F6):
    for frame in (FD, F3, F6):
        for x in frame.elements:
            for y in frame.elements:
                h = frame.heyting(x, y)
                assert frame.leq(frame.meet(h, x), y)
                for z in frame.elements:
                    if frame.leq(frame.meet(z, x), y):
                        assert frame.leq(z, h)


def test_frame_verify_needs_no_cubic_scan(monkeypatch):
    # a passing verify reads the lattice law from the binary joins and
    # distributivity from the join-irreducibles: on the 120-open sheaf locale
    # of gen_sheaf seed 17 it asks for no Heyting implication and for at most
    # n² joins and meets, where the triple scan asks for 4n³
    cfg = GenConfig(seed=17, max_opens=7, max_carrier=3)
    E = etale_locale(gen_sheaf(gen_frame(cfg), cfg))
    frame = FiniteFrame(FinitePoset(E.frame.elements, E.frame.poset.pairs(), closed=True))
    calls = Counter()
    for name in ("join", "meet", "heyting"):
        def counted(self, x, y, name=name, original=getattr(FiniteFrame, name)):
            calls[name] += 1
            return original(self, x, y)

        monkeypatch.setattr(FiniteFrame, name, counted)
    assert frame.verify().passed
    n = len(frame)
    assert n == 120
    assert calls["heyting"] == 0
    assert calls["join"] + calls["meet"] <= n * n


def test_reverification_idempotent(F6):
    assert F6.verify().passed
    assert F6.verify().passed


def test_frame_report_is_kept(F6):
    # frames are immutable: the first report, with its time, is returned again
    first = F6.verify()
    assert first.elapsed_ms is not None
    elapsed = first.elapsed_ms
    assert F6.verify() is first and first.elapsed_ms == elapsed


def test_join_irreducibles_generate_the_frame(F2, F3, FD, F6):
    # j is join-irreducible iff it is not the join of the opens strictly
    # below it, and every open is the join of the join-irreducibles below it
    for X in (F2, F3, FD, F6):
        J = X.join_irreducibles()
        assert list(J) == [j for j in X.elements if j != X.bottom and X.join_all(v for v in X.down(j) if v != j) != j]
        assert all(X.join_all(j for j in J if X.leq(j, u)) == u for u in X.elements)
        H = X.join_irreducibles_by_height()
        assert sorted(H, key=X.index.get) == list(J)
        assert not any(X.poset.lt(H[b], H[a]) for a in range(len(H)) for b in range(a + 1, len(H)))
    assert FD.join_irreducibles() == ("a", "b")


def test_covers_conventions(FD):
    assert () in covers(FD, "0")
    assert ("a", "b") in covers(FD, "1")
    assert ("1",) in covers(FD, "1")
    for u in FD.elements:
        for cover in covers(FD, u):
            assert FD.join_all(cover) == u


def test_frame_hom_identity(FD):
    assert verify_frame_hom(FrameHom.identity(FD)).passed


def test_frame_hom_meet_with_a(FD):
    down_a = FD.subframe("a")
    h = FrameHom(FD, down_a, {x: FD.meet(x, "a") for x in FD.elements})
    assert verify_frame_hom(h).passed


def test_frame_hom_constant_top_fails_on_empty_join(F3):
    h = FrameHom(F3, F3, {x: "1" for x in F3.elements})
    report = verify_frame_hom(h)
    assert not report.passed
    assert report.name == "frame_hom.joins"
    assert report.witness["subset"] == []


def test_left_adjoint_of_meet_with_a_is_inclusion(FD):
    down_a = FD.subframe("a")
    f = MonotoneMap(FD.poset, down_a.poset, {x: FD.meet(x, "a") for x in FD.elements})
    g, report = left_adjoint(f)
    assert report.passed
    assert g.mapping == {"0": "0", "a": "a"}


def test_left_adjoint_identity(FD):
    g, report = left_adjoint(MonotoneMap.identity(FD.poset))
    assert report.passed
    assert all(g(x) == x for x in FD.elements)


def test_left_adjoint_endpoint_inclusion(F2, F3):
    f = MonotoneMap(F2.poset, F3.poset, {"0": "0", "1": "1"})
    g, report = left_adjoint(f)
    assert report.passed
    assert g("a") == "1"


def test_adjoint_existence_matches_meet_preservation(FD, F3):
    # both criteria on every monotone map between the two fixture lattices
    for src, tgt in [(FD.poset, F3.poset), (F3.poset, FD.poset), (F3.poset, F3.poset)]:
        for f in all_monotone_maps(src, tgt):
            g, _ = left_adjoint(f)
            assert (g is not None) == preserves_all_meets(f)
            if g is not None:
                assert galois_check(g, f).passed
                assert preserves_all_joins(g)
            r, _ = right_adjoint(f)
            assert (r is not None) == preserves_all_joins(f)
            if r is not None:
                assert galois_check(f, r).passed


def test_adjoint_absent_reports_witness(F2, F3, FD):
    f = MonotoneMap(F2.poset, F3.poset, {"0": "0", "1": "1"})
    r, report = right_adjoint(f)
    assert r is not None  # greatest{a : f(a) <= b} exists for every b here
    # a genuinely absent case: min{x : 1 <= g(x)} is the antichain {a, b}
    g = MonotoneMap(FD.poset, F2.poset, {"0": "0", "a": "1", "b": "1", "1": "1"})
    la, rep = left_adjoint(g)
    assert la is None
    assert rep.witness["element"] == "1"
    assert rep.witness["minimal_candidates"] == ["a", "b"]


def test_subframe_is_a_frame(F6):
    for u in F6.elements:
        assert F6.subframe(u).verify().passed
