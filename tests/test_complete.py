"""Completeness layer: bounds, the multi-form completeness certificate, sup
morphism, sup-preserving morphisms, finite completeness, frame sheaves."""
from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter

import pytest

import oracles
from posheaf.complete import (
    _adjoint_square_check,
    bounds,
    check_finite_completeness,
    image_subsheaf,
    is_complete,
    is_frame_sheaf,
    product_posheaf,
    sup_in_open,
    sup_morphism,
    verify_frame_morphism,
    verify_sup_preserving,
)
from posheaf.orders import (
    PoSheaf,
    discrete,
    down_power_sheaf,
    enumerate_downsheaves,
    omega,
    power_inclusion,
    power_sheaf,
    verify_galois,
    verify_order_preserving,
    verify_posheaf,
)
from posheaf.generate import GenConfig, gen_frame, gen_posheaf
from posheaf.report import Budget, NotComplete, PosheafError, ResourceLimit
from posheaf.sheaves import (
    Point,
    Presheaf,
    SheafMorphism,
    SubSheaf,
    enumerate_subsheaves,
    generate_subsheaf,
    terminal,
)
from posheaf.fixtures import frame_2, frame_3, frame_6, frame_d, m3_posheaf, posheaf_ab, sheaf_ab




def test_bounds_examples_on_omega():
    Om = omega(frame_d())
    least = generate_subsheaf(Om.sheaf, SubSheaf(Om.sheaf, {"0": ["0"]}))
    b = bounds(Om, least)
    assert b.sup == Point("0", "0")
    assert b.inf == Point("0", "0")
    full = SubSheaf(Om.sheaf, {u: Om.carrier(u) for u in Om.frame.elements})
    b_full = bounds(Om, full)
    assert b_full.sup == Point("1", "1")


def test_bounds_on_posheaf_ab(PAB):
    A = generate_subsheaf(PAB.sheaf, SubSheaf(PAB.sheaf, {"0": ["*"], "a": ["x"]}))
    b = bounds(PAB, A)
    assert b.sup == Point("a", "x")
    assert {(p.dom, p.value) for p in b.upper_bounds} == {("a", "x"), ("a", "y"), ("1", "xz"), ("1", "yz")}


def test_bounds_keep_an_enumerated_member_as_its_target():
    # members of Sub and Dow come from the germ walk, so they are subsheaves
    # already: bounds takes each as its target without closing it again,
    # and the target equals the generated subsheaf of its sections
    for F in (posheaf_ab(), omega(frame_d()), m3_posheaf()):
        assert verify_posheaf(F).passed
        members = enumerate_subsheaves(F.sheaf) + enumerate_downsheaves(F)
        for S in members:
            assert bounds(F, S).target is S
            assert S == generate_subsheaf(F.sheaf, SubSheaf(F.sheaf, S.parts), require_closed=False)


def test_omega_complete_on_every_fixture_frame():
    for build in (frame_2, frame_3, frame_d, frame_6):
        F = omega(build())
        cert = is_complete(F)
        assert cert.passed
        assert cert.agreement.passed
        assert _adjoint_square_check(F, cert.restriction_data).passed


def test_posheaf_ab_is_complete(PAB):
    cert = is_complete(PAB)
    assert cert.passed


def test_discrete_pair_not_complete(SAB):
    # discrete {x, y} at a: no least element there; both checkers fail
    F = discrete(SAB)
    cert = is_complete(F)
    assert not cert.passed
    assert not cert.per_open_form.passed
    assert not cert.downsheaf_sups.passed
    assert not cert.subsheaf_sups.passed
    assert cert.agreement.passed
    assert cert.per_open_form.witness["complete_lattice"]["open"] == "a"


def test_power_sheaves_complete_with_example_adjoints(SAB):
    P = power_sheaf(SAB)
    cert = is_complete(P)
    assert cert.passed
    frame = SAB.frame
    for u in frame.elements:
        for v in frame.down(u):
            if v == u:
                continue
            data = cert.restriction_data[(u, v)]
            assert data["surjective"]
            # the tables hold, for each member of P(v), the position in P(u)
            # of its image
            left, right = data["left_adjoint"], data["right_adjoint"]
            for S, a, b in zip(P.carrier(v), left, right):
                # minimal extension: same parts viewed in Sub(F^u)
                assert P.carrier(u)[a].parts == S.parts
                # right adjoint: generated from sections whose meet-restriction lands in S
                parts = {
                    w: [x for x in SAB.carriers[w] if S.contains(frame.meet(w, v), SAB.restrict(w, x, frame.meet(w, v)))]
                    for w in frame.down(u)
                }
                expected = generate_subsheaf(SAB, SubSheaf(SAB, parts), require_closed=False)
                assert P.carrier(u)[b].parts == expected.parts


def test_down_power_sheaf_complete(PAB):
    D = down_power_sheaf(PAB)
    assert is_complete(D).passed


def test_sup_morphism_on_omega():
    Om = omega(frame_d())
    sup_d, sup_p, report = sup_morphism(Om)
    assert report.passed
    # sup of a downsheaf of opens is the join of its members
    for u in Om.frame.elements:
        for S in sup_d.source.carriers[u]:
            members = [w for v in Om.frame.elements for w in S.sorted_part(v)]
            assert sup_d(u, S) == Om.frame.meet(Om.frame.join_all(members), u)


def test_sup_morphism_on_posheaf_ab(PAB):
    sup_d, sup_p, report = sup_morphism(PAB)
    assert report.passed
    # sup of a principal ideal recovers the generating point, pushed to u
    from posheaf.orders import principal

    pr = principal(PAB, Point("a", "x"))
    assert sup_p("1", pr.clip("1")) == "xz"  # least above x at the top
    assert sup_p("a", pr.clip("a")) == "x"
    least = generate_subsheaf(PAB.sheaf, SubSheaf(PAB.sheaf, {"0": ["*"]}))
    assert sup_p("1", least) == "xz"  # least global point


def test_sup_morphism_requires_completeness(SAB):
    with pytest.raises(NotComplete):
        sup_morphism(discrete(SAB))


def test_sup_preserving_three_forms(PAB):
    ident = SheafMorphism.identity(PAB.sheaf)
    rep = verify_sup_preserving(ident, PAB, PAB)
    assert rep.passed

    # constant-to-top endomorphism of Omega: order-preserving, natural, and
    # join-breaking: all three forms must agree negatively
    Om = omega(PAB.frame)
    const_top = SheafMorphism(Om.sheaf, Om.sheaf, {u: {w: u for w in Om.carrier(u)} for u in Om.frame.elements})
    rep_neg = verify_sup_preserving(const_top, Om, Om)
    assert not rep_neg.passed
    forms = {r.name: r for r in rep_neg.subreports}
    assert not forms["sup_preserving.square"].passed
    assert not forms["sup_preserving.per_open"].passed
    assert not forms["sup_preserving.right_adjoint"].passed
    # nothing lies below 0 at a, so 0 has no greatest preimage
    assert forms["sup_preserving.right_adjoint"].witness == {"open": "a", "section": "0", "missing": "greatest preimage"}
    assert forms["sup_preserving.agreement"].passed


def test_sup_preserving_on_an_incomplete_posheaf_names_the_side():
    # the three forms are equivalent only for complete posheaves: on the
    # identity of one that is not, the square and per-open forms fail while
    # the right adjoint exists, and the report says which side is not
    # complete instead of reporting a disagreement
    cfg = GenConfig(seed=9, max_opens=4, max_carrier=2)
    F = gen_posheaf(gen_frame(cfg), cfg)
    assert verify_posheaf(F).passed and not is_complete(F).passed
    rep = verify_sup_preserving(SheafMorphism.identity(F.sheaf), F, F)
    assert not rep.passed
    forms = {r.name: r for r in rep.subreports}
    assert list(forms) == [
        "sup_preserving.square",
        "sup_preserving.per_open",
        "sup_preserving.right_adjoint",
        "sup_preserving.complete",
    ]
    assert not forms["sup_preserving.square"].passed and not forms["sup_preserving.per_open"].passed
    assert forms["sup_preserving.right_adjoint"].passed
    assert forms["sup_preserving.complete"].witness == {"not_complete": ["source", "target"]}
    assert rep.witness == forms["sup_preserving.square"].witness

    assert rep.details == {"verdict": False}

    # the map to the terminal posheaf: all three forms fail, so they agree and
    # the report is the three-way one, incomplete source or not
    one = discrete(terminal(F.frame))
    bang = SheafMorphism(F.sheaf, one.sheaf, {u: {x: "*" for x in F.carrier(u)} for u in F.frame.elements})
    forms = {r.name: r for r in verify_sup_preserving(bang, F, one).subreports}
    assert list(forms)[-1] == "sup_preserving.agreement" and forms["sup_preserving.agreement"].passed
    assert not any(forms[f"sup_preserving.{label}"].passed for label in ("square", "per_open", "right_adjoint"))


def test_agreeing_sup_preserving_forms_enumerate_no_completeness(PAB, monkeypatch):
    # completeness is read only to explain a disagreement: agreeing reports
    # run no completeness enumeration, so no budget of its own can bind
    import posheaf.complete as complete

    def refuse(*args, **kwargs):
        raise AssertionError("is_complete called on agreeing forms")

    monkeypatch.setattr(complete, "is_complete", refuse)
    P = power_sheaf(PAB.sheaf)
    D = down_power_sheaf(PAB)
    assert verify_sup_preserving(power_inclusion(D, P), D, P).passed
    Om = omega(PAB.frame)
    const_top = SheafMorphism(Om.sheaf, Om.sheaf, {u: {w: u for w in Om.carrier(u)} for u in Om.frame.elements})
    forms = {r.name: r for r in verify_sup_preserving(const_top, Om, Om).subreports}
    assert forms["sup_preserving.agreement"].passed


def test_inclusion_down_into_power_is_sup_preserving(PAB):
    # derived verdict: the inclusion has the interior operator as right
    # adjoint, so the three forms agree positively (and meets are preserved)
    P = power_sheaf(PAB.sheaf)
    D = down_power_sheaf(PAB)
    inc = power_inclusion(D, P)
    rep = verify_sup_preserving(inc, D, P)
    forms = {r.name: r for r in rep.subreports}
    assert forms["sup_preserving.agreement"].passed
    assert rep.passed
    from posheaf.frames import _bound_failure

    for u in PAB.frame.elements:
        assert _bound_failure(D.poset(u), P.poset(u), inc.at[u], "meet") is None


def test_image_morphism_on_power_sheaves_is_sup_preserving(SAB):
    # the induced map on powersheaves of any morphism preserves sups
    T = terminal(SAB.frame)
    alpha = SheafMorphism(SAB, T, {u: {x: "*" for x in SAB.carriers[u]} for u in SAB.frame.elements})
    PF = power_sheaf(SAB)
    PT = power_sheaf(T)
    maps = {
        u: {S: image_subsheaf(alpha, _anchor(SAB, S), u) for S in PF.carrier(u)}
        for u in SAB.frame.elements
    }
    alpha_star = SheafMorphism(PF.sheaf, PT.sheaf, maps)
    assert alpha_star.verify().passed
    rep = verify_sup_preserving(alpha_star, PF, PT)
    assert rep.passed


def _anchor(F, S):
    return SubSheaf(F, {u: S.sorted_part(u) for u in F.frame.elements})


def test_finite_completeness_forms(PAB, SAB):
    rep = check_finite_completeness(omega(PAB.frame))
    assert rep.passed
    # discrete two-element stalk: no binary joins or meets at a
    rep2 = check_finite_completeness(discrete(SAB), mode="both")
    assert not rep2.passed
    # the two forms agree in every mode
    for mode in ("sup", "inf"):
        sub = check_finite_completeness(discrete(SAB), mode=mode)
        inner = sub.subreports[0]
        agreement = [r for r in inner.subreports if r.name.endswith("agreement")]
        assert all(r.passed for r in agreement)
    # complete implies finite complete
    assert check_finite_completeness(PAB).passed


@pytest.mark.parametrize(
    "images, top_order, witness",
    [
        # x and y have no join at 1
        ("sttt", [("b", "x"), ("b", "y"), ("b", "z")], {"open": "1", "pair": ["x", "y"], "missing": "join"}),
        # lattice stalks, so the restriction 1 → a decides
        ("tttt", None, {"restriction": ["1", "a"], "not": "bottom-preserving"}),
        ("ssst", None, {"restriction": ["1", "a"], "pair": ["x", "y"]}),
    ],
)
def test_finite_completeness_names_the_first_semilattice_failure(diamond_over_chain, images, top_order, witness):
    F = diamond_over_chain(images)
    if top_order is not None:
        F = PoSheaf(F.sheaf, {**F.orders, "1": top_order})
    rep = check_finite_completeness(F, mode="sup")
    assert not rep.passed
    forms = {r.name: r for r in rep.subreports[0].subreports}
    assert forms["finite_sup_complete.per_open_form"].witness == witness
    assert forms["finite_sup_complete.agreement"].passed


def test_frame_sheaf_positive(PAB):
    for build in (frame_2, frame_3, frame_d):
        Om = omega(build())
        rep = is_frame_sheaf(Om)
        assert rep.passed
    assert is_frame_sheaf(PAB).passed


def test_power_sheaves_are_frame_sheaves(SAB, PAB):
    assert is_frame_sheaf(power_sheaf(SAB)).passed
    assert is_frame_sheaf(down_power_sheaf(PAB)).passed


def test_m3_fixture_fails_both_frame_sheaf_forms():
    F = m3_posheaf()
    assert verify_posheaf(F).passed
    assert is_complete(F).passed
    rep = is_frame_sheaf(F)
    assert not rep.passed
    forms = {r.name: r for r in rep.subreports}
    assert not forms["frame_sheaf.definition_square"].passed
    assert not forms["frame_sheaf.heyting_frobenius"].passed
    assert forms["frame_sheaf.agreement"].passed


def test_frame_morphism_identity_and_meet_breaker():
    Om = omega(frame_d())
    ident = SheafMorphism.identity(Om.sheaf)
    assert verify_frame_morphism(ident, Om, Om).passed

    # v ↦ v ∧ a: natural, sup-preserving, binary meets fine, top broken
    frame = Om.frame
    shrink = SheafMorphism(
        Om.sheaf,
        Om.sheaf,
        {u: {w: frame.meet(w, "a") for w in Om.carrier(u)} for u in frame.elements},
    )
    assert shrink.verify().passed
    assert verify_sup_preserving(shrink, Om, Om).passed
    rep = verify_frame_morphism(shrink, Om, Om)
    assert not rep.passed
    meets = [r for r in rep.subreports if r.name == "frame_morphism.finite_meets"][0]
    assert not meets.passed
    assert meets.witness == {"open": "b", "not": "top-preserving"}
    forms = {r.name: r for r in rep.subreports}
    assert forms["frame_morphism.agreement"].passed


def test_finite_meets_form_names_the_first_broken_meet():
    # the diamond b < x, y < z over 1 of the 2-chain, and α_1 sending x to z:
    # monotone, natural, sup- and top-preserving, but α(x ∧ y) = b ≠ y
    carriers = {"0": ("*",), "1": ("b", "x", "y", "z")}
    sheaf = Presheaf(frame_2(), carriers, {("1", "0"): {c: "*" for c in carriers["1"]}})
    F = PoSheaf(sheaf, {"1": [("b", "x"), ("b", "y"), ("x", "z"), ("y", "z"), ("b", "z")]})
    alpha = SheafMorphism(sheaf, sheaf, {"0": {"*": "*"}, "1": {"b": "b", "x": "z", "y": "y", "z": "z"}})
    rep = verify_frame_morphism(alpha, F, F)
    assert not rep.passed
    forms = {r.name: r for r in rep.subreports}
    assert forms["sup_preserving"].passed
    assert forms["frame_morphism.finite_meets"].witness == {
        "open": "1",
        "pair": ["x", "y"],
        "alpha_of_meet": "b",
        "meet_of_alphas": "y",
    }
    assert forms["frame_morphism.agreement"].passed


@pytest.mark.parametrize("images, law", [("ssss", "surjective"), ("ssst", "sup-preserving"), ("sttt", "inf-preserving")])
def test_complete_surjections_names_the_restriction_law(diamond_over_chain, images, law):
    # lattice stalks, so the first failure is the restriction 1 → a
    cert = is_complete(diamond_over_chain(images))
    assert not cert.passed
    assert cert.complete_surjections.witness == {"restriction": ["1", "a"], "not": law}
    assert cert.agreement.passed


def test_a_missing_left_adjoint_raises_its_report_each_time(diamond_over_chain):
    # the restriction kept without a left adjoint raises NotComplete with
    # the report naming its missing least candidate on every request
    from posheaf.complete import _left_adjoint_table

    F = diamond_over_chain("sttt")
    reports = []
    for _ in range(2):
        with pytest.raises(NotComplete) as exc:
            _left_adjoint_table(F, "1", "a")
        reports.append(exc.value.report)
    assert reports[0] is reports[1]
    assert reports[0].name == "left_adjoint.absent"


def test_per_open_frame_hom_names_the_left_adjoint_square():
    # on Ω of the 3-chain, α_1 sends a to 1 and α_a is the identity: α is
    # natural and every α_u is a frame hom, but α_1(l a) = 1 ≠ a = l(α_a a)
    Om = omega(frame_3())
    alpha = SheafMorphism(
        Om.sheaf, Om.sheaf, {"0": {"0": "0"}, "a": {"0": "0", "a": "a"}, "1": {"0": "0", "a": "1", "1": "1"}}
    )
    assert alpha.verify().passed
    rep = verify_frame_morphism(alpha, Om, Om)
    assert not rep.passed
    forms = {r.name: r for r in rep.subreports}
    assert forms["frame_morphism.per_open_frame_hom"].witness == {"square": ["1", "a"], "section": "a"}
    assert forms["frame_morphism.agreement"].passed
    sup_forms = {r.name: r for r in forms["sup_preserving"].subreports}
    assert sup_forms["sup_preserving.per_open"].witness == {
        "square": ["1", "a"],
        "section": "a",
        "alpha_after_adjoint": "1",
        "adjoint_after_alpha": "a",
    }


def test_each_restriction_adjoint_is_built_once(monkeypatch):
    # the left adjoint of each restriction is kept on its posheaf, and the
    # right adjoints are the opposite's left adjoints: across completeness,
    # the frame-sheaf check and the frame equivalence, the table of least
    # candidates is built at most once per (posheaf, u, v), and only along
    # lower covers, since the other adjoints are composites of those
    from collections import Counter

    from posheaf import complete
    from posheaf.frame_equiv import verify_frame_equivalence

    calls = Counter()
    real = complete._least_candidates

    def counted(src, tgt, image):
        calls[id(src), id(tgt)] += 1
        return real(src, tgt, image)

    monkeypatch.setattr(complete, "_least_candidates", counted)
    F = omega(frame_d())
    assert is_complete(F).passed
    assert is_frame_sheaf(F).passed
    assert verify_frame_equivalence(F).passed
    # four lower covers on the diamond, for F and for its opposite
    assert len(calls) == 8 and set(calls.values()) == {1}


def test_completeness_decides_no_restriction_monotonicity_again(monkeypatch):
    # verify_posheaf's POS2 has decided every restriction monotone, so the
    # left adjoints of a verified posheaf run no MonotoneMap.verify
    from posheaf.frames import MonotoneMap

    F = omega(frame_6())
    assert verify_posheaf(F).passed
    calls = []
    real = MonotoneMap.verify
    monkeypatch.setattr(MonotoneMap, "verify", lambda self: calls.append(self) or real(self))
    assert is_complete(F).passed
    assert calls == []


def test_adjoint_square_check_square_on_complete_fixtures(PAB):
    for F in (omega(frame_d()), omega(frame_6()), PAB, power_sheaf(sheaf_ab())):
        # the certificate passes the square by proof; the check itself runs
        # on the restriction data
        cert = is_complete(F)
        assert cert.passed and _adjoint_square_check(F, cert.restriction_data).passed


def test_completeness_self_dual(PAB, SAB):
    for F in (PAB, omega(frame_3()), discrete(SAB), m3_posheaf()):
        assert is_complete(F).passed == is_complete(F.opposite()).passed


def test_meet_morphism_lands_in_power_sheaf(PAB):
    P = power_sheaf(PAB.sheaf)
    mu = oracles.meet_morphism(PAB, P)
    assert mu.verify().passed


def test_left_adjoints_are_frame_mono_homs_on_frame_sheaves():
    # for frame sheaves every adjoint of a restriction embeds frames
    from posheaf.frames import MonotoneMap, _bound_failure
    from posheaf.complete import _left_adjoint_table

    for F in (omega(frame_d()), posheaf_ab()):
        frame = F.frame
        assert is_frame_sheaf(F).passed
        for u in frame.elements:
            for v in frame.down(u):
                if v == u:
                    continue
                xs = F.carrier(u)
                table = dict(zip(F.carrier(v), (xs[a] for a in _left_adjoint_table(F, u, v))))
                assert len(set(table.values())) == len(table)  # injective
                m = MonotoneMap(F.poset(v), F.poset(u), table)
                assert m.verify().passed
                # binary meets and all joins land where they should
                pv, pu = F.poset(v), F.poset(u)
                for x in pv.elements:
                    for y in pv.elements:
                        assert table[pv.meet(x, y)] == pu.meet(table[x], table[y])
                assert _bound_failure(pv, pu, _left_adjoint_table(F, u, v), "join") is None


def _copy(F: PoSheaf) -> PoSheaf:
    """The same sheaf and orders in a new PoSheaf, with nothing cached."""
    return PoSheaf(F.sheaf, F.orders)


def _outcome(check, F: PoSheaf, limit: int) -> tuple:
    try:
        return ("report", check(F, budget=Budget(subsheaves=limit)).passed)
    except ResourceLimit as exc:
        return ("limit", exc.what, exc.limit)
    except NotComplete:
        return ("not complete",)


def _incomplete_posheaf() -> PoSheaf:
    cfg = GenConfig(seed=9, max_opens=4, max_carrier=2)
    return gen_posheaf(gen_frame(cfg), cfg)


def test_cached_completeness_replays_its_budget():
    # a pass holds by proof and ticks nothing; only a reject scans, ticking
    # at each member it decides, and a memo hit replays that count: at every
    # limit it gives what a fresh build on a copy gives
    for F in (omega(frame_d()), posheaf_ab(), m3_posheaf()):
        assert is_complete(F).passed and F._completeness[1] == 0
        assert _outcome(is_complete, F, 0) == _outcome(is_complete, _copy(F), 0) == ("report", True)
    F = _incomplete_posheaf()
    cert = is_complete(F)
    n = F._completeness[1]
    assert not cert.passed and n > 1
    assert _outcome(is_complete, F, n - 1) == ("limit", "completeness enumeration", n - 1)
    for limit in range(n + 2):
        assert _outcome(is_complete, F, limit) == _outcome(is_complete, _copy(F), limit)
    assert is_complete(F, budget=Budget(subsheaves=n)) is cert
    assert F._completeness[0] is cert


def _two_chain_over_a_chain(n: int) -> PoSheaf:
    """The constant sheaf 0 < 1 over the chain frame 0 < a1 < ... < an: a
    frame sheaf whose power sheaf grows with n, and which neither check
    enumerates on a pass."""
    from posheaf.frames import build_frame

    opens = ["0"] + [f"a{i}" for i in range(1, n + 1)]
    X = build_frame(opens, [(opens[i], opens[i + 1]) for i in range(n)])
    carriers = {u: ("*",) if u == "0" else (0, 1) for u in opens}
    res = {(u, v): {x: "*" if v == "0" else x for x in carriers[u]} for i, u in enumerate(opens) for v in opens[:i]}
    return PoSheaf(Presheaf(X, carriers, res), {u: [(0, 1)] for u in opens[1:]})


def test_cached_frame_sheaf_check_replays_both_budgets():
    # a frame sheaf ticks neither meter; m3's reject scan builds ℙF on the
    # power meter, and on an incomplete posheaf the completeness scan binds
    # first; a memo hit and a fresh build agree at every limit
    for F in (omega(frame_d()), posheaf_ab(), _two_chain_over_a_chain(9)):
        assert is_frame_sheaf(F).passed
        assert F._completeness[1] == F._frame_sheaf[1] == 0
        assert _outcome(is_frame_sheaf, F, 0) == _outcome(is_frame_sheaf, _copy(F), 0) == ("report", True)
    F = m3_posheaf()
    report = is_frame_sheaf(F)
    n = F._frame_sheaf[1]
    assert not report.passed and F._completeness[1] == 0
    assert n == sum(len(c) for c in power_sheaf(F.sheaf, verify=False).carriers.values())
    assert _outcome(is_frame_sheaf, F, n - 1) == ("limit", "power sheaf subsheaves", n - 1)
    for limit in range(n + 2):
        assert _outcome(is_frame_sheaf, F, limit) == _outcome(is_frame_sheaf, _copy(F), limit)
    assert is_frame_sheaf(F, budget=Budget(subsheaves=n)) is report
    assert F._frame_sheaf[0] is report
    G = _incomplete_posheaf()
    assert _outcome(is_frame_sheaf, G, 5000) == ("not complete",)
    n = G._completeness[1]
    assert _outcome(is_frame_sheaf, G, n - 1) == ("limit", "completeness enumeration", n - 1)
    for limit in range(n + 2):
        assert _outcome(is_frame_sheaf, G, limit) == _outcome(is_frame_sheaf, _copy(G), limit)


def test_a_passing_frame_sheaf_check_builds_no_power_sheaf(monkeypatch, boolean_frame):
    # Frobenius implies the definition square, so only a reject scans it, to
    # name its witness, over Sub(F^u) open by open: neither path builds ℙF
    # (μ is a test oracle, oracles.meet_morphism), a pass ticks nothing,
    # and the reject ticks the members it builds
    from posheaf import complete

    built = {"power_sheaf": 0}

    def counting(name):
        real = getattr(complete, name)

        def counted(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(complete, name, counted)

    counting("power_sheaf")
    for F in (omega(frame_d()), posheaf_ab(), omega(boolean_frame(4))):
        assert is_frame_sheaf(F).passed
        assert built == {"power_sheaf": 0}
        assert F._frame_sheaf[1] == 0
    F = m3_posheaf()
    assert not is_frame_sheaf(F).passed
    assert built == {"power_sheaf": 0}
    assert F._frame_sheaf[1] == sum(len(c) for c in power_sheaf(F.sheaf, verify=False).carriers.values())


def test_a_passing_completeness_check_builds_no_member_and_scans_no_antichain(monkeypatch, boolean_frame, SAB):
    # the sup-extension forms decide each member from its germ mask, and
    # every least point is found by descent: a pass builds no SubSheaf by
    # the germ walk and runs no minimal-members scan; a reject builds its
    # witness and scans the antichain it names
    from posheaf import complete, sheaves

    calls = {"_germ_subsheaf": 0, "_minimal_points": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(sheaves, "_germ_subsheaf")
    monkeypatch.setattr(complete, "_germ_subsheaf", sheaves._germ_subsheaf)
    counting(complete, "_minimal_points")
    for F in (omega(frame_d()), omega(boolean_frame(4))):
        assert is_complete(F).passed
        assert calls == {"_germ_subsheaf": 0, "_minimal_points": 0}
    assert not is_complete(discrete(SAB)).passed
    assert calls["_germ_subsheaf"] >= 1 and calls["_minimal_points"] >= 1


def test_a_cached_frame_sheaf_report_keeps_its_elapsed_ms():
    F = omega(frame_d())
    first = is_frame_sheaf(F)
    assert first.elapsed_ms is not None
    ms = first.elapsed_ms
    again = is_frame_sheaf(F)
    assert again is first and again.elapsed_ms == ms


def test_check_frame_sheaf_then_frame_equivalence_compute_completeness_once(tmp_path, monkeypatch, capsys):
    from posheaf import complete, jsonio
    from posheaf.cli import run
    from posheaf.frame_equiv import verify_frame_equivalence

    F = posheaf_ab()
    fresh = complete._is_complete_fresh
    calls = []

    def counted(G, meter):
        calls.append(G)
        return fresh(G, meter)

    monkeypatch.setattr(complete, "_is_complete_fresh", counted)
    monkeypatch.setattr(jsonio, "load_posheaf", lambda doc, base_dir=None: F)
    path = tmp_path / "F.json"
    path.write_text("{}")
    assert run(["check", "frame-sheaf", str(path)]) == 0
    capsys.readouterr()
    assert verify_frame_equivalence(F).passed
    assert calls == [F]


def test_the_opposite_is_built_once():
    F = posheaf_ab()
    op = F.opposite()
    assert F.opposite() is op and op.opposite() is F
    assert all(op.orders[u] == {(y, x) for (x, y) in F.orders[u]} for u in F.frame.elements)


def test_point_rows_need_pos2(SAB):
    # xz ≤ yz at the top but x and y are incomparable over a: POS2 fails.
    # The bound kernels read the rows as a partial order and refuse F with
    # its posheaf report; the three-form checks read the rows as they are
    F = PoSheaf(SAB, {"1": [("xz", "yz")]})
    S = SubSheaf(SAB, {"1": ["xz"]})
    for kernel in (lambda: bounds(F, S), lambda: sup_in_open(F, S, "1")):
        with pytest.raises(PosheafError) as err:
            kernel()
        assert err.value.report.witness["first_failed"] == "posheaf.POS2"
    ident = SheafMorphism.identity(SAB)
    assert verify_order_preserving(ident, F, F).passed
    assert verify_galois(ident, ident, F, F).passed


def test_frame_morphism_reports_on_m3_are_pinned():
    # every endomorphism of m3_posheaf: any map of the diamond M3 at the top,
    # the identity below. The per-open hom form reads M3, a lattice that is
    # no frame, as the FinitePoset it is; the 3125 reports, as JSON without
    # timing, are those the per-open FrameHom form gave before it (sha256),
    # with 172 maps reaching that form and failing it
    F = m3_posheaf()
    top = F.carrier("1")
    reports, laws = [], Counter()
    for images in itertools.product(top, repeat=len(top)):
        maps = {u: {x: x for x in F.carrier(u)} for u in F.frame.elements}
        maps["1"] = dict(zip(top, images))
        rep = verify_frame_morphism(SheafMorphism(F.sheaf, F.sheaf, maps), F, F)
        reports.append(rep.to_json(include_timing=False))
        hom = next((r for r in rep.subreports if r.name == "frame_morphism.per_open_frame_hom"), None)
        laws[rep.passed, None if hom is None or hom.passed else hom.witness["law"]] += 1
    assert laws == {(False, None): 2947, (False, "frame_hom.finite_meets"): 128, (False, "frame_hom.joins"): 44, (True, None): 6}
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "af578b1539250baf07a2e96a9fc0e66e4b849b8db462a1106f129f828bfcdbaa"
