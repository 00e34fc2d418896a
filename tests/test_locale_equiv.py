"""Sheaf locale construction, local homeomorphisms, cross-sections, the
adjunction with its triangles, spatiality, POSL/CPOSL."""
from __future__ import annotations

import gc
import itertools
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest

from posheaf import cli, jsonio, locale_equiv
from posheaf.frames import FiniteFrame, FinitePoset, frame_iso, verify_frame_hom
from posheaf.complete import is_complete, is_frame_sheaf
from posheaf.generate import GenConfig, gen_frame, gen_posheaf, gen_sheaf, mutate
from posheaf.locale_equiv import (
    LocaleOverX,
    Section,
    check_cposl,
    check_posl,
    counit,
    cross_sections,
    etale_locale,
    is_local_homeomorphism,
    is_spatial,
    lambda_on_morphism,
    triangle_gamma_side,
    triangle_identities,
    triangle_lambda_side,
    unit,
    verify_sh_lh_equivalence,
)
from posheaf.orders import PoSheaf, omega
from posheaf.report import OrderNotProvided, ResourceLimit
from posheaf.report import Budget
from posheaf.sheaves import Presheaf, SheafMorphism, _verify_sheaf_fresh, subterminal, terminal, verify_presheaf, verify_sheaf
from posheaf.fixtures import (
    frame_2,
    frame_3,
    frame_6,
    frame_d,
    identity_locale,
    m3_posheaf,
    open_inclusion,
    sections_free_locale,
    sheaf_ab,
    three_chain_over_2,
)




def test_lambda_of_terminal_is_base(FD, F3, F6):
    for X in (FD, F3, F6):
        E = etale_locale(terminal(X))
        assert E.report.passed
        assert len(E.frame.elements) == len(X.elements)
        # p* itself is the isomorphism over X
        mapping = E.locale.fstar.mapping
        assert len(set(mapping.values())) == len(X.elements)
        iso = frame_iso(X, E.frame, fixed=dict(mapping))
        assert iso == mapping


def test_lambda_of_sheaf_ab_matches_hand_built_frame(SAB, FD):
    E = etale_locale(SAB)
    assert E.report.passed
    # expected: opens of two copies of the a-sheet and one b-sheet,
    # i.e. the product of the three sublocale frames
    expected_elements = list(itertools.product(["0", "a"], ["0", "a"], ["0", "b"]))
    assert len(E.frame.elements) == len(expected_elements) == 8
    pairs = [
        (str(p), str(q))
        for p in expected_elements
        for q in expected_elements
        if all(FD.leq(x, y) for x, y in zip(p, q))
    ]
    expected = FiniteFrame(FinitePoset([str(e) for e in expected_elements], pairs, closed=True))
    assert expected.verify().passed
    assert frame_iso(E.frame, expected) is not None


def test_lambda_of_empty_above_bottom_is_trivial(FD):
    P = subterminal(FD, "0")
    E = etale_locale(P)
    assert len(E.frame.elements) == 1


def test_lambda_budget_guard(SAB):
    with pytest.raises(ResourceLimit):
        etale_locale(SAB, budget=Budget(lambda_elements=3))


def test_lambda_on_morphisms(SAB, FD):
    T = terminal(FD)
    E_sab = etale_locale(SAB)
    E_t = etale_locale(T)
    ident, rep_i = lambda_on_morphism(SheafMorphism.identity(SAB), E_sab, E_sab)
    assert rep_i.passed
    assert all(ident(lab) == lab for lab in E_sab.frame.elements)

    bang = SheafMorphism(SAB, T, {u: {x: "*" for x in SAB.carriers[u]} for u in FD.elements})
    lam_bang, rep_b = lambda_on_morphism(bang, E_sab, E_t)
    assert rep_b.passed
    # functoriality over a two-step chain: (bang ∘ id) = bang
    composed, rep_c = lambda_on_morphism(bang.compose(SheafMorphism.identity(SAB)), E_sab, E_t)
    assert rep_c.passed
    assert composed.mapping == {lab: ident(lam_bang(lab)) for lab in E_t.frame.elements}


def test_local_homeomorphism_verdicts(FD):
    assert is_local_homeomorphism(open_inclusion(FD, "a")).passed
    assert is_local_homeomorphism(identity_locale(FD)).passed
    rep = is_local_homeomorphism(three_chain_over_2())
    assert not rep.passed
    assert rep.witness["good_opens"] == ["0", "m"]
    assert rep.witness["join"] == "m"


def test_gamma_of_a_120_open_sheaf_locale_within_the_default_budget():
    # the point search over the base's join-irreducibles decides this locale
    # in a few hundred nodes; a search over the opens of O(Y) outgrows the
    # default 500k-node budget here
    cfg = GenConfig(seed=17, max_opens=7, max_carrier=3)
    P = gen_sheaf(gen_frame(cfg), cfg)
    E = etale_locale(P)
    assert len(E.frame) == 120
    G = cross_sections(E.locale, budget=Budget())
    assert G.report.passed
    assert sum(len(G.sheaf.carriers[u]) for u in P.frame.elements) == 24
    assert [len(G.sheaf.carriers[u]) for u in P.frame.elements] == [len(P.carriers[u]) for u in P.frame.elements]


def test_lambda_is_always_a_local_homeomorphism(SAB, FD):
    for P in (terminal(FD), SAB, omega(FD).sheaf):
        E = etale_locale(P)
        assert is_local_homeomorphism(E.locale).passed


def test_gamma_of_identity_is_terminal(FD):
    G = cross_sections(identity_locale(FD))
    assert G.report.passed
    assert [len(G.sheaf.carriers[u]) for u in FD.elements] == [1, 1, 1, 1]


def test_gamma_of_open_inclusion_is_subterminal(FD):
    G = cross_sections(open_inclusion(FD, "a"))
    assert G.report.passed
    sub = subterminal(FD, "a")
    assert [len(G.sheaf.carriers[u]) for u in FD.elements] == [len(sub.carriers[u]) for u in FD.elements]


def test_gamma_lambda_recovers_sheaf_ab(SAB):
    E = etale_locale(SAB)
    G = cross_sections(E.locale)
    eta, rep = unit(SAB, E, G)
    assert rep.passed
    for u in SAB.frame.elements:
        images = {eta(u, s) for s in SAB.carriers[u]}
        assert len(images) == len(SAB.carriers[u])
        assert images == set(G.sheaf.carriers[u])


def test_counit_iso_on_open_inclusion(FD):
    f = open_inclusion(FD, "a")
    G = cross_sections(f)
    E = etale_locale(G.sheaf)
    hom, rep = counit(f, G, E)
    assert rep.passed
    values = list(hom.mapping.values())
    assert len(set(values)) == len(values) and set(values) == set(E.frame.elements)


def test_triangles_on_fixtures(SAB, FD):
    assert triangle_identities(terminal(FD)).passed
    assert triangle_identities(SAB).passed
    assert triangle_lambda_side(omega(FD).sheaf).passed
    assert triangle_gamma_side(open_inclusion(FD, "a")).passed
    assert triangle_gamma_side(three_chain_over_2()).passed  # triangles hold for any locale


def test_sh_lh_equivalence_on_sheaves(SAB, FD):
    assert verify_sh_lh_equivalence(terminal(FD)).passed
    assert verify_sh_lh_equivalence(SAB).passed
    rep = verify_sh_lh_equivalence(omega(FD).sheaf)
    assert rep.passed


def test_sh_lh_equivalence_on_locales(SAB, FD):
    E = etale_locale(omega(FD).sheaf)
    rep = verify_sh_lh_equivalence(E.locale)
    assert rep.passed

    bad = verify_sh_lh_equivalence(three_chain_over_2())
    by_name = {r.name: r for r in bad.subreports}
    assert not by_name["local_homeomorphism"].passed
    assert not by_name["counit_iso"].passed
    assert by_name["counit_iso"].witness["unreached"]
    assert by_name["counit_iso_iff_lh"].passed  # verdicts line up: not LH, not iso


def test_unit_reflects_non_sheaf(FD):
    # a presheaf violating gluing: the sheafification drops nothing here but
    # adds the missing amalgamation
    carriers = {"0": ("*",), "a": ("x", "y"), "b": ("z",), "1": ("xz",)}
    res = {
        ("a", "0"): {"x": "*", "y": "*"},
        ("b", "0"): {"z": "*"},
        ("1", "0"): {"xz": "*"},
        ("1", "a"): {"xz": "x"},
        ("1", "b"): {"xz": "z"},
    }
    P = Presheaf(FD, carriers, res)
    assert not verify_sheaf(P).passed
    rep = verify_sh_lh_equivalence(P)
    assert rep.passed  # the reflection is idempotent
    assert rep.details["input_is_sheaf"] is False


def test_spatiality(FD):
    for f in (identity_locale(FD), open_inclusion(FD, "a")):
        rep = is_spatial(f)
        assert rep.passed

    rep_bad = is_spatial(sections_free_locale())
    assert not rep_bad.passed
    forms = {r.name: r for r in rep_bad.subreports}
    assert forms["spatial.agreement"].passed
    assert forms["spatial.sections_separate"].witness == {"pair": ["0", "1"]}


def test_posl_cposl_on_identity(FD):
    f = identity_locale(FD)
    G = cross_sections(f)
    trivial = {u: [] for u in FD.elements}
    assert check_posl(f, trivial).passed
    assert check_cposl(f, trivial).passed
    with pytest.raises(OrderNotProvided):
        check_posl(f, None)


def test_posl_requires_local_homeomorphism():
    from posheaf.report import PosheafError

    with pytest.raises(PosheafError):
        check_posl(three_chain_over_2(), {})


def test_cposl_transported_from_omega(FD):
    # orders transported along the unit from the subobject classifier
    Om = omega(FD)
    E = etale_locale(Om.sheaf)
    G = cross_sections(E.locale)
    eta, rep = unit(Om.sheaf, E, G)
    assert rep.passed
    orders = {
        u: [
            (eta(u, v), eta(u, w))
            for v in Om.carrier(u)
            for w in Om.carrier(u)
            if FD.leq(v, w)
        ]
        for u in FD.elements
    }
    assert check_posl(E.locale, orders).passed
    assert check_cposl(E.locale, orders).passed


def test_cposl_scans_each_open_lattice_once(monkeypatch):
    # CPOSL1 and the completeness verdict read one lattice kernel per
    # stalk poset: on the sheaf locale of Ω(FRAME_6) with the orders
    # transported along the unit, each open's lattice law is scanned once
    X = frame_6()
    Om = omega(X)
    E = etale_locale(Om.sheaf)
    eta, _ = unit(Om.sheaf, E, cross_sections(E.locale))
    orders = {u: [(eta(u, v), eta(u, w)) for v in Om.carrier(u) for w in Om.carrier(u) if X.leq(v, w)] for u in X.elements}
    scans = Counter()
    real = FinitePoset._bound_gap
    monkeypatch.setattr(FinitePoset, "_bound_gap", lambda self, meets: scans.update([(id(self), meets)]) or real(self, meets))
    assert check_cposl(E.locale, orders).passed
    assert len(scans) == len(X.elements) and set(scans.values()) == {1}


def test_cposl_fails_without_bottoms(SAB, FD):
    # two incomparable stalks over a: a posheaf locale that is not complete
    E = etale_locale(SAB)
    G = cross_sections(E.locale)
    eta, rep = unit(SAB, E, G)
    assert rep.passed
    discrete_orders = {u: [] for u in FD.elements}
    assert check_posl(E.locale, discrete_orders).passed
    rep_c = check_cposl(E.locale, discrete_orders)
    assert not rep_c.passed
    forms = {r.name: r for r in rep_c.subreports}
    assert not forms["cposl.CPOSL1"].passed
    assert forms["cposl.agreement_with_completeness"].passed


def test_posl_cposl_fail_on_transported_break_pos3(FD):
    # a break-POS3 mutant of Ω(FD), transported along the unit: POS3 fails on
    # Γ, so POSL3 and CPOSL3 name the same open and cover as the posheaf layer
    Om = omega(FD)
    mutant = mutate(Om, "break-POS3", GenConfig(seed=0))
    E = etale_locale(Om.sheaf)
    G = cross_sections(E.locale)
    eta, rep = unit(Om.sheaf, E, G)
    assert rep.passed
    orders = {u: [(eta(u, v), eta(u, w)) for (v, w) in mutant.orders[u]] for u in FD.elements}

    posl = {r.name: r for r in check_posl(E.locale, orders).subreports}
    assert posl["posl.POSL1"].passed and posl["posl.POSL2"].passed
    assert not posl["posl.POSL3"].passed
    assert posl["posl.POSL3"].witness == {"open": "1", "cover": ["a", "b"]}
    assert posl["posl.agreement_with_posheaf"].passed

    cposl = {r.name: r for r in check_cposl(E.locale, orders).subreports}
    assert cposl["cposl.CPOSL1"].witness == {"open": "1"}
    assert cposl["cposl.CPOSL3"].witness == {"open": "1", "cover": ["a", "b"]}
    assert cposl["cposl.agreement_with_completeness"].passed


@pytest.mark.parametrize(
    "images, law", [("ssss", "surjective"), ("ssst", "join/meet-preserving"), ("sttt", "join/meet-preserving")]
)
def test_cposl2_names_the_restriction_law(diamond_over_chain, images, law):
    # a posheaf with lattice stalks whose restriction 1 → a is not surjective,
    # not sup-preserving or not inf-preserving, transported along the unit
    F = diamond_over_chain(images)
    E = etale_locale(F.sheaf)
    G = cross_sections(E.locale)
    eta, rep = unit(F.sheaf, E, G)
    assert rep.passed
    orders = {u: [(eta(u, x), eta(u, y)) for (x, y) in F.orders[u]] for u in F.frame.elements}
    forms = {r.name: r for r in check_cposl(E.locale, orders).subreports}
    assert forms["cposl.CPOSL1"].passed
    assert forms["cposl.CPOSL2"].witness == {"restriction": ["1", "a"], "not": law}
    assert forms["cposl.agreement_with_completeness"].passed


@pytest.mark.parametrize("top, witness", [(("s", "t"), None), (("p",), {"restriction": ["1", "a"], "not": "surjective"})])
def test_cposl2_decides_on_lower_covers_and_names_the_first_pair(monkeypatch, top, witness):
    # on the chain 0 < a < b < 1, with F(1) a copy of F(b) or one point:
    # CPOSL2 reads the restriction laws at the lower covers alone when they
    # pass; when 1 → b is not surjective, neither is 1 → a, which comes
    # first in frame order though a is no lower cover of 1, and the scan
    # over every pair names it
    from posheaf import locale_equiv

    chain = FiniteFrame.from_relation(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    carriers = {"0": ("*",), "a": ("s", "t"), "b": ("s", "t"), "1": top}
    res = {(u, "0"): {x: "*" for x in carriers[u]} for u in ("a", "b", "1")}
    down = {"s": "s", "t": "t", "p": "s"}
    res.update({("b", "a"): {"s": "s", "t": "t"}, ("1", "b"): {x: down[x] for x in top}, ("1", "a"): {x: down[x] for x in top}})
    order = [("s", "t")]
    F = PoSheaf(Presheaf(chain, carriers, res), {"a": order, "b": order, "1": order if len(top) == 2 else []})
    E = etale_locale(F.sheaf)
    G = cross_sections(E.locale)
    eta, rep = unit(F.sheaf, E, G)
    assert rep.passed
    orders = {u: [(eta(u, x), eta(u, y)) for (x, y) in F.orders[u]] for u in F.frame.elements}
    pairs = []
    real = locale_equiv._restriction_gap

    def counted(H, u, v):
        pairs.append((u, v))
        return real(H, u, v)

    monkeypatch.setattr(locale_equiv, "_restriction_gap", counted)
    forms = {r.name: r for r in check_cposl(E.locale, orders).subreports}
    assert "a" not in chain.lower_covers("1")
    assert forms["cposl.CPOSL1"].passed
    assert forms["cposl.CPOSL2"].witness == witness
    assert forms["cposl.agreement_with_completeness"].passed
    lower = {(u, v) for u in chain.elements for v in chain.lower_covers(u)}
    assert set(pairs) == lower if witness is None else ("1", "a") in pairs


def _memo_instances():
    """A generated sheaf and its sheaf locale as documents, so every load is
    a fresh object."""
    cfg = GenConfig(seed=5, max_opens=6, max_carrier=2)
    P = gen_sheaf(gen_frame(cfg), cfg)
    return jsonio.dump_presheaf_doc(P), jsonio.dump_locale_doc(etale_locale(P).locale)


def test_lambda_and_gamma_are_built_once_per_instance():
    presheaf_doc, locale_doc = _memo_instances()
    P = jsonio.load_presheaf(presheaf_doc)
    E = etale_locale(P)
    assert etale_locale(P, budget=Budget()) is E
    G = cross_sections(E.locale)
    assert cross_sections(E.locale) is G
    f = jsonio.load_locale(locale_doc)
    assert cross_sections(f) is cross_sections(f)


def _limit(build, instance, budget):
    with pytest.raises(ResourceLimit) as exc:
        build(instance, budget=budget)
    return exc.value.what, exc.value.limit


def test_memo_hits_replay_the_budget_of_a_fresh_build():
    # a hit counts the first build's ticks against the caller's own budget:
    # below the recorded count it raises what a fresh build on a fresh load
    # raises, at the count it returns the kept object
    presheaf_doc, locale_doc = _memo_instances()
    P = jsonio.load_presheaf(presheaf_doc)
    E = etale_locale(P)
    f = jsonio.load_locale(locale_doc)
    G = cross_sections(f)
    elements, nodes = P._etale[1], f._gamma[1]
    assert elements == len(E.assignments) > 2 and nodes > 2
    for k in (0, 1, elements // 2, elements - 1):
        budget = Budget(lambda_elements=k)
        assert _limit(etale_locale, P, budget) == _limit(etale_locale, jsonio.load_presheaf(presheaf_doc), budget)
    for k in (0, 1, nodes // 2, nodes - 1):
        budget = Budget(section_nodes=k)
        assert _limit(cross_sections, f, budget) == _limit(cross_sections, jsonio.load_locale(locale_doc), budget)
    assert etale_locale(P, budget=Budget(lambda_elements=elements)) is E
    assert cross_sections(f, budget=Budget(section_nodes=nodes)) is G


def test_a_build_that_raised_caches_nothing():
    presheaf_doc, locale_doc = _memo_instances()
    P = jsonio.load_presheaf(presheaf_doc)
    with pytest.raises(ResourceLimit):
        etale_locale(P, budget=Budget(lambda_elements=1))
    assert P._etale is None
    f = jsonio.load_locale(locale_doc)
    with pytest.raises(ResourceLimit):
        cross_sections(f, budget=Budget(section_nodes=1))
    assert f._gamma is None
    # the completeness reject scan of an incomplete posheaf, and m3's frame
    # sheaf reject scan, which builds ℙF (its completeness ticks nothing)
    cfg = GenConfig(seed=9, max_opens=4, max_carrier=2)
    F = gen_posheaf(gen_frame(cfg), cfg)
    with pytest.raises(ResourceLimit):
        is_complete(F, budget=Budget(subsheaves=1))
    assert F._completeness is None
    F = m3_posheaf()
    with pytest.raises(ResourceLimit):
        is_frame_sheaf(F, budget=Budget(subsheaves=1))
    assert F._completeness is not None and F._frame_sheaf is None


def test_the_memo_makes_no_reference_cycle():
    # the slots hold weak references: with the cyclic collector off, the
    # inputs die as soon as the caller drops them and the Λ and Γ built
    # from them
    presheaf_doc, locale_doc = _memo_instances()
    gc.disable()
    try:
        P = jsonio.load_presheaf(presheaf_doc)
        E = etale_locale(P)
        G = cross_sections(E.locale)
        alive = [weakref.ref(P), weakref.ref(E.locale)]
        del P, E, G
        f = jsonio.load_locale(locale_doc)
        G = cross_sections(f)
        E = etale_locale(G.sheaf)
        alive.append(weakref.ref(f))
        del f, G, E
        assert [ref() for ref in alive] == [None] * 3
    finally:
        gc.enable()


def test_verify_sheaf_makes_no_reference_cycle():
    # the gluing search keeps no closure that calls itself: with the cyclic
    # collector off, Γ's sheaf, whose certificate cross_sections keeps by
    # proof, and a loaded copy of it, checked here, die as soon as the
    # caller drops the locale, Γ, the copy and their sheaf locales
    _, locale_doc = _memo_instances()
    gc.disable()
    try:
        f = jsonio.load_locale(locale_doc)
        G = cross_sections(f)
        copy = jsonio.load_presheaf(jsonio.dump_presheaf_doc(G.sheaf))
        assert verify_sheaf(G.sheaf).passed and verify_sheaf(copy).passed
        E, E2 = etale_locale(G.sheaf), etale_locale(copy)
        alive = [weakref.ref(G.sheaf), weakref.ref(copy)]
        del f, G, E, copy, E2
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def _count_builds(monkeypatch) -> tuple[Counter, Counter]:
    """Germ walks per presheaf and section searches per locale, counted by
    wrapping the two searches Λ and Γ run."""
    walks, searches = Counter(), Counter()
    walk, search = locale_equiv._germ_downsets, locale_equiv._point_sections

    def counted_walk(F, *args, **kwargs):
        walks[id(F)] += 1
        return walk(F, *args, **kwargs)

    def counted_search(f, fibres, u, nodes):
        searches[id(f)] += u == f.base.bottom  # one call per open of the base
        return search(f, fibres, u, nodes)

    monkeypatch.setattr(locale_equiv, "_germ_downsets", counted_walk)
    monkeypatch.setattr(locale_equiv, "_point_sections", counted_search)
    return walks, searches


def test_equivalence_reuses_the_callers_lambda_and_gamma(monkeypatch):
    walks, searches = _count_builds(monkeypatch)
    cfg = GenConfig(seed=5, max_opens=6, max_carrier=2)
    sheaf = gen_sheaf(gen_frame(cfg), cfg)
    for P in (sheaf, mutate(sheaf, "remove-amalgamation", cfg)):
        E = etale_locale(P)
        G = cross_sections(E.locale)
        walks.clear()
        searches.clear()
        assert verify_sh_lh_equivalence(P).passed
        assert walks[id(P)] == 0 and searches[id(E.locale)] == 0
    f = E.locale
    G = cross_sections(f)
    E2 = etale_locale(G.sheaf)  # held, as the caller holds its Λ
    walks.clear()
    searches.clear()
    assert verify_sh_lh_equivalence(f).passed
    assert searches[id(f)] == 0 and walks[id(G.sheaf)] == 0


def test_cli_posl_and_cposl_search_the_sections_once(monkeypatch, tmp_path, capsys):
    walks, searches = _count_builds(monkeypatch)
    _, locale_doc = _memo_instances()
    base = jsonio.load_locale(locale_doc).base
    path = tmp_path / "posl.json"
    path.write_text(json.dumps({**locale_doc, "section_orders": {u: [] for u in base.elements}}))
    for kind in ("posl", "cposl"):
        searches.clear()
        assert cli.run(["check", kind, str(path)]) in (0, 1)
        assert sum(searches.values()) == 1, kind
    capsys.readouterr()


def test_a_locale_is_verified_once(monkeypatch, FD):
    # Λ's projection is a frame hom by proof: Λ runs no verify_frame_hom on
    # it and keeps the proved report on the locale it returns
    # (report.once), which Γ and the local-homeomorphism test read, and
    # reports a renamed copy, so the locale's own report keeps its name
    calls = Counter()
    hom = locale_equiv.verify_frame_hom

    def counted(h):
        calls[id(h)] += 1
        return hom(h)

    monkeypatch.setattr(locale_equiv, "verify_frame_hom", counted)
    E = etale_locale(terminal(FD))
    f = E.locale
    rep = f.verify()
    assert f.verify() is rep and rep.passed and rep.name == "frame_hom"
    projection = next(r for r in E.report.subreports if r.name == "sheaf_locale.projection_hom")
    assert projection is not rep and projection.passed
    cross_sections(f)
    is_local_homeomorphism(f)
    assert f.verify() is rep and not calls
    # a locale that Λ did not build is verified once, on its first read
    g = open_inclusion(FD, "a")
    cross_sections(g)
    is_local_homeomorphism(g)
    assert g.verify().passed and calls == {id(g.fstar): 1}


POOL = Path(__file__).resolve().parents[1] / "bench" / "pools" / "etale.json"
FIXTURE_LOCALES = {
    "identity(FRAME_D)": lambda: identity_locale(frame_d()),
    "open_inclusion(FRAME_D,a)": lambda: open_inclusion(frame_d(), "a"),
    "three_chain_over_2": three_chain_over_2,
}


def _pool_instances() -> tuple[list, list]:
    """The étale benchmark pool, rebuilt from its recipes: (name, locale)
    for its fixture locales and (name, presheaf) for its generated sheaves
    and their remove-amalgamation mutants."""
    locales, presheaves = [], []
    for item in json.loads(POOL.read_text())["items"]:
        recipe = item["recipe"]
        if "fixture" in recipe:
            locales.append((item["name"], FIXTURE_LOCALES[recipe["fixture"]]()))
            continue
        cfg = GenConfig(seed=recipe["seed"], max_opens=recipe["max_opens"], max_carrier=recipe["max_carrier"])
        P = gen_sheaf(gen_frame(cfg), cfg)
        presheaves.append((item["name"], mutate(P, recipe["mutate"], cfg) if recipe["mutate"] else P))
    return locales, presheaves


def _json(report) -> dict:
    return report.to_json(include_timing=False)


def _gamma_matches_a_check(name: str, f: LocaleOverX) -> Presheaf:
    """Γ(f)'s sheaf: its proved composition report and sheaf certificate
    are those a check of a fresh copy finds."""
    S = cross_sections(f).sheaf
    fresh = Presheaf(S.frame, S.carriers, S.res, labeler=S.label)
    assert _json(verify_presheaf(S)) == _json(fresh._verify_fresh()), name
    cert, checked = verify_sheaf(S), _verify_sheaf_fresh(fresh)
    assert (cert.entries, _json(cert.report())) == (checked.entries, _json(checked.report())), name
    return S


def _lambda_matches_a_check(name: str, P: Presheaf) -> LocaleOverX:
    """Λ(P)'s locale: its proved projection report is verify_frame_hom's."""
    E = etale_locale(P)
    checked = _json(verify_frame_hom(E.locale.fstar))
    projection = next(r for r in E.report.subreports if r.name == "sheaf_locale.projection_hom")
    assert _json(E.locale.verify()) == checked == dict(_json(projection), name="frame_hom"), name
    return E.locale


def test_proved_reports_match_the_checks():
    # Γ's sheaf certificate and composition report and Λ's projection hom
    # are issued by proof; a check finds the same reports, JSON without
    # timing, on Γ and ΓΛΓ of the pool's fixture locales and on ΓΛP and
    # ΓΛΓΛP of its generated sheaves and remove-amalgamation mutants, the
    # instances that the equivalence check builds
    locales, presheaves = _pool_instances()
    for name, f in locales:
        G = _gamma_matches_a_check(name, f)
        _gamma_matches_a_check(name, _lambda_matches_a_check(name, G))
    for name, P in presheaves:
        G = _gamma_matches_a_check(name, _lambda_matches_a_check(name, P))
        _gamma_matches_a_check(name, _lambda_matches_a_check(name, G))
    mutants = [name for name, P in presheaves if not verify_sheaf(P).passed]
    assert len(locales) == 3 and len(presheaves) == 177 and len(mutants) == 26
