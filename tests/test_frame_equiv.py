"""Frame sheaves on X against frame homs under O(X): both functors and both
roundtrips, via the proof's explicit maps."""
from __future__ import annotations

import pytest

from oracles import frame_hom_to_sheaf_morphism
from posheaf.frames import FrameHom, build_frame, frame_iso
from posheaf.frame_equiv import (
    FrameUnderX,
    frame_hom_to_sheaf,
    sheaf_to_frame_hom,
    verify_frame_equivalence,
)
from posheaf.complete import is_frame_sheaf, verify_frame_morphism
from posheaf.orders import omega, power_sheaf
from posheaf.report import CheckReport, NotFrameSheaf
from posheaf.sheaves import full_subsheaf, sheaf_iso, terminal
from tests.conftest import frame_2, frame_3, frame_6, frame_d, posheaf_ab, sheaf_ab


def one_element_frame():
    return build_frame(["*"], [])


def test_phi_identity_is_omega(FD):
    h = FrameUnderX(FrameHom.identity(FD))
    F = frame_hom_to_sheaf(h)
    is_frame_sheaf(F).require(NotFrameSheaf)
    Om = omega(FD)
    # same carriers and orders on the nose
    assert F.sheaf.carriers == Om.sheaf.carriers
    assert F.orders == Om.orders
    # and by explicit iso search, as an order-isomorphic sheaf
    assert sheaf_iso(F.sheaf, Om.sheaf) is not None


def test_phi_meet_with_a_carriers(FD):
    down_a = FD.subframe("a")
    h = FrameUnderX(FrameHom(FD, down_a, {x: FD.meet(x, "a") for x in FD.elements}))
    assert h.verify().passed
    F = frame_hom_to_sheaf(h)
    is_frame_sheaf(F).require(NotFrameSheaf)
    assert [len(F.carrier(u)) for u in FD.elements] == [1, 2, 1, 2]


def test_phi_to_trivial_frame_is_terminal(FD):
    one = one_element_frame()
    h = FrameUnderX(FrameHom(FD, one, {x: "*" for x in FD.elements}))
    F = frame_hom_to_sheaf(h)
    is_frame_sheaf(F).require(NotFrameSheaf)
    assert F.sheaf.carriers == terminal(FD).carriers


def test_psi_of_omega_is_identity(FD, F3):
    for frame in (FD, F3):
        back = sheaf_to_frame_hom(omega(frame))
        assert back.hom.mapping == {u: u for u in frame.elements}
        assert set(back.target.elements) == set(frame.elements)


def test_psi_of_terminal_is_map_to_point(FD):
    from posheaf.orders import discrete

    back = sheaf_to_frame_hom(discrete(terminal(FD)))
    assert len(back.target.elements) == 1


def test_psi_requires_frame_sheaf(SAB):
    from posheaf.orders import discrete

    with pytest.raises(NotFrameSheaf):
        sheaf_to_frame_hom(discrete(SAB))


def test_roundtrip_psi_phi_meet_with_a(FD):
    down_a = FD.subframe("a")
    h = FrameUnderX(FrameHom(FD, down_a, {x: FD.meet(x, "a") for x in FD.elements}))
    rep = verify_frame_equivalence(h)
    assert rep.passed


def test_roundtrip_on_omega_fixtures():
    for build in (frame_3, frame_d, frame_6):
        Om = omega(build())
        rep = verify_frame_equivalence(Om)
        assert rep.passed


def test_roundtrip_on_power_sheaf_of_ab():
    SAB = sheaf_ab()
    P = power_sheaf(SAB)
    rep = verify_frame_equivalence(P)
    assert rep.passed
    # Ψ(ℙF) sends u to the minimal extension of the full subsheaf of F^u
    back = sheaf_to_frame_hom(P)
    for u in SAB.frame.elements:
        expected = full_subsheaf(SAB, u)
        assert back.hom(u).parts == expected.parts


def test_roundtrip_on_posheaf_ab():
    assert verify_frame_equivalence(posheaf_ab()).passed


def test_phi_on_morphisms_is_frame_morphism(FD):
    down_a = FD.subframe("a")
    f = FrameUnderX(FrameHom.identity(FD))
    g = FrameUnderX(FrameHom(FD, down_a, {x: FD.meet(x, "a") for x in FD.elements}))
    m = FrameHom(FD, down_a, {x: FD.meet(x, "a") for x in FD.elements})
    # m ∘ f = g under O(X)
    assert all(m(f.hom(u)) == g.hom(u) for u in FD.elements)
    alpha = frame_hom_to_sheaf_morphism(f, g, m)
    assert alpha.verify().passed
    F, G = frame_hom_to_sheaf(f), frame_hom_to_sheaf(g)
    rep = verify_frame_morphism(alpha, F, G)
    assert rep.passed


def test_frame_iso_search_utility(FD):
    relabeled = build_frame(["w", "p", "q", "t"], [("w", "p"), ("w", "q"), ("p", "t"), ("q", "t")])
    mapping = frame_iso(FD, relabeled)
    assert mapping is not None
    assert mapping["0"] == "w" and mapping["1"] == "t"
    chain = frame_3()
    assert frame_iso(FD, build_frame(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])) is None


def _roundtrip_homs() -> list[FrameUnderX]:
    """The suite's generated frame homs (seeds 0-59), the identities of the
    fixture frames and their open inclusions."""
    from posheaf.fixtures import FIXTURE_FRAMES, open_inclusion
    from posheaf.suite import _generated_frame_homs

    homs = [h for seed in range(60) for _, h in _generated_frame_homs(seed, 20)]
    for build in FIXTURE_FRAMES.values():
        X = build()
        homs.append(FrameUnderX(FrameHom.identity(X)))
        homs += [FrameUnderX(open_inclusion(X, a).fstar) for a in X.elements]
    return homs


def _lattices_pool_frame_sheaves() -> list:
    """The frame sheaves of the lattices benchmark pool, rebuilt from their
    recipes."""
    import json
    from pathlib import Path

    from posheaf.fixtures import m3_posheaf
    from posheaf.generate import GenConfig, gen_frame, gen_posheaf
    from posheaf.orders import discrete, down_power_sheaf

    fixtures = {
        "omega(FRAME_2)": lambda: omega(frame_2()),
        "omega(FRAME_3)": lambda: omega(frame_3()),
        "power(terminal(FRAME_2))": lambda: power_sheaf(terminal(frame_2())),
        "power(terminal(FRAME_3))": lambda: power_sheaf(terminal(frame_3())),
        "down_power(discrete(terminal(FRAME_2)))": lambda: down_power_sheaf(discrete(terminal(frame_2()))),
        "down_power(discrete(terminal(FRAME_3)))": lambda: down_power_sheaf(discrete(terminal(frame_3()))),
        "posheaf_ab": posheaf_ab,
        "m3": m3_posheaf,
    }
    pool = Path(__file__).resolve().parents[1] / "bench" / "pools" / "lattices.json"
    out = []
    for item in json.loads(pool.read_text())["items"]:
        recipe = item["recipe"]
        if not item["expect"].get("frame_sheaf"):
            continue
        if "fixture" in recipe:
            out.append(fixtures[recipe["fixture"]]())
            continue
        assert recipe["gen"] == "posheaf" and not recipe["mutate"], item["name"]
        cfg = GenConfig(seed=recipe["seed"], max_opens=recipe["max_opens"], max_carrier=recipe["max_carrier"])
        out.append(gen_posheaf(gen_frame(cfg), cfg))
    return out


def test_the_proved_frame_equivalence_reports_match_the_checks():
    # Ψ(F) of a frame sheaf is a frame hom by proof, and a frame hom's
    # psi_phi and phi_stability reports are issued by proof: on the
    # roundtrip homs, and on the frame sheaves of the lattices pool with
    # their Ψ, verify_frame_hom passes on Ψ(F), and the report equals the
    # one that builds Ψ(Φ(h)) and Φ(Ψ(Φ(h))) and compares them
    from oracles import hom_roundtrip_report
    from posheaf.frames import verify_frame_hom

    sheaves = _lattices_pool_frame_sheaves()
    homs = _roundtrip_homs() + [sheaf_to_frame_hom(F) for F in sheaves]
    assert len(sheaves) == 91 and len(homs) > 1300
    passing = CheckReport.ok("frame_hom").to_json(include_timing=False)
    for h in homs:
        back = sheaf_to_frame_hom(frame_hom_to_sheaf(h))
        assert verify_frame_hom(back.hom).to_json(include_timing=False) == passing
        assert verify_frame_equivalence(h).to_json(include_timing=False) == hom_roundtrip_report(h).to_json(include_timing=False)
    for F in sheaves:
        assert verify_frame_hom(sheaf_to_frame_hom(F).hom).to_json(include_timing=False) == passing


def test_the_psi_phi_roundtrip_is_the_identity():
    # verify_frame_equivalence issues psi_phi as the identity by proof: on
    # the suite's generated frame homs (seeds 0-59), the identities of the
    # fixture frames and their open inclusions, Ψ(Φ(h)) has L's elements
    # and order and agrees with h on every open
    homs = _roundtrip_homs()
    for h in homs:
        assert h.verify().passed
        back = sheaf_to_frame_hom(frame_hom_to_sheaf(h))
        L, L2 = h.target, back.target
        assert (L2.elements, L2.poset.pairs()) == (L.elements, L.poset.pairs())
        assert all(back.hom(u) == h.hom(u) for u in h.base.elements)
    assert len(homs) >= 1200
