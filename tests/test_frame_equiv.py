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
from posheaf.complete import verify_frame_morphism
from posheaf.orders import omega, power_sheaf
from posheaf.report import NotFrameSheaf
from posheaf.sheaves import full_subsheaf, sheaf_iso, terminal
from tests.conftest import frame_3, frame_6, frame_d, posheaf_ab, sheaf_ab


def one_element_frame():
    return build_frame(["*"], [])


def test_phi_identity_is_omega(FD):
    h = FrameUnderX(FrameHom.identity(FD))
    F = frame_hom_to_sheaf(h, verify=True)
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
    F = frame_hom_to_sheaf(h, verify=True)
    assert [len(F.carrier(u)) for u in FD.elements] == [1, 2, 1, 2]


def test_phi_to_trivial_frame_is_terminal(FD):
    one = one_element_frame()
    h = FrameUnderX(FrameHom(FD, one, {x: "*" for x in FD.elements}))
    F = frame_hom_to_sheaf(h, verify=True)
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
    back = sheaf_to_frame_hom(P, check=False)
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
