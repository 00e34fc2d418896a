"""The equivalence between frame sheaves on X and frame homomorphisms under
O(X): both directions, verified as isomorphisms instance by instance with the
proof's explicit maps (blind search only as a fallback oracle)."""
from __future__ import annotations

from dataclasses import dataclass

from .frames import FiniteFrame, FrameHom, frame_iso, verify_frame_hom
from .report import Budget, CheckReport, IsoSearchFailed, NotComplete, NotFrameSheaf, timed
from .complete import _left_adjoint_table, is_frame_sheaf
from .orders import PoSheaf
from .sheaves import Presheaf


@dataclass
class FrameUnderX:
    """A frame homomorphism out of the base frame: an object of O(X)/Frm."""

    hom: FrameHom

    @property
    def base(self) -> FiniteFrame:
        return self.hom.source

    @property
    def target(self) -> FiniteFrame:
        return self.hom.target

    def verify(self) -> CheckReport:
        return verify_frame_hom(self.hom)


def frame_hom_to_sheaf(h: FrameUnderX, *, verify: bool = False, budget: Budget | None = None) -> PoSheaf:
    """Φ: carrier at u is the part of L below h(u), restriction by meet with
    h(v), order inherited from L. A frame sheaf whenever h is a frame hom."""
    X, L = h.base, h.target
    f = h.hom
    carriers = {u: tuple(x for x in L.elements if L.leq(x, f(u))) for u in X.elements}
    sheaf = Presheaf.of(X, carriers, lambda u, x, v: L.meet(x, f(v)))
    F = PoSheaf.of(sheaf, lambda u, x, y: L.leq(x, y))
    if verify:
        is_frame_sheaf(F, budget=budget).require(NotFrameSheaf)
    return F


def sheaf_to_frame_hom(F: PoSheaf, *, check: bool = True, budget: Budget | None = None) -> FrameUnderX:
    """Ψ: the top carrier as a frame, with u sent to the left adjoint of the
    top-to-u restriction applied to the top of F(u)."""
    budget = budget or Budget()
    if check:
        try:
            rep = is_frame_sheaf(F, budget=budget)
        except NotComplete as exc:
            raise NotFrameSheaf("input is not a frame sheaf (not complete)", report=exc.report) from exc
        if not rep.passed:
            raise NotFrameSheaf("input is not a frame sheaf", report=rep)
    X = F.frame
    L = FiniteFrame(F.poset(X.top))
    mapping = {u: L.elements[_left_adjoint_table(F, X.top, u)[F.sheaf.at[u][F.poset(u).top]]] for u in X.elements}
    hom = FrameHom(X, L, mapping)
    out = FrameUnderX(hom)
    out.verify().require(NotFrameSheaf)
    return out


def _posheaf_iso_via(F: PoSheaf, G: PoSheaf, tables: dict) -> CheckReport:
    """Check a given per-open family as an order isomorphism natural in u."""
    frame = F.frame
    for u in frame.elements:
        table = tables[u]
        if set(table.keys()) != set(F.carrier(u)):
            return CheckReport.fail("iso.total", {"open": u})
        if len(set(table.values())) != len(F.carrier(u)) or set(table.values()) != set(G.carrier(u)):
            return CheckReport.fail("iso.bijective", {"open": u})
        for x in F.carrier(u):
            for y in F.carrier(u):
                if F.leq(u, x, y) != G.leq(u, table[x], table[y]):
                    return CheckReport.fail(
                        "iso.order", {"open": u, "pair": [F.label(u, x), F.label(u, y)]}
                    )
    for u in frame.elements:
        for v in frame.down(u):
            for x in F.carrier(u):
                if tables[v][F.sheaf.restrict(u, x, v)] != G.sheaf.restrict(u, tables[u][x], v):
                    return CheckReport.fail(
                        "iso.natural", {"square": [u, v], "section": F.label(u, x)}
                    )
    return CheckReport.ok("iso")


@timed
def verify_frame_equivalence(instance, *, budget: Budget | None = None) -> CheckReport:
    """Both roundtrips of the equivalence, via the proof's explicit maps.

    For a frame sheaf F: Φ(Ψ(F)) ≅ F through the left-adjoint family, checked
    as a natural order isomorphism (with the naturality identity from the
    proof). For a frame hom h: Ψ(Φ(h)) ≅ h through an explicit frame
    isomorphism commuting under O(X), with blind search as fallback."""
    budget = budget or Budget()
    if isinstance(instance, FrameUnderX):
        h = instance
        h.verify().require()
        F = frame_hom_to_sheaf(h)
        back = sheaf_to_frame_hom(F, check=False)
        L, L2 = h.target, back.target
        # Φ(h)(top) is the whole of L, so the identity is the candidate iso
        if set(L2.elements) == set(L.elements) and L2.poset.pairs() == L.poset.pairs():
            commute = all(back.hom(u) == h.hom(u) for u in h.base.elements)
            identity_ok = commute
        else:
            identity_ok = False
        if identity_ok:
            iso_rep = CheckReport.ok("frame_equivalence.psi_phi", iso="identity")
        else:
            mapping = frame_iso(L2, L)
            if mapping is None:
                raise IsoSearchFailed(
                    "no frame isomorphism between the roundtrip target and L",
                    report=CheckReport.fail("frame_equivalence.psi_phi", {"searched": len(L.elements)}),
                )
            commute = all(mapping[back.hom(u)] == h.hom(u) for u in h.base.elements)
            iso_rep = CheckReport("frame_equivalence.psi_phi", commute, witness=None if commute else {"not": "commuting"})
        stable = frame_hom_to_sheaf(back)
        stable_rep = _roundtrip_sheaf_report(frame_hom_to_sheaf(h), stable)
        stable_rep.name = "frame_equivalence.phi_stability"
        return CheckReport.combine("frame_equivalence", [iso_rep, stable_rep])

    F = instance
    rep = is_frame_sheaf(F, budget=budget)
    if not rep.passed:
        raise NotFrameSheaf("input is not a frame sheaf", report=rep)
    back = sheaf_to_frame_hom(F, check=False)
    FF = frame_hom_to_sheaf(back)
    X = F.frame
    top = F.carrier(X.top)
    tables = {u: dict(zip(F.carrier(u), map(top.__getitem__, _left_adjoint_table(F, X.top, u)))) for u in X.elements}
    iso = _posheaf_iso_via(F, FF, tables)
    iso.name = "frame_equivalence.phi_psi"
    meet = F.poset(X.top).meet
    nat_wit = next(
        (
            {"opens": [u, v], "section": F.label(u, x)}
            for u in X.elements
            for v in X.down(u)
            for x in F.carrier(u)
            if meet(tables[u][x], tables[v][F.poset(v).top]) != tables[v][F.sheaf.restrict(u, x, v)]
        ),
        None,
    )
    nat_rep = CheckReport("frame_equivalence.adjoint_naturality", nat_wit is None, witness=nat_wit)
    return CheckReport.combine("frame_equivalence", [iso, nat_rep])


def _roundtrip_sheaf_report(F: PoSheaf, G: PoSheaf) -> CheckReport:
    # equal carriers index the rows and res_at alike, so the posheaves agree iff those do
    same = all(F.sheaf.carriers[u] == G.sheaf.carriers[u] for u in F.frame.elements) and all(
        F.poset(u).up_rows == G.poset(u).up_rows for u in F.frame.elements
    ) and F.sheaf.res_at == G.sheaf.res_at
    return CheckReport("roundtrip_stable", same, witness=None if same else {"not": "identical"})
