"""The equivalence between frame sheaves on X and frame homomorphisms under
O(X): both directions, verified as isomorphisms instance by instance with the
proof's explicit maps."""
from __future__ import annotations

from dataclasses import dataclass

from .frames import FiniteFrame, FrameHom, verify_frame_hom
from .report import Budget, CheckReport, NotComplete, NotFrameSheaf, timed
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


def frame_hom_to_sheaf(h: FrameUnderX) -> PoSheaf:
    """Φ: carrier at u is the part of L below h(u), restriction by meet with
    h(v), order inherited from L. A frame sheaf whenever h is a frame hom;
    nothing is checked here (is_frame_sheaf decides it)."""
    X, L = h.base, h.target
    f = h.hom
    carriers = {u: tuple(x for x in L.elements if L.leq(x, f(u))) for u in X.elements}
    sheaf = Presheaf.of(X, carriers, lambda u, x, v: L.meet(x, f(v)))
    return PoSheaf.of(sheaf, lambda u, x, y: L.leq(x, y))


def sheaf_to_frame_hom(F: PoSheaf, *, budget: Budget | None = None) -> FrameUnderX:
    """Ψ: the top carrier L = F(⊤) as a frame, with u sent to the left
    adjoint of the top-to-u restriction applied to the top of F(u). An input
    that is not a frame sheaf (is_frame_sheaf, kept on F) raises
    NotFrameSheaf; on one, Ψ(F) is a frame hom by proof, not checked. L is a
    frame, as the Frobenius form builds every F(u) as one. Ψ(u) = l_u(⊤_u)
    is the least x in L with x|_u = ⊤_u; restrictions are surjective and
    keep all joins and meets, so Ψ is monotone, Ψ(⊥) = ⊥ (F(⊥) is a point)
    and Ψ(⊤) = ⊤. With a = Ψ(u), b = Ψ(v): (a ∨ b)|_u = ⊤_u and
    (a ∨ b)|_v = ⊤_v, so (a ∨ b)|_{u∨v} = ⊤ as F is a sheaf, and
    Ψ(u ∨ v) = a ∨ b. Frobenius gives a ∧ b = l_u(b|_u), the adjoint square
    (is_complete) b|_u = l_{u∧v→u}(⊤_{u∧v}), and left adjoints compose, so
    a ∧ b = Ψ(u ∧ v): Ψ keeps ⊥, ⊤ and binary joins and meets."""
    budget = budget or Budget()
    try:
        rep = is_frame_sheaf(F, budget=budget)
    except NotComplete as exc:
        raise NotFrameSheaf("input is not a frame sheaf (not complete)", report=exc.report) from exc
    if not rep.passed:
        raise NotFrameSheaf("input is not a frame sheaf", report=rep)
    X = F.frame
    L = FiniteFrame(F.poset(X.top))
    mapping = {u: L.elements[_left_adjoint_table(F, X.top, u)[F.sheaf.at[u][F.poset(u).top]]] for u in X.elements}
    return FrameUnderX(FrameHom(X, L, mapping))


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
    proof). For a frame hom h: Ψ(Φ(h)) = h, by proof. h is verified first,
    so h(⊤) = ⊤, and Φ(h)(⊤) is the whole of L in L's order: Ψ's target
    has L's elements and relation. Ψ sends u to l_{⊤→u} of the top h(u) of
    Φ(h)(u) = ↓h(u), and l_{⊤→u}, left adjoint to x ↦ x ∧ h(u), is the
    inclusion of ↓h(u) in L, so u goes to h(u). The psi_phi report is
    therefore the identity by proof, and so is phi_stability:
    Φ(Ψ(Φ(h))) = Φ(h), since Ψ(Φ(h)) = h. Neither is built."""
    budget = budget or Budget()
    if isinstance(instance, FrameUnderX):
        instance.verify().require()
        iso_rep = CheckReport.ok("frame_equivalence.psi_phi", iso="identity")
        return CheckReport.combine("frame_equivalence", [iso_rep, CheckReport.ok("frame_equivalence.phi_stability")])

    F = instance
    rep = is_frame_sheaf(F, budget=budget)
    if not rep.passed:
        raise NotFrameSheaf("input is not a frame sheaf", report=rep)
    back = sheaf_to_frame_hom(F, budget=budget)
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

