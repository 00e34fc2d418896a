"""Exhaustive definitions, kept as test oracles for the finite-lattice
reductions in the package: every cover of an open (each subset of its downset
that joins to it), amalgamations found by scanning the carrier, and the
gluing, subsheaf, patching, closure and downward-closure checks quantified
over every cover; the gluing and amalgamation-closure scans over every
empty and binary cover, which the package runs only to name a reject's
witness; the same two as family searches over J↓u, one cover per open,
where the package decides on one pullback square per open; and the
internal-poset subsheaf subreports read from the order
relation as a subsheaf of F×F; presheaf composition over every chain and
POS2 at every v ≤ u, which the package decides along lower covers; Sub
and Dow by next-closure over that closure; least and greatest elements as
the one minimal or maximal member; join and meet preservation over every
subset; the point order in both of its readings, dom-then-value and
factoring through the order subsheaf, the point-order bounds of a
subsheaf one pair at a time, and the forms of an order-preserving map and
of the morphism order each decided apart; and, for the étale layer, the sheaf locale
as the product of the sections' down-sets filtered by pairwise
agreement opens, ordered pointwise and with pointwise meets and joins, its frame by the pair list of
germ down-sets closed to a poset with the pair loop over its meets and joins,
a section's agreement with its
own restrictions, cross-sections by a
search over every open of O(Y) with a frame-hom filter, and local
homeomorphisms by a search for each open's base open; the poset and frame
laws with every pair, chain and triple scanned and a Heyting implication
sought for every pair, a frame's operations read from its poset alone,
and join preservation by a frame hom over every
subset; and, for completeness, the bound checks over every ordered pair
(a frame hom's finite meets, the lattice law at an open, finite
sup-completeness per open, a morphism's finite meets), a morphism's
greatest preimages, the sup of a subsheaf over an open by a scan of every
candidate, and the defining square of a frame sheaf over the whole power
sheaf; and is_complete with each member of Dow(F) and Sub(F) built as a
subsheaf and its sups read from the rows of all its points, least points
by the minimal-members scan, a global point sought among all of F(top),
and the restriction laws and both adjoints built at every pair v < u by
left_adjoint_scan, which checks monotonicity and the adjunction on every
pair. For the order kernel: the reflexive-transitive closure of a
relation by a fixpoint over sets of pairs, the inclusion pairs of a
family of sets with its first pair whose meet or join is missing, and
SetPoset, a relation kept as its pair set and its up-sets and down-sets
as frozensets; PairSetPoSheaf, a posheaf with a pair set per open, and
verify_posheaf read from those pair sets (posheaf_report), with the
internal subsheaf reading decided at the germs (order_closed_at_germs). And agreement_meet_diagnostic, which compares agreement
opens of tuples of sections with the meets of their parts. They are slow
(2^|↓u| covers per open, product spaces, |O(Y)|·|O(X)|³ scans) and live
here so that no package module can fall back to them. So do the
constructions that only the tests use: the order relation as a subsheaf
of F×F (order_subsheaf), F^u as a sheaf on the open sublocale of u
(sheaf_on_down), the meet morphism μ: F × ℙF → ℙF (meet_morphism), Φ on
morphisms (frame_hom_to_sheaf_morphism), and the right adjoint of a
monotone map on the order-opposites (right_adjoint). For the map
kernels, which read position tables: naturality of a sheaf morphism over
every v ≤ u on elements (naturality_scan), bound preservation and the
Galois law through the posets' own element operations (bound_failure,
galois_scan), and a frame hom's roundtrip through Φ and Ψ with both
composites built and compared (hom_roundtrip_report)."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from posheaf.complete import (
    CompletenessCertificate,
    _adjoint_square_check,
    _lattice_gap,
    _minimal_points,
    _restriction_gap,
    _meet_subsheaf,
)
from posheaf.frame_equiv import frame_hom_to_sheaf, sheaf_to_frame_hom
from posheaf.frames import FiniteFrame, FinitePoset, MonotoneMap, _bits, _by_height, _inclusion_rows, left_adjoint
from posheaf.locale_equiv import Section
from posheaf import sheaves
from posheaf.orders import (
    PoSheaf,
    _pair_label,
    _pos3,
    _three_way,
    enumerate_downsheaves,
    power_sheaf,
    verify_morphism,
    verify_posheaf,
)
from posheaf.report import Budget, BudgetMeter, CheckReport, MalformedInput, NotALattice
from posheaf.sheaves import (
    enumerate_subsheaves,
    Point,
    Presheaf,
    SheafCertificate,
    SheafMorphism,
    SubSheaf,
    compatible_families,
    enumerate_points,
    epsilon,
    product_sheaf,
    verify_restriction_closed,
)


def covers(frame, u) -> tuple:
    """All subsets S of the downset of u with join S = u (the empty cover
    only covers bottom); ordered by (size, element indices)."""
    below = frame.down(u)
    found = []
    for mask in range(1 << len(below)):
        subset = tuple(below[i] for i in range(len(below)) if mask >> i & 1)
        if frame.join_all(subset) == u:
            found.append(subset)
    found.sort(key=lambda s: (len(s), tuple(frame.index[x] for x in s)))
    return tuple(found)


def amalgamations(P, u, cover: tuple, family: tuple) -> list:
    return [
        x
        for x in P.carriers[u]
        if all(P.restrict(u, x, ui) == xi for ui, xi in zip(cover, family))
    ]


def verify_sheaf(P) -> tuple[bool, list, dict | None]:
    """(passed, entries, witness) of the gluing check over every cover."""
    return _gluing(P, covers)


def binary_cover_gluing(P) -> SheafCertificate:
    """The gluing check over the empty and binary covers of every open, in
    order, as the full certificate: an entry for each cover whose families
    all glue, up to the first family without exactly one amalgamation."""
    pre = P.verify()
    if not pre.passed:
        return SheafCertificate(False, [], {"precondition": pre.witness}, precondition=pre)
    return SheafCertificate(*_gluing(P, FiniteFrame.binary_covers))


def _gluing(P, covers_of) -> tuple[bool, list, dict | None]:
    entries = []
    for u in P.frame.elements:
        for cover in covers_of(P.frame, u):
            families = 0
            for family in compatible_families(P, cover):
                families += 1
                glue = amalgamations(P, u, cover, family)
                if len(glue) != 1:
                    witness = {
                        "open": u,
                        "cover": list(cover),
                        "family": [P.label(ui, xi) for ui, xi in zip(cover, family)],
                        "amalgamations": len(glue),
                    }
                    return False, entries, witness
            entries.append({"open": u, "cover": list(cover), "families": families})
    return True, entries, None


def canonical_cover_gluing(P) -> bool:
    """Whether every compatible family over J↓u (FiniteFrame.canonical_cover)
    has exactly one amalgamation, at each open u outside J: the comparison
    lemma's reading of gluing, by the family search."""
    frame = P.frame
    for u in frame.elements:
        cover = frame.canonical_cover(u)
        if u in cover:
            continue
        for family in compatible_families(P, cover):
            if len(amalgamations(P, u, cover, family)) != 1:
                return False
    return True


def canonical_cover_closure(S: SubSheaf) -> bool:
    """Whether S is restriction-closed and, at each open u outside J, every
    amalgamation of a family of S over J↓u lies in S(u), by the family
    search."""
    if not verify_restriction_closed(S).passed:
        return False
    P = S.parent
    for u in P.frame.elements:
        cover = P.frame.canonical_cover(u)
        if u in cover:
            continue
        for family in compatible_families(P, cover, S.parts):
            if any(not S.contains(u, x) for x in amalgamations(P, u, cover, family)):
                return False
    return True


def verify_subsheaf(S: SubSheaf) -> CheckReport:
    """Restriction-closed, and closed under amalgamation over every cover."""
    return _closure(S, covers)


def binary_cover_closure(S: SubSheaf) -> CheckReport:
    """Restriction-closed, and closed under amalgamation over the empty and
    binary covers of every open, in order: the full report, naming the first
    family of S with an amalgamation outside S."""
    return _closure(S, FiniteFrame.binary_covers)


def _closure(S: SubSheaf, covers_of) -> CheckReport:
    rc = verify_restriction_closed(S)
    if not rc.passed:
        return CheckReport.fail("subsheaf", rc.witness, reason="restriction")
    P = S.parent
    for u in P.frame.elements:
        for cover in covers_of(P.frame, u):
            for family in compatible_families(P, cover, S.parts):
                missing = [x for x in amalgamations(P, u, cover, family) if not S.contains(u, x)]
                if missing:
                    return CheckReport.fail(
                        "subsheaf",
                        {
                            "open": u,
                            "cover": list(cover),
                            "family": [P.label(ui, xi) for ui, xi in zip(cover, family)],
                            "amalgam_outside": [P.label(u, x) for x in missing],
                        },
                        reason="amalgamation",
                    )
    return CheckReport.ok("subsheaf")


def order_subsheaf(F) -> tuple[Presheaf, SubSheaf]:
    """The product sheaf F×F together with the order relation as its subsheaf."""
    square = product_sheaf(F.sheaf, F.sheaf)
    parts = {u: [pair for pair in square.carriers[u] if F.leq(u, *pair)] for u in F.frame.elements}
    return square, SubSheaf(square, parts)


def sheaf_on_down(P: Presheaf, u) -> Presheaf:
    """F^u as a sheaf on the open sublocale frame of u (the other realization
    of the restriction; sheaves.full_subsheaf gives the empty-above-u form)."""
    sub = P.frame.subframe(u)
    carriers = {v: P.carriers[v] for v in sub.elements}
    res = {(v, w): dict(P.res[(v, w)]) for v in sub.elements for w in sub.down(v) if w != v}
    return Presheaf(sub, carriers, res, labeler=P._labeler)


def order_subsheaf_report(F) -> list[CheckReport]:
    """The two subsheaf subreports of verify_posheaf's internal-poset
    reading, from the order relation as a subsheaf of F×F
    (order_subsheaf): restriction closure, and restriction plus
    amalgamation closure over the binary covers."""
    _, rel = order_subsheaf(F)
    rep = binary_cover_closure(rel)
    closed = rep.passed or rep.details.get("reason") != "restriction"
    return [
        CheckReport("internal.subsheaf_restriction", closed, witness=None if closed else rep.witness),
        CheckReport("internal.subsheaf_amalgamation", rep.passed, witness=rep.witness),
    ]


def presheaf_composition(P) -> CheckReport:
    """Presheaf.verify by the scan of every chain w ≤ v ≤ u."""
    for u in P.frame.elements:
        for x in P.carriers[u]:
            if P.restrict(u, x, u) != x:
                return CheckReport.fail("presheaf.identity", {"open": u, "section": P.label(u, x)})
    for u in P.frame.elements:
        for v in P.frame.down(u):
            for w in P.frame.down(v):
                for x in P.carriers[u]:
                    if P.restrict(u, x, w) != P.restrict(v, P.restrict(u, x, v), w):
                        return CheckReport.fail("presheaf.composition", {"triple": [u, v, w], "section": P.label(u, x)})
    return CheckReport.ok("presheaf")


def pos2_scan(F) -> CheckReport:
    """POS2 at every v ≤ u, over the order pairs at u in sorted order."""
    for u in F.frame.elements:
        for v in F.frame.down(u):
            for x, y in F.sorted_pairs(u):
                if not F.leq(v, F.sheaf.restrict(u, x, v), F.sheaf.restrict(u, y, v)):
                    return CheckReport.fail("posheaf.POS2", {"square": [u, v], "pair": [F.label(u, x), F.label(u, y)]})
    return CheckReport.ok("posheaf.POS2")


class PairSetPoSheaf:
    """A posheaf whose order at each open is a frozenset of pairs, closed
    reflexively: the reading orders.PoSheaf kept before its rows. Its
    sorted_pairs sort by the carrier positions of both ends, its opposite
    reverses every pair, and its poset(u) is built from the pairs on first
    use."""

    def __init__(self, sheaf, orders: dict):
        self.sheaf, self.frame = sheaf, sheaf.frame
        self.orders = {}
        for u in self.frame.elements:
            carrier = set(sheaf.carriers[u])
            pairs = set()
            for x, y in orders.get(u, ()):
                if x not in carrier or y not in carrier:
                    raise MalformedInput(f"order pair at {u!r} outside the carrier: {(x, y)!r}")
                pairs.add((x, y))
            self.orders[u] = frozenset(pairs | {(x, x) for x in sheaf.carriers[u]})
        self._posets: dict = {}

    @property
    def carriers(self):
        return self.sheaf.carriers

    def carrier(self, u):
        return self.sheaf.carriers[u]

    def label(self, u, x) -> str:
        return self.sheaf.label(u, x)

    def leq(self, u, x, y) -> bool:
        return (x, y) in self.orders[u]

    def poset(self, u) -> FinitePoset:
        if u not in self._posets:
            self._posets[u] = FinitePoset(self.sheaf.carriers[u], self.orders[u], closed=True)
        return self._posets[u]

    def section_key(self, u, x) -> tuple:
        return (self.frame.index[u], self.sheaf.carriers[u].index(x))

    def sorted_pairs(self, u) -> list:
        key = self.section_key
        return sorted(self.orders[u], key=lambda p: (key(u, p[0]), key(u, p[1])))

    def opposite(self) -> "PairSetPoSheaf":
        return PairSetPoSheaf(self.sheaf, {u: [(y, x) for (x, y) in rel] for u, rel in self.orders.items()})


def broken_chain(F, u) -> list | None:
    """The labels of the first chain x ≤ y ≤ z at u with x ≰ z: the pairs
    (x, y) in sorted_pairs order, then each z above y in carrier order."""
    succ: dict = {}
    for x, y in F.sorted_pairs(u):
        succ.setdefault(x, []).append(y)
    found = next(((x, y, z) for x, y in F.sorted_pairs(u) for z in succ[y] if not F.leq(u, x, z)), None)
    return None if found is None else [F.label(u, w) for w in found]


def patching_gap(F) -> tuple | None:
    """orders._patching_gap over the order pairs: the pairs s ≰_u t,
    s-major in carrier order, as mask bits, the first pair the highest."""
    P = F.sheaf
    for u in F.frame.elements:
        outside = [(s, t) for s in P.carriers[u] for t in P.carriers[u] if not F.leq(u, s, t)]
        if not outside:
            continue
        below = {}
        for cover in F.frame.binary_covers(u):
            if u in cover:
                continue
            failing = (1 << len(outside)) - 1
            for v in cover:
                if v not in below:
                    res = P.res[u, v]
                    below[v] = int("0" + "".join("1" if F.leq(v, res[s], res[t]) else "0" for s, t in outside), 2)
                failing &= below[v]
            if failing:
                return u, cover, outside, failing
    return None


def order_closed_at_germs(F) -> bool:
    """Whether ≤ is a subsheaf of F×F, for a sheaf F, decided apart from
    POS2 and POS3 (which orders.verify_posheaf reads it off), from F's own
    tables by the comparison lemma: (x, y) ∈ ≤_u iff x|_j ≤_j y|_j for every
    j in J↓u (FiniteFrame.canonical_cover), at every open u.

    "Only if" is restriction closure at the germs, "if" is amalgamation
    closure over J↓u: a family of ≤ over J↓u is a pair of compatible
    families, whose one amalgamation in F×F is the pair (x, y) they
    restrict. A subsheaf of F×F has both. Conversely, for v ≤ u and
    (x, y) ∈ ≤_u, "only if" at u gives x|_j ≤_j y|_j on J↓v ⊆ J↓u, so
    (x|_v, y|_v) ∈ ≤_v by "if" at v: ≤ is restriction-closed, and closed
    under the amalgamations over every J↓u, hence over every cover
    (sheaves.verify_subsheaf).

    Read on rows: the up row of x in F.poset(u) must be the AND, over j,
    of the sections y whose germ at j lies above x's (upper_rows of F(j)
    at the germs of F(u))."""
    P = F.sheaf
    for u in F.frame.elements:
        carrier = P.carriers[u]
        rows = [(1 << len(carrier)) - 1] * len(carrier)
        for j in F.frame.canonical_cover(u):
            germs = P.res_at[u, j]
            above = F.poset(j).upper_rows(germs)
            for a, germ in enumerate(germs):
                rows[a] &= above[germ]
        if rows != F.poset(u).up_rows:
            return False
    return True


def internal_subsheaf(F, pos2: bool, gap: tuple | None) -> list[CheckReport]:
    """orders._internal_subsheaf over the order pairs, its verdict decided
    at the germs (order_closed_at_germs), the amalgamation witness the
    failing pair least by the section keys of its restrictions."""
    ok = [CheckReport("internal.subsheaf_restriction", True), CheckReport("internal.subsheaf_amalgamation", True)]
    if order_closed_at_germs(F):
        return ok
    P, frame = F.sheaf, F.frame
    if not pos2:
        witness = next(
            {"open": u, "section": _pair_label(F, u, x, y), "at": v}
            for u in frame.elements
            for x, y in F.sorted_pairs(u)
            for v in frame.down(u)
            if not F.leq(v, P.res[u, v][x], P.res[u, v][y])
        )
        return [CheckReport(r.name, False, witness=witness) for r in ok]
    u, cover, outside, failing = gap
    key = F.section_key
    s, t = min(
        (pair for k, pair in enumerate(outside) if failing >> (len(outside) - 1 - k) & 1),
        key=lambda p: [(key(c, P.res[u, c][p[0]]), key(c, P.res[u, c][p[1]])) for c in cover],
    )
    witness = {
        "open": u,
        "cover": list(cover),
        "family": [_pair_label(F, c, P.res[u, c][s], P.res[u, c][t]) for c in cover],
        "amalgam_outside": [_pair_label(F, u, s, t)],
    }
    return [ok[0], CheckReport("internal.subsheaf_amalgamation", False, witness=witness)]


def posheaf_report(F: PairSetPoSheaf) -> CheckReport:
    """verify_posheaf read from the order pairs: POS1 by poset_laws on the
    pair set, POS2 by pos2_scan, POS3 by patching_gap, the internal
    antisymmetry and transitivity by pair scans in sorted_pairs order."""
    cert = sheaves.verify_sheaf(F.sheaf)
    if not cert.passed:
        return CheckReport.fail("posheaf", {"precondition": cert.witness}, stage="sheaf")
    subs = []
    pos1 = CheckReport.ok("posheaf.POS1")
    for u in F.frame.elements:
        law = poset_laws(SetPoset(F.carrier(u), F.orders[u], closed=True))
        if not law.passed:
            witness = {key: [F.label(u, x) for x in value] for key, value in law.witness.items()}
            pos1 = CheckReport.fail("posheaf.POS1", {"open": u, "law": law.name, "witness": witness})
            break
    subs.append(pos1)
    pos2 = pos2_scan(F)
    subs.append(pos2)
    gap = patching_gap(F)
    subs.append(_pos3(F, gap))
    internal_subs = internal_subsheaf(F, pos2.passed, gap)
    refl = CheckReport.ok("internal.reflexive")
    antisym = CheckReport.ok("internal.antisymmetric")
    trans = CheckReport.ok("internal.transitive")
    for u in F.frame.elements:
        for x in F.carrier(u):
            if refl.passed and not F.leq(u, x, x):
                refl = CheckReport.fail("internal.reflexive", {"open": u, "section": F.label(u, x)})
        cycle = next(((x, y) for x, y in F.sorted_pairs(u) if x != y and F.leq(u, y, x)), None)
        if antisym.passed and cycle:
            antisym = CheckReport.fail("internal.antisymmetric", {"open": u, "pair": [F.label(u, x) for x in cycle]})
        chain = broken_chain(F, u)
        if trans.passed and chain:
            trans = CheckReport.fail("internal.transitive", {"open": u, "chain": chain})
    internal_subs.extend([refl, antisym, trans])
    internal = CheckReport.combine("posheaf.internal_poset", internal_subs)
    subs.append(internal)
    pos_verdict = all(r.passed for r in subs[:3])
    agreement = pos_verdict == internal.passed
    subs.append(
        CheckReport("posheaf.agreement", agreement, witness=None if agreement else {"pos_forms": pos_verdict, "internal": internal.passed})
    )
    first = next((r for r in subs if not r.passed), None)
    return CheckReport(
        name="posheaf",
        passed=pos_verdict and agreement,
        witness=None if first is None else {"first_failed": first.name, "witness": first.witness},
        subreports=subs,
    )


def pos3(F) -> CheckReport:
    """POS3 over every cover: s|u_i ≤ t|u_i for all i forces s ≤ t."""
    for u in F.frame.elements:
        for cover in covers(F.frame, u):
            for s in F.sheaf.carriers[u]:
                for t in F.sheaf.carriers[u]:
                    if F.leq(u, s, t):
                        continue
                    if all(F.leq(ui, F.sheaf.restrict(u, s, ui), F.sheaf.restrict(u, t, ui)) for ui in cover):
                        return CheckReport.fail(
                            "posheaf.POS3",
                            {
                                "open": u,
                                "cover": list(cover),
                                "lower_family": [F.label(ui, F.sheaf.restrict(u, s, ui)) for ui in cover],
                                "upper_family": [F.label(ui, F.sheaf.restrict(u, t, ui)) for ui in cover],
                                "patched": [F.label(u, s), F.label(u, t)],
                            },
                        )
    return CheckReport.ok("posheaf.POS3")


def close_to_subsheaf(P, sections, downward=None) -> SubSheaf:
    """Closure of (open, section) pairs under restriction and amalgamation
    over every cover, and under per-open downward closure in the posheaf
    ``downward`` when given, to joint fixpoint."""
    frame = P.frame
    parts = [set() for _ in frame.elements]
    for u, x in sections:
        parts[frame.index[u]].add(x)
    changed = True
    while changed:
        changed = False
        for u in frame.elements:
            for x in list(parts[frame.index[u]]):
                for v in frame.down(u):
                    y = P.restrict(u, x, v)
                    if y not in parts[frame.index[v]]:
                        parts[frame.index[v]].add(y)
                        changed = True
        for u in frame.elements:
            iu = frame.index[u]
            for cover in covers(frame, u):
                for family in compatible_families(P, cover, parts):
                    for x in amalgamations(P, u, cover, family):
                        if x not in parts[iu]:
                            parts[iu].add(x)
                            changed = True
        if downward is not None:
            for u in frame.elements:
                iu = frame.index[u]
                for y in list(parts[iu]):
                    for x in P.carriers[u]:
                        if downward.leq(u, x, y) and x not in parts[iu]:
                            parts[iu].add(x)
                            changed = True
    return SubSheaf(P, tuple(frozenset(p) for p in parts))


def next_closure(P, u, close, budget: Budget) -> list[SubSheaf]:
    """Every member of the closure system ``close`` (sections -> SubSheaf)
    over the sections of P^u, by next-closure in lectic order, one budget
    tick per member, sorted by SubSheaf.key(). With close_to_subsheaf this
    is Sub(P^u), and with its ``downward`` posheaf Dow(P^u)."""
    frame = P.frame
    meter = BudgetMeter("subsheaf enumeration", budget.subsheaves)
    universe = [(v, x) for v in frame.down(u) for x in P.carriers[v]]
    pos = {item: i for i, item in enumerate(universe)}

    def closed_sections(sub: SubSheaf) -> frozenset:
        return frozenset((v, x) for v, x in universe if sub.contains(v, x))

    out = []
    current = closed_sections(close(frozenset()))
    out.append(current)
    meter.tick()
    n = len(universe)
    while len(current) < n:
        nxt = None
        for i in range(n - 1, -1, -1):
            item = universe[i]
            if item in current:
                continue
            seed = frozenset(s for s in current if pos[s] < i) | {item}
            candidate = closed_sections(close(seed))
            if all(pos[s] >= i or s in current for s in candidate):
                nxt = candidate
                break
        if nxt is None:
            break
        current = nxt
        out.append(current)
        meter.tick()
    subs = []
    for sections in out:
        parts: dict = {v: [] for v in frame.elements}
        for v, x in sections:
            parts[v].append(x)
        subs.append(SubSheaf(P, parts))
    subs.sort(key=lambda s: s.key())
    return subs


def order_closure(P, orders: dict) -> dict:
    """Per-open order pairs closed under transitivity, restriction, and
    patching over every cover, to fixpoint."""
    frame = P.frame
    rel = {u: set(orders.get(u, ())) | {(x, x) for x in P.carriers[u]} for u in frame.elements}
    changed = True
    while changed:
        changed = False
        for u in frame.elements:
            for (x, y) in list(rel[u]):
                for (y2, z) in list(rel[u]):
                    if y2 == y and (x, z) not in rel[u]:
                        rel[u].add((x, z))
                        changed = True
        for u in frame.elements:
            for v in frame.down(u):
                for (x, y) in list(rel[u]):
                    pair = (P.restrict(u, x, v), P.restrict(u, y, v))
                    if pair not in rel[v]:
                        rel[v].add(pair)
                        changed = True
        for u in frame.elements:
            for cover in covers(frame, u):
                for s in P.carriers[u]:
                    for t in P.carriers[u]:
                        if (s, t) not in rel[u] and all(
                            (P.restrict(u, s, ui), P.restrict(u, t, ui)) in rel[ui] for ui in cover
                        ):
                            rel[u].add((s, t))
                            changed = True
    return rel


def down_closure(F, S: SubSheaf) -> SubSheaf:
    """↓S by the cover formula: x lands at u when some cover of u admits
    members of S dominating the matching restrictions of x."""
    frame = F.frame
    parts = {}
    for u in frame.elements:
        parts[u] = [
            x
            for x in F.sheaf.carriers[u]
            if any(
                all(any(F.leq(ui, F.sheaf.restrict(u, x, ui), xi) for xi in S.part(ui)) for ui in cover)
                for cover in covers(frame, u)
            )
        ]
    return SubSheaf(F.sheaf, parts)


def least(poset, subset):
    """The unique minimal member of subset when it lies below every member,
    else None."""
    xs = poset.sorted(subset)
    mins = [m for m in xs if not any(poset.lt(o, m) for o in xs)]
    if len(mins) == 1 and all(poset.leq(mins[0], x) for x in xs):
        return mins[0]
    return None


def greatest(poset, subset):
    xs = poset.sorted(subset)
    maxs = [m for m in xs if not any(poset.lt(m, o) for o in xs)]
    if len(maxs) == 1 and all(poset.leq(x, maxs[0]) for x in xs):
        return maxs[0]
    return None


def heyting(frame, x, y):
    """The greatest z with z ∧ x ≤ y, by scanning the candidates."""
    return greatest(frame.poset, [z for z in frame.elements if frame.leq(frame.meet(z, x), y)])


class _PosetOps:
    """The operations of FiniteFrame by their definitions on the poset alone:
    a join or meet is the least common upper or greatest common lower bound
    by the minimal-member scan, a join or meet of many is the fold of the
    binary ones from bottom or top (None from the first missing one), the
    Heyting implication is the candidates' join when it is a candidate, and
    the join-irreducibles are the opens whose strictly smaller opens have a
    greatest member. A missing bottom or top raises NotALattice."""

    def __init__(self, poset):
        self.poset = poset
        self.elements = poset.elements

    def leq(self, x, y) -> bool:
        return self.poset.leq(x, y)

    def join(self, x, y):
        return least(self.poset, self.poset.up(x) & self.poset.up(y))

    def meet(self, x, y):
        return greatest(self.poset, self.poset.down(x) & self.poset.down(y))

    @property
    def bottom(self):
        b = least(self.poset, self.elements)
        if b is None:
            raise NotALattice("no bottom element")
        return b

    @property
    def top(self):
        t = greatest(self.poset, self.elements)
        if t is None:
            raise NotALattice("no top element")
        return t

    def join_all(self, xs):
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
            if out is None:
                return None
        return out

    def meet_all(self, xs):
        out = self.top
        for x in xs:
            out = self.meet(out, x)
            if out is None:
                return None
        return out

    def heyting(self, x, y):
        z = self.join_all(c for c in self.elements if self.leq(self.meet(c, x), y))
        return z if z is not None and self.leq(self.meet(z, x), y) else None

    def down(self, u) -> tuple:
        return tuple(self.poset.sorted(self.poset.down(u)))

    def up(self, u) -> tuple:
        return tuple(self.poset.sorted(self.poset.up(u)))

    @cached_property
    def join_irreducibles_by_height(self) -> tuple:
        J = [j for j in self.elements if greatest(self.poset, self.poset.down(j) - {j}) is not None]
        return tuple(sorted(J, key=lambda j: (len(self.poset.down(j)), self.poset.index[j])))

    def canonical_cover(self, u) -> tuple:
        return tuple(j for j in self.join_irreducibles_by_height if self.leq(j, u))

    def binary_covers(self, u) -> tuple:
        below = self.down(u)
        found = [()] if u == self.bottom else []
        found.append((u,))
        found.extend((v, w) for i, v in enumerate(below) for w in below[i + 1:] if self.join(v, w) == u)
        return tuple(found)


def frame_ops(poset) -> _PosetOps:
    """FiniteFrame's operations by their definitions on a FinitePoset
    (_PosetOps)."""
    return _PosetOps(poset)


def set_frame(elements, pairs) -> _PosetOps:
    """The relation closed by relation_closure, with FiniteFrame's
    operations by their definitions on its SetPoset."""
    return _PosetOps(SetPoset(elements, pairs))


def poset_laws(poset) -> CheckReport:
    """Reflexivity on every element, antisymmetry on every pair and
    transitivity on every chain x ≤ y ≤ z, first witness wins."""
    for x in poset.elements:
        if not poset.leq(x, x):
            return CheckReport.fail("poset.reflexive", {"element": x})
    for x in poset.elements:
        for y in poset.elements:
            if x != y and poset.leq(x, y) and poset.leq(y, x):
                return CheckReport.fail("poset.antisymmetric", {"cycle": [x, y]})
    for x in poset.elements:
        for y in poset.sorted(poset.up(x)):
            for z in poset.sorted(poset.up(y)):
                if not poset.leq(x, z):
                    return CheckReport.fail("poset.transitive", {"chain": [x, y, z]})
    return CheckReport.ok("poset")


def relation_closure(elements, pairs) -> frozenset:
    """The reflexive-transitive closure of a relation given as (lo, hi)
    pairs, as a set of pairs, by iterating to a fixpoint."""
    idx = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    below = [set() for _ in range(n)]  # below[j] = {i : i <= j}
    for lo, hi in pairs:
        if lo not in idx or hi not in idx:
            raise MalformedInput(f"relation mentions unknown element: {(lo, hi)!r}")
        below[idx[hi]].add(idx[lo])
    for i in range(n):
        below[i].add(i)
    changed = True
    while changed:
        changed = False
        for j in range(n):
            extra = set()
            for i in below[j]:
                extra |= below[i]
            if not extra <= below[j]:
                below[j] |= extra
                changed = True
    return frozenset((elements[i], elements[j]) for j in range(n) for i in below[j])


def inclusion_pairs(labels, sets, at: dict) -> tuple[list, tuple | None]:
    """The pairs (x, y) with set(x) ⊆ set(y), and the first pair (x, y),
    over (labels[i], labels[k]) with k ≤ i in that order, whose
    intersection or union is not in ``at`` (set -> label), with "meet" or
    "join"."""
    pairs = [(x, y) for x, a in zip(labels, sets) for y, b in zip(labels, sets) if not a & ~b]
    for i, a in enumerate(sets):
        for k in range(i + 1):
            meet, join = a & sets[k], a | sets[k]
            if meet not in at or join not in at:
                return pairs, (labels[i], labels[k], "meet" if meet not in at else "join")
    return pairs, None


def frame_of_sets(labels, sets) -> tuple:
    """(poset, frame, gap): the labels ordered by inclusion of their sets
    (ints, bit sets) as a FinitePoset, the frame on it or None, and the
    first pair (x, y), y at or before x in label order, whose sets'
    intersection ("meet") or union ("join") is not one of the sets, or
    None; one pass over the pairs fills the order's rows and finds the gap
    (frames._inclusion_rows). The sheaf locale's frame by the pair pass,
    which frames.downset_frame reads from the germ columns instead.

    Distinct sets closed under union and intersection form a distributive
    lattice under inclusion with those as join and meet, so the frame is
    built with no test of its own. Its join-irreducibles are the distinct
    sets ℓ(b) = ∩{s : b ∈ s} for the bits b outside the least set
    (ℓ(b) = x ∪ y puts b in x or y; and every set is its least set joined
    with the ℓ(b) of its other bits), and m(x) is the ℓ(b) inside set(x).
    On a gap, or with repeated sets, the inclusion relation is no frame,
    and the frame is None."""
    at = dict(zip(sets, labels))
    ups, downs, gap = _inclusion_rows(labels, sets, at)
    poset = FinitePoset.from_rows(labels, ups, downs)
    if gap is not None or len(at) < len(sets):
        return poset, None, gap
    floor = -1
    for s in sets:
        floor &= s
    least: dict = {}
    for s in sets:
        rest = s & ~floor
        while rest:
            low = rest & -rest
            least[low] = least.get(low, s) & s
            rest ^= low
    J = _by_height(poset, {at[s] for s in least.values()})
    of = dict(zip(labels, sets))
    ells = [of[j] for j in J]
    frame = FiniteFrame.__new__(FiniteFrame)
    frame._bind(poset, J, [sum(1 << i for i, ell in enumerate(ells) if not ell & ~s) for s in sets])
    return poset, frame, gap


class SetPoset:
    """A finite relation as a set of pairs, closed by relation_closure (or
    only reflexively when ``closed``), with its up-sets and down-sets as
    frozensets: each operation of FinitePoset by its definition on the
    sets."""

    def __init__(self, elements, leq_pairs, *, closed: bool = False):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise MalformedInput("duplicate elements")
        self.index = {x: i for i, x in enumerate(self.elements)}
        if closed:
            rel = set()
            for lo, hi in leq_pairs:
                if lo not in self.index or hi not in self.index:
                    raise MalformedInput(f"relation mentions unknown element: {(lo, hi)!r}")
                rel.add((lo, hi))
            self._rel = frozenset(rel) | frozenset((x, x) for x in self.elements)
        else:
            self._rel = relation_closure(self.elements, leq_pairs)
        self._ups = {x: frozenset(y for y in self.elements if (x, y) in self._rel) for x in self.elements}
        self._downs = {y: frozenset(x for x in self.elements if (x, y) in self._rel) for y in self.elements}

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x, y) -> bool:
        return (x, y) in self._rel

    def lt(self, x, y) -> bool:
        return x != y and (x, y) in self._rel

    def pairs(self) -> frozenset:
        return self._rel

    def up(self, x) -> frozenset:
        return self._ups[x]

    def down(self, x) -> frozenset:
        return self._downs[x]

    def sorted(self, xs) -> list:
        return sorted(xs, key=self.index.__getitem__)

    def opposite(self) -> "SetPoset":
        return SetPoset(self.elements, [(y, x) for (x, y) in self._rel], closed=True)

    def minimal(self, subset) -> list:
        xs = self.sorted(subset)
        return [m for m in xs if not any(self.lt(o, m) for o in xs)]

    def least(self, subset):
        return least(self, subset)

    def greatest(self, subset):
        return greatest(self, subset)

    def join(self, x, y):
        return least(self, self._ups[x] & self._ups[y])

    def meet(self, x, y):
        return greatest(self, self._downs[x] & self._downs[y])

    def join_all(self, xs):
        uppers = set(self.elements)
        for x in xs:
            uppers &= self._ups[x]
        return least(self, uppers)

    def meet_all(self, xs):
        lowers = set(self.elements)
        for x in xs:
            lowers &= self._downs[x]
        return greatest(self, lowers)

    @property
    def bottom(self):
        return self.join_all(())

    @property
    def top(self):
        return self.meet_all(())

    def verify(self) -> CheckReport:
        return poset_laws(self)


def monotone_scan(f) -> CheckReport:
    """x ≤ y ⇒ f(x) ≤ f(y) over every pair of source elements."""
    for x in f.source.elements:
        for y in f.source.elements:
            if f.source.leq(x, y) and not f.target.leq(f(x), f(y)):
                return CheckReport.fail("monotone", {"pair": [x, y], "images": [f(x), f(y)]})
    return CheckReport.ok("monotone")


def left_adjoint_scan(f) -> tuple[dict | None, CheckReport]:
    """g(b) = the least a with b ≤ f(a), by the minimal-member scan, then
    the monotonicity of g and the adjunction over every pair, on any
    relation; (table or None, report)."""
    src, tgt = f.source, f.target
    mapping = {}
    for b in tgt.elements:
        candidates = [a for a in src.elements if tgt.leq(b, f(a))]
        m = least(src, candidates)
        if m is None:
            return None, CheckReport.fail(
                "left_adjoint.absent", {"element": b, "minimal_candidates": src.minimal(candidates)}
            )
        mapping[b] = m
    g = MonotoneMap(tgt, src, mapping)
    gm = monotone_scan(g)
    if not gm.passed:
        return None, CheckReport.fail("left_adjoint.absent", {"not_monotone": gm.witness})
    for b in tgt.elements:
        for a in src.elements:
            lhs, rhs = src.leq(mapping[b], a), tgt.leq(b, f(a))
            if lhs != rhs:
                return None, CheckReport.fail(
                    "left_adjoint.absent", {"adjunction": {"pair": [b, a], "left_leq": lhs, "right_leq": rhs}}
                )
    return mapping, CheckReport.ok("left_adjoint")


def right_adjoint(f: MonotoneMap) -> tuple[MonotoneMap | None, CheckReport]:
    """Dual of frames.left_adjoint, computed on the order-opposites."""
    fop = MonotoneMap(f.source.opposite(), f.target.opposite(), f.mapping)
    gop, report = left_adjoint(fop)
    if gop is None:
        report.name = "right_adjoint.absent" if not report.passed else report.name
        return None, report
    return MonotoneMap(f.target, f.source, gop.mapping), CheckReport.ok("right_adjoint")


def frame_laws(frame) -> CheckReport:
    """The frame laws by their definitions, first violated law wins: poset,
    bounds, a join and a meet for every pair, distributivity on every triple,
    and a Heyting implication for every pair."""
    p = poset_laws(frame.poset)
    if not p.passed:
        return CheckReport.fail("frame.poset", p.witness, law=p.name)
    if frame.poset.bottom is None:
        return CheckReport.fail("frame.lattice", {"missing": "bottom"})
    if frame.poset.top is None:
        return CheckReport.fail("frame.lattice", {"missing": "top"})
    for x in frame.elements:
        for y in frame.elements:
            if frame.join(x, y) is None:
                return CheckReport.fail("frame.lattice", {"pair": [x, y], "missing": "join"})
            if frame.meet(x, y) is None:
                return CheckReport.fail("frame.lattice", {"pair": [x, y], "missing": "meet"})
    for a in frame.elements:
        for b in frame.elements:
            for c in frame.elements:
                lhs = frame.meet(a, frame.join(b, c))
                rhs = frame.join(frame.meet(a, b), frame.meet(a, c))
                if lhs != rhs:
                    return CheckReport.fail("frame.distributive", {"triple": [a, b, c], "lhs": lhs, "rhs": rhs})
    for x in frame.elements:
        for y in frame.elements:
            if heyting(frame, x, y) is None:
                return CheckReport.fail("frame.heyting", {"pair": [x, y]})
    return CheckReport.ok("frame", elements=len(frame.elements))


def frame_hom_joins(h) -> CheckReport:
    """h(⋁S) = ⋁h(S) over every subset S of the source, the first failing
    subset in mask order as the witness."""
    elems = h.source.elements
    for mask in range(1 << len(elems)):
        subset = [elems[i] for i in range(len(elems)) if mask >> i & 1]
        lhs = h(h.source.join_all(subset))
        rhs = h.target.join_all(h(x) for x in subset)
        if lhs != rhs:
            return CheckReport.fail("frame_hom.joins", {"subset": subset, "expected": rhs, "got": lhs})
    return CheckReport.ok("frame_hom.joins")


def preserves_all_joins(f) -> bool:
    """f(⋁S) = ⋁f(S) over every subset S of the source."""
    elems = f.source.elements
    for mask in range(1 << len(elems)):
        subset = [elems[i] for i in range(len(elems)) if mask >> i & 1]
        lhs = f.source.join_all(subset)
        rhs = f.target.join_all(f(x) for x in subset)
        if lhs is None or rhs is None or f(lhs) != rhs:
            return False
    return True


def preserves_all_meets(f) -> bool:
    """f(⋀S) = ⋀f(S) over every subset S of the source."""
    elems = f.source.elements
    for mask in range(1 << len(elems)):
        subset = [elems[i] for i in range(len(elems)) if mask >> i & 1]
        lhs = f.source.meet_all(subset)
        rhs = f.target.meet_all(f(x) for x in subset)
        if lhs is None or rhs is None or f(lhs) != rhs:
            return False
    return True


@dataclass
class PointOrderWitness:
    """Both readings of the point order: the displayed dom-then-value
    comparison and the factoring through the order subsheaf."""

    p: Point
    q: Point
    holds: bool
    via: object = None
    factoring: bool = False

    def agree(self) -> bool:
        return self.holds == self.factoring


def point_leq(F, p: Point, q: Point) -> PointOrderWitness:
    """p ≤ q read both ways: dom p ≤ dom q and p ≤ q|_{dom p}, and
    p|_v ≤ q|_v at every v ≤ dom p."""
    frame = F.frame
    if not frame.leq(p.dom, q.dom):
        return PointOrderWitness(p, q, holds=False, factoring=False)
    via = F.sheaf.restrict(q.dom, q.value, p.dom)
    holds = F.leq(p.dom, p.value, via)
    factoring = all(
        F.leq(v, F.sheaf.restrict(p.dom, p.value, v), F.sheaf.restrict(q.dom, q.value, v)) for v in frame.down(p.dom)
    )
    return PointOrderWitness(p, q, holds=holds, via=via, factoring=factoring)


def point_leq_bool(F, p: Point, q: Point) -> bool:
    """p ≤ q by point_leq, raising AssertionError when the readings
    disagree."""
    w = point_leq(F, p, q)
    if not w.agree():
        raise AssertionError(f"point order readings disagree on {p} vs {q}")
    return w.holds


def _image_point(alpha, p: Point) -> Point:
    """α(p), over the same open, read through the element map."""
    return Point(p.dom, alpha(p.dom, p.value))


def naturality_scan(alpha) -> CheckReport:
    """Naturality of a sheaf morphism over every v ≤ u and every section,
    on elements: α_v(x|_v) against (α_u x)|_v, the first failure u-major,
    then v in down(u) order, then x in carrier order, whether or not the
    restrictions compose."""
    source, target = alpha.source, alpha.target
    for u in source.frame.elements:
        for v in source.frame.down(u):
            for x in source.carriers[u]:
                lhs = target.restrict(u, alpha(u, x), v)
                rhs = alpha(v, source.restrict(u, x, v))
                if lhs != rhs:
                    return CheckReport.fail(
                        "morphism.naturality",
                        {
                            "square": [u, v],
                            "section": source.label(u, x),
                            "restrict_then_map": target.label(v, rhs),
                            "map_then_restrict": target.label(v, lhs),
                        },
                    )
    return CheckReport.ok("morphism")


def bound_failure(f, kind: str) -> dict | None:
    """The first bound of kind "join" or "meet" that an element map f
    between two posets (or frames) does not keep, as {"subset", "expected",
    "got"}: the empty bound, then each pair x before y, each bound read
    from the poset's (frame's) own join or meet of elements."""
    src, tgt = f.source, f.target
    empty = "bottom" if kind == "join" else "top"
    bound, image_bound = getattr(src, empty), getattr(tgt, empty)
    if bound is None or image_bound is None or f(bound) != image_bound:
        return {"subset": [], "expected": image_bound, "got": None if bound is None else f(bound)}
    pair, image_pair = getattr(src, kind), getattr(tgt, kind)
    elems = src.elements
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            bound, image_bound = pair(x, y), image_pair(f(x), f(y))
            if bound is None or image_bound is None or f(bound) != image_bound:
                return {"subset": [x, y], "expected": image_bound, "got": None if bound is None else f(bound)}
    return None


def galois_scan(left, right) -> CheckReport:
    """left(b) ≤ a ⇔ b ≤ right(a) for element maps, over every pair,
    b-major."""
    A, B = right.source, left.source
    for b in B.elements:
        for a in A.elements:
            lhs, rhs = A.leq(left(b), a), B.leq(b, right(a))
            if lhs != rhs:
                return CheckReport.fail("galois", {"pair": [b, a], "left_leq": lhs, "right_leq": rhs})
    return CheckReport.ok("galois")


def order_preserving_forms(alpha, F, G) -> CheckReport:
    """verify_order_preserving with each form decided apart: the point
    order over every pair of points, dom-then-value (point_leq), monotonicity
    at each open by MonotoneMap.verify, and factoring through the order
    subsheaf of G×G (order_subsheaf) over the pairs of F in sorted order."""
    nat = verify_morphism(alpha)
    if not nat.passed:
        return CheckReport.fail("order_preserving", {"precondition": nat.witness}, stage="morphism")
    pts = enumerate_points(F.sheaf)
    point_wit = next(
        (
            {"points": [list(p), list(q)]}
            for p in pts
            for q in pts
            if point_leq(F, p, q).holds and not point_leq(G, _image_point(alpha, p), _image_point(alpha, q)).holds
        ),
        None,
    )
    open_wit = None
    for u in F.frame.elements:
        m = MonotoneMap(F.poset(u), G.poset(u), alpha.maps[u]).verify()
        if not m.passed:
            open_wit = {"open": u, "pair": m.witness["pair"]}
            break
    _, rel = order_subsheaf(G)
    fact_wit = next(
        (
            {"open": u, "pair": [F.label(u, x), F.label(u, y)]}
            for u in F.frame.elements
            for x, y in F.sorted_pairs(u)
            if not rel.contains(u, (alpha(u, x), alpha(u, y)))
        ),
        None,
    )
    forms = [("points", point_wit is None, point_wit), ("per_open", open_wit is None, open_wit), ("factoring", fact_wit is None, fact_wit)]
    return _three_way("order_preserving", forms)


def morphism_leq_forms(alpha, beta, F, G) -> tuple[bool, CheckReport]:
    """morphism_leq with each form decided apart: α(p) ≤ β(p) at every
    point by point_leq, α_u(x) ≤ β_u(x) at each open, and (α_u(x), β_u(x))
    in the order subsheaf of G×G (order_subsheaf)."""
    pts = enumerate_points(F.sheaf)
    point_wit = next(({"point": list(p)} for p in pts if not point_leq(G, _image_point(alpha, p), _image_point(beta, p)).holds), None)
    sections = [(u, x) for u in F.frame.elements for x in F.sheaf.carriers[u]]
    open_wit = next(({"open": u, "section": F.label(u, x)} for u, x in sections if not G.leq(u, alpha(u, x), beta(u, x))), None)
    _, rel = order_subsheaf(G)
    diagonal_wit = next(
        ({"open": u, "section": F.label(u, x)} for u, x in sections if not rel.contains(u, (alpha(u, x), beta(u, x)))), None
    )
    report = _three_way(
        "morphism_leq",
        [("points", point_wit is None, point_wit), ("per_open", open_wit is None, open_wit), ("diagonal", diagonal_wit is None, diagonal_wit)],
    )
    return point_wit is None and report.subreports[-1].passed, report


def upper_bound_points(F, A: SubSheaf) -> list:
    """The points above every point of A, one point_leq_bool per pair."""
    apts = A.points()
    return [p for p in enumerate_points(F.sheaf) if all(point_leq_bool(F, a, p) for a in apts)]


def point_minimum(F, pts: list):
    """(least point or None, minimal points) of a list of points, per pair."""
    mins = [p for p in pts if not any(q != p and point_leq_bool(F, q, p) for q in pts)]
    if len(mins) == 1 and all(point_leq_bool(F, mins[0], q) for q in pts):
        return mins[0], mins
    return None, mins


def bounds(F, A: SubSheaf) -> tuple:
    """(upper bounds, sup, inf, sup antichain, inf antichain) of a subsheaf A,
    per pair, with the opposite built afresh."""
    op = PoSheaf(F.sheaf, {u: [(y, x) for (x, y) in rel] for u, rel in F.orders.items()})
    ups = upper_bound_points(F, A)
    sup, sup_min = point_minimum(F, ups)
    inf, inf_min = point_minimum(op, upper_bound_points(op, A))
    return ups, sup, inf, [] if sup else sup_min, [] if inf else inf_min


def lambda_assignments(P, *, budget: Budget) -> list[tuple]:
    """The opens of the sheaf locale by definition: the tuples (c_i ≤ u_i),
    one per section (u_i, s_i) of P.sections(), with c_i ∧ ε_ik = c_k ∧ ε_ik
    for the agreement open ε_ik = epsilon(P, [(u_i, s_i), (u_k, s_k)]) of
    every pair. The product of the down-sets, filtered on each prefix; one
    tick of the "sheaf-locale elements" meter per member."""
    X = P.frame
    sections = P.sections()
    eps = {(i, k): epsilon(P, [sections[i], sections[k]]) for i in range(len(sections)) for k in range(i)}
    downs = [X.down(u) for u, _ in sections]
    meter = BudgetMeter("sheaf-locale elements", budget.lambda_elements)
    chosen: list = []
    out: list[tuple] = []

    def rec(i):
        if i == len(sections):
            meter.tick()
            out.append(tuple(chosen))
            return
        for c in downs[i]:
            if all(X.meet(c, eps[i, k]) == X.meet(chosen[k], eps[i, k]) for k in range(i)):
                chosen.append(c)
                rec(i + 1)
                chosen.pop()

    rec(0)
    return out


def pointwise_order(X, assignments: list, labels: list) -> list[tuple]:
    """The sheaf locale's order by definition: label a below label b iff the
    assignment a lies below b at every section, one pair of assignments and
    one section at a time."""
    return [
        (labels[i], labels[j])
        for i, a in enumerate(assignments)
        for j, b in enumerate(assignments)
        if all(X.leq(x, y) for x, y in zip(a, b))
    ]


def pointwise_lattice(X, assignments: list, frame) -> CheckReport:
    """The sheaf locale's lattice check by definition: for each pair of
    assignments (the frame's elements, in order), the pointwise meet and join
    over all sections are assignments, and they are the frame's meet and join
    of the pair."""
    labels = frame.elements
    index = {a: i for i, a in enumerate(assignments)}
    for i, a in enumerate(assignments):
        for j, b in enumerate(assignments[: i + 1]):
            meet_t = tuple(X.meet(x, y) for x, y in zip(a, b))
            join_t = tuple(X.join(x, y) for x, y in zip(a, b))
            if meet_t not in index or join_t not in index:
                return CheckReport.fail(
                    "sheaf_locale.pointwise_lattice",
                    {"pair": [labels[i], labels[j]], "closed_under": "meet" if meet_t not in index else "join"},
                )
            if frame.meet(labels[i], labels[j]) != labels[index[meet_t]] or frame.join(labels[i], labels[j]) != labels[index[join_t]]:
                return CheckReport.fail(
                    "sheaf_locale.pointwise_lattice",
                    {"pair": [labels[i], labels[j]], "mismatch": "order-derived ops differ from pointwise"},
                )
    return CheckReport.ok("sheaf_locale.pointwise_lattice")


def germ_masks(E, assignments: list) -> list[int]:
    """Each assignment of the sheaf locale E as its germ down-set: the
    sections (j, x) over a join-irreducible j whose value is j."""
    ji = set(E.presheaf.frame.join_irreducibles())
    germs = [k for k, (u, _) in enumerate(E.sections) if u in ji]
    return [sum(1 << bit for bit, k in enumerate(germs) if a[k] == E.sections[k][0]) for a in assignments]


def mask_lattice(frame, masks: list) -> CheckReport:
    """frame.meet and frame.join of each pair of elements (masks in element
    order) are the opens of the intersection and the union of their masks,
    pair by pair, the first pair without them or with other ops named."""
    labels = frame.elements
    label_of = dict(zip(masks, labels))
    for i, a in enumerate(masks):
        for j in range(i + 1):
            meet, join = label_of.get(a & masks[j]), label_of.get(a | masks[j])
            if meet is None or join is None:
                return CheckReport.fail(
                    "sheaf_locale.pointwise_lattice",
                    {"pair": [labels[i], labels[j]], "closed_under": "meet" if meet is None else "join"},
                )
            if frame.meet(labels[i], labels[j]) != meet or frame.join(labels[i], labels[j]) != join:
                return CheckReport.fail(
                    "sheaf_locale.pointwise_lattice",
                    {"pair": [labels[i], labels[j]], "mismatch": "order-derived ops differ from pointwise"},
                )
    return CheckReport.ok("sheaf_locale.pointwise_lattice")


def sheaf_locale_frame(E) -> tuple:
    """The sheaf locale's frame by the pair-list construction: E's
    assignments sorted by the element indices of their values and labelled
    L000, L001, ..., the pairs of labels whose germ down-sets are included
    one in the other as a FinitePoset, its frame's verify, and the
    pointwise-lattice loop over the pairs (mask_lattice). Returns
    (assignments, frame, frame report, pointwise-lattice report)."""
    X = E.presheaf.frame
    assignments = sorted(E.assignments, key=lambda a: tuple(X.index[c] for c in a))
    width = max(3, len(str(max(len(assignments) - 1, 0))))
    labels = [f"L{i:0{width}d}" for i in range(len(assignments))]
    masks = germ_masks(E, assignments)
    pairs = [(labels[i], labels[j]) for i, a in enumerate(masks) for j, b in enumerate(masks) if not a & ~b]
    frame = FiniteFrame(FinitePoset(labels, pairs, closed=True))
    return assignments, frame, frame.verify(), mask_lattice(frame, masks)


def restriction_agreement(P) -> bool:
    """ε(P, [(u, s), (v, s|_v)]) = v for every section s over u and every
    v ≤ u: a section and its restriction agree on all of the smaller open."""
    return all(
        epsilon(P, [(u, s), (v, P.restrict(u, s, v))]) == v
        for u in P.frame.elements
        for s in P.carriers[u]
        for v in P.frame.down(u)
    )


def sections_over(f, u, nodes: BudgetMeter) -> list:
    """Every frame map s: O(Y) → ↓u with s(f*(x)) = x ∧ u, sorted by value
    table: a DFS over a linear extension of O(Y), with forced values on the
    image of f* and on opens that join two earlier ones, monotone pruning,
    and a frame-hom filter (is_section) afterward. One tick per node."""
    OY, OX = f.OY, f.fstar.source
    fstar = f.fstar
    down_u = OX.down(u)
    forced = {OY.bottom: OX.bottom}
    for x in OX.elements:
        y = fstar(x)
        val = OX.meet(x, u)
        if y in forced and forced[y] != val:
            return []
        forced[y] = val
    order = sorted(OY.elements, key=lambda y: (len(OY.poset.down(y)), OY.index[y]))
    decomposition = {}
    for i, y in enumerate(order):
        decomposition[y] = next(
            ((a, b) for a in order[:i] if a != y and OY.leq(a, y) for b in order[:i] if OY.leq(b, y) and OY.join(a, b) == y),
            None,
        )

    values: dict = {}
    out: list = []

    def rec(i):
        nodes.tick()
        if i == len(order):
            out.append(Section(over=u, values=tuple(values[y] for y in OY.elements)))
            return
        y = order[i]
        if y in forced:
            cands = [forced[y]]
        elif decomposition[y] is not None:
            a, b = decomposition[y]
            cands = [OX.join(values[a], values[b])]
        else:
            cands = list(down_u)
        for c in cands:
            if all(
                not (OY.leq(z, y) and not OX.leq(values[z], c)) and not (OY.leq(y, z) and not OX.leq(c, values[z]))
                for z in order[:i]
            ):
                values[y] = c
                rec(i + 1)
                del values[y]

    rec(0)

    def is_section(s) -> bool:
        get = lambda y: s.value(OY, y)
        if get(OY.bottom) != OX.bottom or get(OY.top) != OX.meet(OX.top, u):
            return False
        for a in OY.elements:
            for b in OY.elements:
                if get(OY.meet(a, b)) != OX.meet(get(a), get(b)):
                    return False
                if get(OY.join(a, b)) != OX.join(get(a), get(b)):
                    return False
        return all(get(fstar(x)) == OX.meet(x, u) for x in OX.elements)

    kept = [s for s in out if is_section(s)]
    kept.sort(key=lambda s: tuple(OX.index[v] for v in s.values))
    return kept


def restrict_by_meet(X, s, v):
    """A section's restriction to v by its definition: its value table met
    with v, open by open."""
    return Section(over=v, values=tuple(X.meet(x, v) for x in s.values))


def point_value_table(f, u, point: tuple) -> tuple:
    """The value table s(y) = ∨{j ∈ J↓u : φ(j) ≤ y} of a point map φ, given
    as the positions in O(Y) of its values on J↓u, by one join_all per open
    of Y."""
    OY, OX = f.OY, f.base
    phi = dict(zip(OX.canonical_cover(u), (OY.elements[t] for t in point)))
    return tuple(OX.join_all(j for j in phi if OY.leq(phi[j], y)) for y in OY.elements)


def up_row_value_table(f, u, point: tuple) -> tuple:
    """The value table of a point map φ, given as the positions in O(Y) of
    its values on J↓u, by the walk over the up rows: the base's Birkhoff
    mask m(j) ORed into the entry of every y above φ(j)."""
    OY, OX = f.OY, f.base
    of, at, _ = OX.masks
    table = [0] * len(OY)
    for j, t in zip(OX.canonical_cover(u), point):
        for k in _bits(OY.poset.up_rows[t]):
            table[k] |= of[j]
    return tuple(at[m] for m in table)


def local_homeomorphism(f) -> CheckReport:
    """The opens y of Y where x ↦ f*(x) ∧ y maps onto ↓y with the kernel of
    x ↦ x ∧ u for some open u of the base (the first such u is the base
    open); pass iff they cover Y."""
    OY, OX = f.OY, f.fstar.source
    good = []
    for y in OY.elements:
        image = {OY.meet(f.fstar(x), y) for x in OX.elements}
        if image != set(OY.down(y)):
            continue
        for u in OX.elements:
            if all(
                (OY.meet(f.fstar(a), y) == OY.meet(f.fstar(b), y)) == (OX.meet(a, u) == OX.meet(b, u))
                for a in OX.elements
                for b in OX.elements
            ):
                good.append({"open": y, "base_open": u})
                break
    covered = OY.join_all(d["open"] for d in good)
    passed = covered == OY.top
    witness = None if passed else {"good_opens": [d["open"] for d in good], "join": covered}
    return CheckReport(
        "local_homeomorphism",
        passed,
        witness=witness,
        details={"cover": good if passed else None, "good_opens": [d["open"] for d in good]},
    )


def frame_hom_meets(h) -> CheckReport:
    """h(top) = top and h(x ∧ y) = h(x) ∧ h(y) over every ordered pair, the
    first failure as the witness."""
    src, tgt = h.source, h.target
    if h(src.top) != tgt.top:
        return CheckReport.fail("frame_hom.finite_meets", {"subset": [], "expected": tgt.top, "got": h(src.top)})
    for x in src.elements:
        for y in src.elements:
            lhs = h(src.meet(x, y))
            rhs = tgt.meet(h(x), h(y))
            if lhs != rhs:
                return CheckReport.fail("frame_hom.finite_meets", {"subset": [x, y], "expected": rhs, "got": lhs})
    return CheckReport.ok("frame_hom.finite_meets")


def lattice_gap(F, u, meets: bool = True) -> dict | None:
    """The first missing bound of the partial order F(u): bottom, top (with
    meets), then every ordered pair's join and meet (with meets)."""
    poset = F.poset(u)
    if poset.bottom is None:
        return {"open": u, "missing": "bottom"}
    if meets and poset.top is None:
        return {"open": u, "missing": "top"}
    for x in poset.elements:
        for y in poset.elements:
            if poset.join(x, y) is None:
                return {"open": u, "pair": [F.label(u, x), F.label(u, y)], "missing": "join"}
            if meets and poset.meet(x, y) is None:
                return {"open": u, "pair": [F.label(u, x), F.label(u, y)], "missing": "meet"}
    return None


def finite_sup_per_open(F) -> dict | None:
    """The per-open form of finite sup-completeness: each open's bottom and
    binary joins, then each restriction's bottom and the joins of every
    ordered pair; the first failure."""
    frame = F.frame
    for u in frame.elements:
        gap = lattice_gap(F, u, meets=False)
        if gap:
            return gap
    for u in frame.elements:
        for v in frame.down(u):
            if v == u:
                continue
            poset_u, poset_v = F.poset(u), F.poset(v)
            if F.sheaf.restrict(u, poset_u.bottom, v) != poset_v.bottom:
                return {"restriction": [u, v], "not": "bottom-preserving"}
            for x in poset_u.elements:
                for y in poset_u.elements:
                    lhs = F.sheaf.restrict(u, poset_u.join(x, y), v)
                    rhs = poset_v.join(F.sheaf.restrict(u, x, v), F.sheaf.restrict(u, y, v))
                    if lhs != rhs:
                        return {"restriction": [u, v], "pair": [F.label(u, x), F.label(u, y)]}
    return None


def frame_morphism_meets(alpha, F, G) -> dict | None:
    """At each open: the lattice law of F(u), then α_u(top) = top and
    α_u(x ∧ y) = α_u(x) ∧ α_u(y) over every ordered pair; the first failure."""
    for u in F.frame.elements:
        gap = lattice_gap(F, u)
        if gap:
            return gap
        if alpha(u, F.poset(u).top) != G.poset(u).top:
            return {"open": u, "not": "top-preserving"}
        for x in F.carrier(u):
            for y in F.carrier(u):
                lhs = alpha(u, F.poset(u).meet(x, y))
                rhs = G.poset(u).meet(alpha(u, x), alpha(u, y))
                if lhs != rhs:
                    return {
                        "open": u,
                        "pair": [F.label(u, x), F.label(u, y)],
                        "alpha_of_meet": G.label(u, lhs),
                        "meet_of_alphas": G.label(u, rhs),
                    }
    return None


def greatest_preimages(alpha, F, G) -> tuple[dict | None, dict | None]:
    """The tables y ↦ the greatest x ∈ F(u) with α_u(x) ≤ y, or None with
    the first {open, section, missing} y that has none."""
    maps = {}
    for u in F.frame.elements:
        table = {}
        for y in G.carrier(u):
            cand = F.poset(u).greatest([x for x in F.carrier(u) if G.leq(u, alpha(u, x), y)])
            if cand is None:
                return None, {"open": u, "section": G.label(u, y), "missing": "greatest preimage"}
            table[y] = cand
        maps[u] = table
    return maps, None


def sup_scan(F, S: SubSheaf, u):
    """The least y in F(u) with S^u ⊆ ↓y, or None: every candidate y of
    F(u) checked against every section of S below u."""
    cands = [
        y
        for y in F.carrier(u)
        if all(F.leq(v, x, F.sheaf.restrict(u, y, v)) for v in F.frame.down(u) for x in S.sorted_part(v))
    ]
    return F.poset(u).least(cands)


def meet_morphism(F, P) -> SheafMorphism:
    """μ: F × ℙF → ℙF, sending (x, S) to the subsheaf generated by the
    per-open meets of S's members with the matching restrictions of x."""
    FP = product_sheaf(F.sheaf, P.sheaf)
    maps = {u: {(x, S): _meet_subsheaf(F, u, x, S) for (x, S) in FP.carriers[u]} for u in F.frame.elements}
    return SheafMorphism(FP, P.sheaf, maps)


def hom_roundtrip_report(h) -> CheckReport:
    """verify_frame_equivalence on a frame hom h with both roundtrips built
    and compared: psi_phi compares Ψ(Φ(h)) with h (L's elements and order,
    and the map), and phi_stability compares Φ(Ψ(Φ(h))) with Φ(h) by
    carriers, order rows and restriction tables."""
    h.verify().require()
    F = frame_hom_to_sheaf(h)
    back = sheaf_to_frame_hom(F)
    L, L2 = h.target, back.target
    same = (L2.elements, L2.poset.pairs()) == (L.elements, L.poset.pairs()) and all(back.hom(u) == h.hom(u) for u in h.base.elements)
    iso = CheckReport("frame_equivalence.psi_phi", same, witness=None if same else {"not": "identity"}, details={"iso": "identity"} if same else {})
    G = frame_hom_to_sheaf(back)
    stable = (
        all(F.sheaf.carriers[u] == G.sheaf.carriers[u] and F.poset(u).up_rows == G.poset(u).up_rows for u in F.frame.elements)
        and F.sheaf.res_at == G.sheaf.res_at
    )
    stable_rep = CheckReport("frame_equivalence.phi_stability", stable, witness=None if stable else {"not": "identical"})
    return CheckReport.combine("frame_equivalence", [iso, stable_rep])


def frame_hom_to_sheaf_morphism(f, g, m) -> SheafMorphism:
    """Φ on morphisms: a commuting triangle m∘f = g under O(X) restricts to
    per-open maps between the carrier downsets."""
    F = frame_hom_to_sheaf(f)
    G = frame_hom_to_sheaf(g)
    maps = {u: {x: m(x) for x in F.sheaf.carriers[u]} for u in f.base.elements}
    return SheafMorphism(F.sheaf, G.sheaf, maps)


def definition_square(F, budget: Budget | None = None) -> dict | None:
    """The defining square of a frame sheaf through meet_morphism over all of
    ℙF, with sups by sup_scan: the first open u, x ∈ F(u) and S ∈ Sub(F^u)
    with sup μ(x, S) ≠ x ∧ sup S, or None. F must be complete."""
    P = power_sheaf(F.sheaf, budget=budget, verify=False)
    mu = meet_morphism(F, P)
    for u in F.frame.elements:
        for x in F.carrier(u):
            for S in P.carrier(u):
                lhs = sup_scan(F, mu(u, (x, S)), u)
                rhs = F.poset(u).meet(x, sup_scan(F, S, u))
                if lhs != rhs:
                    return {
                        "open": u,
                        "section": F.label(u, x),
                        "subsheaf": S.describe(),
                        "sup_of_meets": F.label(u, lhs),
                        "meet_of_sup": F.label(u, rhs),
                    }
    return None


def upper_bound_mask(F, S, opens, mask: int) -> int:
    """The points of mask above every point of S over the given opens: the
    AND of their point-order rows, each point looked up by its section."""
    index = {p: i for i, p in enumerate(F.points())}
    for v in opens:
        for x in S.part(v):
            mask &= F.row(index[v, x])
    return mask


def sup_extension_form(name: str, F, subsheaves: list) -> CheckReport:
    """Every listed subsheaf has a sup extendable to a global point whose
    every restriction is the least dominating element: the sup from the AND
    of the rows of all of S's points, the least element over each open from
    those of its points below the open, each by the minimal-members scan,
    and the global point sought among all of F(top)."""
    frame = F.frame
    every = (1 << len(F.points())) - 1
    for S in subsheaves:
        sup, mins = _minimal_points(F, upper_bound_mask(F, S, frame.elements, every))
        if sup is None:
            return CheckReport.fail(name, {"subsheaf": S.describe(), "missing": "sup", "minimal_upper_bounds": [list(p) for p in mins]})
        least_at = {}
        for u in frame.elements:
            least, _ = _minimal_points(F, upper_bound_mask(F, S, frame.down(u), F.points_over(u)))
            if least is None:
                return CheckReport.fail(name, {"subsheaf": S.describe(), "open": u, "missing": "least dominating element"})
            least_at[u] = least.value
        globals_ = [g for g in F.carrier(frame.top) if all(F.sheaf.restrict(frame.top, g, u) == least_at[u] for u in frame.elements)]
        if not globals_:
            return CheckReport.fail(name, {"subsheaf": S.describe(), "missing": "global point extending the sup"})
    return CheckReport.ok(name, checked=len(subsheaves))


def restriction_adjoints(F, u, v) -> tuple:
    """(left adjoint table or None, right adjoint table or None) of F's
    restriction u → v, each built by left_adjoint_scan and read by position,
    as complete._left_adjoint keeps it."""
    tables = []
    for G in (F, F.opposite()):
        la, _ = left_adjoint_scan(MonotoneMap(G.poset(u), G.poset(v), G.sheaf.res[(u, v)]))
        tables.append(None if la is None else tuple(G.sheaf.at[u][la[y]] for y in G.carrier(v)))
    return tuple(tables)


def per_open_form(F) -> tuple[CheckReport, dict]:
    """Per-open complete lattices plus surjective restrictions having both
    adjoints, with both adjoints built at every pair v < u."""
    frame = F.frame
    restriction_data = {}
    gap = next(filter(None, (_lattice_gap(F, u) for u in frame.elements)), None)
    verdict_wit = None if gap is None else {"complete_lattice": gap}
    for u in frame.elements:
        for v in frame.down(u):
            if v == u:
                continue
            surjective = set(F.sheaf.res[(u, v)].values()) == set(F.carrier(v))
            la, ra = restriction_adjoints(F, u, v)
            restriction_data[(u, v)] = {"surjective": surjective, "left_adjoint": la, "right_adjoint": ra}
            if verdict_wit is None and not (surjective and la is not None and ra is not None):
                verdict_wit = {"restriction": [u, v], "surjective": surjective, "left_adjoint": la is not None, "right_adjoint": ra is not None}
    return CheckReport("complete.per_open", verdict_wit is None, witness=verdict_wit), restriction_data


def restriction_scan(F) -> tuple | None:
    """The first pair v < u, in frame order, whose restriction breaks a law
    of _restriction_gap, as (u, v, law), scanning every pair."""
    frame = F.frame
    for u in frame.elements:
        for v in frame.down(u):
            law = None if v == u else _restriction_gap(F, u, v)
            if law:
                return u, v, law
    return None


def complete_surjections_form(F) -> CheckReport:
    """Per-open complete lattices with surjective restrictions preserving
    all sups and infs, the restrictions scanned at every pair."""
    for u in F.frame.elements:
        gap = _lattice_gap(F, u)
        if gap:
            witness = {"open": u, "pair": gap["pair"]} if "pair" in gap else {"open": u, "missing": "bounds"}
            return CheckReport.fail("complete.complete_surjections", witness)
    failure = restriction_scan(F)
    if failure:
        return CheckReport.fail("complete.complete_surjections", {"restriction": list(failure[:2]), "not": failure[2]})
    return CheckReport.ok("complete.complete_surjections")


def is_complete(F, budget: Budget | None = None) -> tuple[CompletenessCertificate, int]:
    """The completeness certificate from the forms above, with Dow(F) and
    Sub(F) enumerated and built as subsheaves on one meter, and that
    meter's count."""
    meter = BudgetMeter("completeness enumeration", (budget or Budget()).subsheaves)
    verify_posheaf(F).require()
    per_open, restriction_data = per_open_form(F)
    downsheaf_sups = sup_extension_form("complete.downsheaf_sups", F, enumerate_downsheaves(F, meter=meter))
    subsheaf_sups = sup_extension_form("complete.subsheaf_sups", F, enumerate_subsheaves(F.sheaf, meter=meter))
    surjections = complete_surjections_form(F)
    opposite, _ = per_open_form(F.opposite())
    opposite.name = "complete.opposite_per_open"
    square = _adjoint_square_check(F, restriction_data)
    verdicts = {
        "downsheaf_sups": downsheaf_sups.passed,
        "subsheaf_sups": subsheaf_sups.passed,
        "per_open_form": per_open.passed,
        "complete_surjections": surjections.passed,
        "opposite_per_open": opposite.passed,
    }
    agree = len(set(verdicts.values())) == 1
    cert = CompletenessCertificate(
        passed=per_open.passed and agree and (square.passed if per_open.passed else True),
        downsheaf_sups=downsheaf_sups,
        subsheaf_sups=subsheaf_sups,
        per_open_form=per_open,
        complete_surjections=surjections,
        opposite_per_open=opposite,
        adjoint_square=square,
        agreement=CheckReport("complete.agreement", agree, witness=None if agree else verdicts),
        restriction_data=restriction_data,
    )
    return cert, meter.count


def agreement_meet_diagnostic(P, max_tuple: int = 2) -> dict:
    """Report whether agreement-open equality holds for all tuples (up to the
    given arity on each side) and whether P is terminal; the two need not
    coincide (empty carriers above bottom give equality without terminality)."""
    secs = P.sections()
    equality = True
    witness = None
    for n in range(1, max_tuple + 1):
        for m in range(1, max_tuple + 1):
            for left in itertools.combinations_with_replacement(secs, n):
                for right in itertools.combinations_with_replacement(secs, m):
                    lhs = epsilon(P, list(left) + list(right))
                    rhs = P.frame.meet(epsilon(P, list(left)), epsilon(P, list(right)))
                    if lhs != rhs:
                        equality = False
                        witness = {
                            "left": [[u, P.label(u, x)] for u, x in left],
                            "right": [[u, P.label(u, x)] for u, x in right],
                            "joint": lhs,
                            "meet_of_parts": rhs,
                        }
                        break
                if not equality:
                    break
            if not equality:
                break
        if not equality:
            break
    is_terminal = all(len(P.carriers[u]) == 1 for u in P.frame.elements)
    return {
        "equality_for_all_tuples": equality,
        "is_terminal": is_terminal,
        "biconditional_holds": equality == is_terminal,
        "witness": witness,
    }


class PartsSubSheaf:
    """A subsheaf in the frozenset-parts form: one frozenset of sections per
    open of the parent, aligned with the frame's element order, with
    equality and hashing on the parts; each operation reads the parts. The
    oracle for the bitset form of sheaves.SubSheaf."""

    def __init__(self, parent: Presheaf, parts):
        self.parent = parent
        if isinstance(parts, dict):
            normalized = tuple(frozenset(parts.get(u, ())) for u in parent.frame.elements)
        else:
            normalized = tuple(frozenset(p) for p in parts)
        for u, part in zip(parent.frame.elements, normalized):
            bad = part - frozenset(parent.carriers[u])
            if bad:
                raise MalformedInput(f"subsheaf part at {u!r} outside the carrier: {sorted(map(str, bad))}")
        self.parts = normalized

    def __eq__(self, other):
        return isinstance(other, PartsSubSheaf) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def part(self, u) -> frozenset:
        return self.parts[self.parent.frame.index[u]]

    def contains(self, u, x) -> bool:
        return x in self.part(u)

    def issubset(self, other: "PartsSubSheaf") -> bool:
        return all(a <= b for a, b in zip(self.parts, other.parts))

    def size(self) -> int:
        return sum(len(p) for p in self.parts)

    def clip(self, v) -> "PartsSubSheaf":
        frame = self.parent.frame
        return PartsSubSheaf(self.parent, tuple(p if frame.leq(u, v) else frozenset() for u, p in zip(frame.elements, self.parts)))

    def sorted_part(self, u) -> list:
        return [x for x in self.parent.carriers[u] if x in self.part(u)]

    def describe(self) -> str:
        shown = []
        for u in self.parent.frame.elements:
            xs = self.sorted_part(u)
            if xs:
                shown.append(f"{u}:" + ",".join(self.parent.label(u, x) for x in xs))
        return "{" + "|".join(shown) + "}"

    def key(self) -> tuple:
        """(total size, per-open membership masks over the carrier
        positions), each mask summed from its sections' positions."""
        at = self.parent.at
        return (self.size(), tuple(sum(1 << at[u][x] for x in part) for u, part in zip(self.parent.frame.elements, self.parts)))


def _germ_member(F: Presheaf, germs: list, chosen: int, opens) -> PartsSubSheaf:
    """The sections over the given opens whose germs x|_j, j ∈ J↓v, are all
    among the chosen bits of the germ list, as a PartsSubSheaf."""
    place = {g: i for i, g in enumerate(germs)}
    cover = F.frame.canonical_cover
    parts = {v: [x for x in F.carriers[v] if all(chosen >> place[j, F.restrict(v, x, j)] & 1 for j in cover(v))] for v in opens}
    return PartsSubSheaf(F, parts)


def parts_subsheaves(F: Presheaf, u=None, leq=None) -> list[PartsSubSheaf]:
    """Sub(F^u), or Dow(F^u) with ``leq``, in the frozenset-parts form: one
    member per down-set of the germs (sheaves._germ_downsets), sorted by
    PartsSubSheaf.key."""
    u = F.frame.top if u is None else u
    germs, _ = sheaves._germ_table(F, u, leq)
    meter = BudgetMeter("subsheaf enumeration", 10**6)
    members = [_germ_member(F, germs, chosen, F.frame.down(u)) for chosen in sheaves._germ_downsets(F, germs, meter, leq)]
    return sorted(members, key=PartsSubSheaf.key)


def parts_generate_subsheaf(F: Presheaf, B: PartsSubSheaf) -> PartsSubSheaf:
    """The smallest subsheaf of the sheaf F holding B: the sections whose
    germs all lie among the germs of B's sections."""
    frame = F.frame
    germs, _ = sheaves._germ_table(F, frame.top)
    place = {g: i for i, g in enumerate(germs)}
    kept = 0
    for v in frame.elements:
        for x in B.sorted_part(v):
            for j in frame.canonical_cover(v):
                kept |= 1 << place[j, F.restrict(v, x, j)]
    return _germ_member(F, germs, kept, frame.elements)


def parts_bounds(F, A: PartsSubSheaf) -> tuple:
    """(upper bounds, sup, inf, sup antichain, inf antichain) of the
    subsheaf A generates, from the rows of its points looked up one section
    at a time, with least points by descent (complete._point_minimum)."""
    from posheaf.complete import _point_minimum

    A = parts_generate_subsheaf(F.sheaf, A)
    every, points = (1 << len(F.points())) - 1, F.points()
    ups = upper_bound_mask(F, A, F.frame.elements, every)
    sup, sup_min = _point_minimum(F, ups)
    op = F.opposite()
    inf, inf_min = _point_minimum(op, upper_bound_mask(op, A, F.frame.elements, every))
    return [points[i] for i in range(len(points)) if ups >> i & 1], sup, inf, [] if sup else sup_min, [] if inf else inf_min


def parts_sup_in_open(F, S: PartsSubSheaf, u):
    """sup_in_open from the rows of S's points below u, looked up one
    section at a time."""
    from posheaf.complete import _point_minimum

    least, _ = _point_minimum(F, upper_bound_mask(F, S, F.frame.down(u), F.points_over(u)))
    return None if least is None else least.value


def parts_power_tables(F: Presheaf, leq=None) -> dict:
    """ℙF, or 𝔻F with ``leq``, as tables from the frozenset-parts form:
    u ↦ (the members' labels in member order, the inclusion pairs by
    position, and v ↦ the position of each member's clip to v)."""
    members = {u: parts_subsheaves(F, u, leq) for u in F.frame.elements}
    tables = {}
    for u, ms in members.items():
        pairs = [(i, k) for i, s in enumerate(ms) for k, t in enumerate(ms) if s.issubset(t)]
        clips = {v: [members[v].index(s.clip(v)) for s in ms] for v in F.frame.down(u)}
        tables[u] = ([s.describe() for s in ms], pairs, clips)
    return tables
