"""Presheaves and sheaves of finite sets on a finite frame: the gluing axiom,
subsheaves and their enumeration, points, restriction, subterminals, and the
largest-agreement-open computation."""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .frames import FiniteFrame, _bits, lazy
from .report import (
    Budget,
    BudgetMeter,
    CheckReport,
    DomainMismatch,
    MalformedInput,
    MissingRestriction,
    NotRestrictionClosed,
    SectionNotInCarrier,
    once,
    timed,
)


class Point(NamedTuple):
    """A point of a sheaf, extensionally: the largest open where it lives and
    the carrier element there."""

    dom: str
    value: Hashable


class Presheaf:
    """Finite carrier per open plus total restriction tables for every v ≤ u,
    given as they are only by documents and the literal fixtures; a
    construction gives x ↦ x|_v as a function to Presheaf.of.

    Each carrier is numbered once: at[u] maps a section to its position in
    carriers[u], and res_at[u, v] holds, for each x in carrier order, the
    position of x|_v in carriers[v] (range at v = u). res_at is the one
    stored form of each table, and the law kernels read it; res[u, v],
    x ↦ x|_v, is a view built from it on first read, for documents and
    external readers. The points (u, x), the bits of a SubSheaf, are
    numbered in enumerate_points order from base[u] on over u; _spans
    holds (base[u], the mask of F(u)'s positions) in frame order.

    Carrier elements are hashable; iteration order is the carrier tuple order.
    Sheaf status is a verified property (verify_sheaf), not a subclass.
    """

    def __init__(
        self,
        frame: FiniteFrame,
        carriers: dict,
        res: dict,
        labeler: Callable | None = None,
    ):
        self.frame = frame
        self.carriers = {u: tuple(carriers.get(u, ())) for u in frame.elements}
        self.at, self.base, self._spans, n = {}, {}, [], 0
        for u, xs in self.carriers.items():
            self.at[u], self.base[u], n = {x: i for i, x in enumerate(xs)}, n, n + len(xs)
            self._spans.append((self.base[u], (1 << len(xs)) - 1))
            if len(self.at[u]) != len(xs):
                raise MalformedInput(f"duplicate sections at {u!r}")
        self.res_at = {}
        for u, xs in self.carriers.items():
            for v in frame.down(u):
                if v == u:
                    self.res_at[u, u] = range(len(xs))
                    if (u, u) in res and any(res[u, u].get(x, x) != x for x in xs):
                        raise MalformedInput(f"restriction {u!r} -> {u!r} is not the identity")
                    continue
                if (u, v) not in res:
                    raise MissingRestriction(f"no restriction table {u!r} -> {v!r}")
                table, pos = res[u, v], self.at[v]
                try:
                    self.res_at[u, v] = tuple([pos[table[x]] for x in xs])
                except KeyError:
                    x = next(x for x in xs if x not in table or table[x] not in pos)
                    if x not in table:
                        raise MissingRestriction(f"restriction {u!r} -> {v!r} missing {x!r}") from None
                    raise MalformedInput(f"restriction {u!r} -> {v!r} sends {x!r} outside the carrier") from None
                if len(table) != len(xs):  # every x has an entry, and some other key too
                    x = next(x for x in table if x not in self.at[u])
                    raise MalformedInput(f"restriction {u!r} -> {v!r} has an entry for {x!r}, outside the carrier at {u!r}")
        self._labeler = labeler
        # (weak reference to its EtaleLocale, sheaf-locale elements counted),
        # set by locale_equiv.etale_locale
        self._etale = None
        # the report of verify(), kept by report.once
        self._presheaf_report = None

    @classmethod
    def of(cls, frame: FiniteFrame, carriers: dict, restrict: Callable, labeler: Callable | None = None) -> "Presheaf":
        """The presheaf whose restriction sends x in carriers[u] to
        restrict(u, x, v) for each v < u: the one builder of the tables,
        which __init__ then validates."""
        res = {(u, v): {x: restrict(u, x, v) for x in carriers[u]} for u in frame.elements for v in frame.down(u) if v != u}
        return cls(frame, carriers, res, labeler)

    def carrier(self, u) -> tuple:
        return self.carriers[u]

    def position(self, u, x) -> int:
        """The position of the point (u, x) in enumerate_points order: its
        bit in a SubSheaf and in the point-order rows."""
        return self.base[u] + self.at[u][x]

    @lazy
    def below(self) -> dict:
        """v ↦ the bitset of the points over the opens w ≤ v."""
        over = {u: full << b for u, (b, full) in zip(self.carriers, self._spans)}
        return {v: sum(over[w] for w in self.frame.down(v)) for v in self.frame.elements}

    @lazy
    def res(self) -> dict:
        """(u, v) ↦ {x: x|_v} for every v ≤ u, identities included: res_at's view."""
        carriers = self.carriers
        return {(u, v): dict(zip(carriers[u], map(carriers[v].__getitem__, table))) for (u, v), table in self.res_at.items()}

    @lazy
    def _top_germs(self) -> tuple[list, list]:
        """_germ_table(self, top), built once per presheaf and kept on it."""
        return _germ_table(self, self.frame.top)

    def restrict(self, u, x, v):
        """x|_v for x in the carrier at u and v ≤ u."""
        return self.carriers[v][self.res_at[u, v][self.at[u][x]]]

    def sections(self) -> list[tuple]:
        return [(u, x) for u in self.frame.elements for x in self.carriers[u]]

    def label(self, u, x) -> str:
        if self._labeler is not None:
            return self._labeler(u, x)
        return str(x)

    def verify(self) -> CheckReport:
        """Composition over every chain w ≤ v ≤ u. Identity restrictions
        hold by construction: __init__ stores res_at[u, u] as the range of
        positions and rejects a given table u -> u that is not the identity,
        and res_at, the one stored table, is never reassigned.

        Composition at u → v, res(u,w) = res(v,w)∘res(u,v) for w ≤ v, is
        decided along the lower covers (FiniteFrame.first_failing_pair) and
        then holds on every chain, by induction on u. A chain with v = u or
        w = v holds by identity, so w = v is never compared. Otherwise pick
        a lower cover v′ of u with v ≤ v′; then res(u,w) = res(v′,w)∘res(u,v′)
        (checked), res(v′,w) = res(v,w)∘res(v′,v) (induction at v′ < u) and
        res(v′,v)∘res(u,v′) = res(u,v) (checked), so res(u,w) =
        res(v,w)∘res(u,v). Presheaves are immutable, so the report is kept
        on the instance (report.once), elapsed_ms of the first call
        included."""
        return once(self, "_presheaf_report", None, lambda _: self._verify_fresh())

    @timed
    def _verify_fresh(self) -> CheckReport:
        frame, res_at = self.frame, self.res_at

        def composition_gap(u, v):
            uv = res_at[u, v]
            for w in frame.down(v):
                if w == v:
                    continue
                uw, vw = res_at[u, w], res_at[v, w]
                composite = tuple([vw[b] for b in uv])
                if uw != composite:
                    return w, next(x for x, b, c in zip(self.carriers[u], uw, composite) if b != c)
            return None

        failure = frame.first_failing_pair(composition_gap)
        if failure is None:
            return CheckReport.ok("presheaf")
        u, v, (w, x) = failure
        return CheckReport.fail("presheaf.composition", {"triple": [u, v, w], "section": self.label(u, x)})


def verify_presheaf(P: Presheaf) -> CheckReport:
    return P.verify()


def compatible_families(P: Presheaf, cover: tuple, parts=None):
    """All families (x_i in P(u_i)) agreeing on pairwise meets, by DFS in
    carrier order with early pruning; the empty cover yields the single empty
    family. With ``parts`` (one set per open, in frame order) each x_i is
    drawn from ``parts[index[u_i]]``, read when the search reaches u_i."""
    yield from _families_extending(P, list(cover), parts, [])


def _families_extending(P: Presheaf, cover: list, parts, chosen: list):
    """The compatible families over cover whose first members are chosen."""
    i = len(chosen)
    if i == len(cover):
        yield tuple(chosen)
        return
    frame = P.frame
    ui = cover[i]
    part = None if parts is None else parts[frame.index[ui]]
    for x in P.carriers[ui]:
        if part is not None and x not in part:
            continue
        for j in range(i):
            w = frame.meet(ui, cover[j])
            if P.restrict(ui, x, w) != P.restrict(cover[j], chosen[j], w):
                break
        else:
            chosen.append(x)
            yield from _families_extending(P, cover, parts, chosen)
            chosen.pop()


def _amalgamation_index(P: Presheaf, u, cover: tuple) -> dict:
    """The sections of P(u) keyed by their restriction profile (x|u_1, ...,
    x|u_k), each list in carrier order: looking a family up gives its
    amalgamations."""
    index: dict = {}
    for x in P.carriers[u]:
        index.setdefault(tuple(P.restrict(u, x, ui) for ui in cover), []).append(x)
    return index


@dataclass
class SheafCertificate:
    """Per-(open, cover) amalgamation summary over the empty and binary
    covers; passed iff every compatible family over every cover has exactly
    one amalgamation."""

    passed: bool
    entries: list
    witness: dict | None = None
    precondition: CheckReport | None = None

    def report(self) -> CheckReport:
        rep = CheckReport(
            name="sheaf",
            passed=self.passed,
            witness=self.witness,
            details={"entries": self.entries},
        )
        if self.precondition is not None and not self.precondition.passed:
            rep.subreports.append(self.precondition)
        return rep


def verify_sheaf(P: Presheaf) -> SheafCertificate:
    """Every compatible family over every cover patches to exactly one section.

    The verdict is read from one square per open (FiniteFrame.square_cover),
    with no family search. A finite frame X is the frame of down-sets of its
    join-irreducibles J, and by the comparison lemma (Mac Lane and
    Moerdijk, Sheaves in Geometry and Logic, II.1 and ex. II.8) P is a sheaf
    iff x ↦ (x|_j) maps P(u) onto L(u) = lim_{j ∈ J↓u} P(j) bijectively at
    every open u. That holds iff |P(⊥)| = 1 and, at each u ≠ ⊥ outside J,
    with square cover (a, b), x ↦ (x|_a, x|_b) maps P(u) bijectively onto
    P(a) ×_{P(a∧b)} P(b) (_glues). By induction on u: J↓⊥ is empty,
    so L(⊥) is one point; for u in J, u is the top of J↓u, so L(u) = P(u).
    Otherwise J↓u = J↓a ∪ J↓b and J↓a ∩ J↓b = J↓(a∧b), all down-sets of J,
    so a family over J↓u is a pair of families over J↓a and J↓b that agree
    on J↓(a∧b): L(u) = L(a) ×_{L(a∧b)} L(b). Given the bijections at a, b
    and a∧b, all below u and commuting with restriction by composition
    (Presheaf.verify), P(u) → L(u) is a bijection iff the square at u is
    a pullback.

    On a sheaf the compatible families over a cover of u biject with P(u),
    so the certificate lists each open with each of its empty and binary
    covers (FiniteFrame.binary_covers) and |P(u)| families. On a reject
    those covers are scanned in order, each decided by _glues, and the
    entries and witness are those of the scan: the covers that glue before
    the first that does not, and that cover's first family without exactly
    one amalgamation, the only family search. Presheaves are immutable, so
    the certificate is kept on the instance (report.once).
    """
    return once(P, "_sheaf_certificate", None, lambda _: _verify_sheaf_fresh(P))


def _verify_sheaf_fresh(P: Presheaf) -> SheafCertificate:
    pre = P.verify()
    if not pre.passed:
        return SheafCertificate(False, [], {"precondition": pre.witness}, precondition=pre)
    frame = P.frame
    if all(_glues(P, u, frame.square_cover(u)) for u in frame.elements):
        return SheafCertificate(True, _glued_entries(P))
    glued = []
    for u, cover in _binary_covers(frame):
        if not _glues(P, u, cover):
            return SheafCertificate(False, _glued_entries(P, glued), _gluing_witness(P, u, cover))
        glued.append((u, cover))
    raise AssertionError("a square is not a pullback, so a binary cover fails to glue")


def _binary_covers(frame: FiniteFrame) -> Iterator[tuple]:
    """(u, cover) for every open u and each of its binary covers, in order."""
    return ((u, cover) for u in frame.elements for cover in frame.binary_covers(u))


def _glued_entries(P: Presheaf, covers: Iterable[tuple] | None = None) -> list:
    """The certificate entry {open, cover, families} of each (u, cover)
    given, a cover that glues, so its compatible families biject with
    P(u); by default every _binary_covers pair, the entries of a pass. A
    reject lists those before its first failing cover."""
    covers = _binary_covers(P.frame) if covers is None else covers
    return [{"open": u, "cover": list(cover), "families": len(P.carriers[u])} for u, cover in covers]


def _glues(P: Presheaf, u, cover: tuple) -> bool:
    """Whether every compatible family over cover, a cover of u with at most
    two members, has exactly one amalgamation, decided by counting. The
    empty cover has one family, which every x in P(u) amalgamates; a family
    over a cover holding u is amalgamated by its member at u alone. Over
    (v, w) the families are the pairs (y, z) in P(v) × P(w) with y|_m =
    z|_m, m = v ∧ w, counted by grouping P(w) on its restriction to m, and
    the amalgamations of a family are the x in P(u) whose profile
    (x|_v, x|_w) it is. Composition (Presheaf.verify, checked first) makes
    every profile a family, so each family has exactly one amalgamation iff
    the profiles are distinct and there are |P(u)| families."""
    n = len(P.carriers[u])
    if not cover:
        return n == 1
    if u in cover:
        return True
    v, w = cover
    m, res_at = P.frame.meet(v, w), P.res_at
    at_meet = Counter(res_at[w, m])
    if sum(at_meet[b] for b in res_at[v, m]) != n:
        return False
    return len(set(zip(res_at[u, v], res_at[u, w]))) == n


def _gluing_witness(P: Presheaf, u, cover: tuple) -> dict:
    """The first family over cover, a cover of u that fails _glues, with no
    amalgamation or more than one, as the certificate's witness."""
    index = _amalgamation_index(P, u, cover)
    family, glue = next((f, g) for f in compatible_families(P, cover) for g in [index.get(f, ())] if len(g) != 1)
    return {
        "open": u,
        "cover": list(cover),
        "family": [P.label(ui, xi) for ui, xi in zip(cover, family)],
        "amalgamations": len(glue),
    }


class SubSheaf:
    """A part S(u) ⊆ F(u) at each open of a parent presheaf F, kept as one
    int ``bits`` over F's points (x over u is bit F.base[u] + F.at[u][x]):
    equality and hashing read the bits, as do issubset and clip (one AND
    each), size, contains and key. parts, part, sorted_part, points and
    describe are views for documents, witnesses and labels. SubSheaf(F,
    parts) reads part-sets, a dict open ↦ sections or one per open in frame
    order; of_bits takes bits inside the carriers. ``closed`` marks a
    germ-walk member (_germ_subsheaf), a subsheaf by construction, which
    generate_subsheaf returns as it is."""

    __slots__ = ("parent", "bits", "closed")

    def __init__(self, parent: Presheaf, parts):
        elements, bits = parent.frame.elements, 0
        for u, part in ((u, parts.get(u, ())) for u in elements) if isinstance(parts, dict) else zip(elements, parts):
            at, part = parent.at[u], set(part)
            if not part <= at.keys():
                raise MalformedInput(f"subsheaf part at {u!r} outside the carrier: {sorted(map(str, part - at.keys()))}")
            bits |= sum(1 << at[x] for x in part) << parent.base[u]
        self.parent, self.bits, self.closed = parent, bits, False

    @classmethod
    def of_bits(cls, parent: Presheaf, bits: int, closed: bool = False) -> "SubSheaf":
        S = cls.__new__(cls)
        S.parent, S.bits, S.closed = parent, bits, closed
        return S

    def __eq__(self, other):
        # parents with the same carriers number their points alike
        same_points = isinstance(other, SubSheaf) and (self.parent is other.parent or self.parent.carriers == other.parent.carriers)
        return same_points and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def _mask(self, u) -> int:
        """The positions in F(u) of S(u)."""
        P = self.parent
        return self.bits >> P.base[u] & ((1 << len(P.carriers[u])) - 1)

    def sorted_part(self, u) -> list:
        xs = self.parent.carriers[u]
        return [xs[k] for k in _bits(self._mask(u))]

    def part(self, u) -> frozenset:
        return frozenset(self.sorted_part(u))

    @property
    def parts(self) -> tuple:
        """S(u) as a frozenset for each open, in frame order."""
        return tuple(self.part(u) for u in self.parent.frame.elements)

    def contains(self, u, x) -> bool:
        P = self.parent
        i = P.at[u].get(x)
        return i is not None and bool(self.bits >> (P.base[u] + i) & 1)

    def issubset(self, other: "SubSheaf") -> bool:
        return not self.bits & ~other.bits

    def size(self) -> int:
        return self.bits.bit_count()

    def clip(self, v) -> "SubSheaf":
        """S^v: drop every part not below v."""
        return SubSheaf.of_bits(self.parent, self.bits & self.parent.below[v])

    def points(self) -> list[Point]:
        return [Point(u, x) for u in self.parent.frame.elements for x in self.sorted_part(u)]

    def describe(self) -> str:
        shown = []
        for u in self.parent.frame.elements:
            xs = self.sorted_part(u)
            if xs:
                shown.append(f"{u}:" + ",".join(self.parent.label(u, x) for x in xs))
        return "{" + "|".join(shown) + "}"

    def key(self) -> tuple:
        """Deterministic sort key: (total size, per-open membership masks
        over the carrier positions), each mask a slice of the bits."""
        bits = self.bits
        return (bits.bit_count(), tuple([bits >> b & full for b, full in self.parent._spans]))


def _as_part_of(F: Presheaf, S: SubSheaf) -> SubSheaf:
    """S itself when F is its parent, else the same part-sets read into F."""
    return S if S.parent is F else SubSheaf(F, S.parts)


def full_subsheaf(P: Presheaf, u=None) -> SubSheaf:
    """F itself, or F^u as the subsheaf with empty carriers above u."""
    return SubSheaf.of_bits(P, P.below[P.frame.top if u is None else u])


def verify_restriction_closed(S: SubSheaf) -> CheckReport:
    P = S.parent
    for u in P.frame.elements:
        for x in S.sorted_part(u):
            for v in P.frame.down(u):
                if not S.contains(v, P.restrict(u, x, v)):
                    return CheckReport.fail(
                        "restriction_closed",
                        {"open": u, "section": P.label(u, x), "at": v},
                    )
    return CheckReport.ok("restriction_closed")


def verify_subsheaf(S: SubSheaf) -> CheckReport:
    """Restriction-closed and closed under amalgamation (itself a sheaf).

    For a restriction-closed part S of a presheaf P on a finite frame, say
    S is closed at u when every x in P(u) with x|_j in S(j) for each j in
    J↓u (FiniteFrame.canonical_cover) is in S(u). Closure at every open
    gives closure under every cover: if x in P(u) amalgamates a family
    (x_c) of S over a cover C of u, each j in J↓u lies below some c in C
    (j is join-prime), so x|_j = x_c|_j is in S(j), and x is in S(u); J↓u
    is itself a cover, so the converse holds too. Closure at every open is
    decided on the squares of verify_sheaf (_closed_at), by the same
    induction on u. S is closed at ⊥ iff S(⊥) = P(⊥), since J↓⊥ is empty,
    and at every u in J. Otherwise let (a, b) be the square cover of u, and
    S closed at a and b. If every x|_j, j in J↓u = J↓a ∪ J↓b, is in S(j),
    then x|_a is in S(a), by closure at a, and x|_b in S(b); conversely, if x|_a is in S(a)
    and x|_b in S(b), every x|_j is in S(j) by restriction closure. So S is
    closed at u iff x|_a in S(a) and x|_b in S(b) imply x in S(u). Only the
    composition of P's restrictions is used. On a reject the empty and
    binary covers are scanned in order, each decided by _closed_at, and the
    first family of S over the first that fails with an amalgamation
    outside S(u) is the witness."""
    rc = verify_restriction_closed(S)
    if not rc.passed:
        return CheckReport.fail("subsheaf", rc.witness, reason="restriction")
    frame = S.parent.frame
    if all(_closed_at(S, u, frame.square_cover(u)) for u in frame.elements):
        return CheckReport.ok("subsheaf")
    u, cover = next((u, cover) for u, cover in _binary_covers(frame) if not _closed_at(S, u, cover))
    return _closure_witness(S, u, cover)


def _closed_at(S: SubSheaf, u, cover: tuple) -> bool:
    """Whether every amalgamation in P(u) of a family of S over cover, a
    cover of u with at most two members, lies in S(u). Every x in P(u)
    amalgamates the empty cover's one family; a family over a cover holding
    u is amalgamated by its member at u alone, which is in S. Over (v, w),
    x amalgamates a family of S iff x|_v is in S(v) and x|_w in S(w)."""
    P = S.parent
    part = S._mask(u)
    if not cover:
        return part == (1 << len(P.carriers[u])) - 1
    if u in cover:
        return True
    v, w = cover
    sv, sw = S._mask(v), S._mask(w)
    return all(part >> a & 1 for a, (b, c) in enumerate(zip(P.res_at[u, v], P.res_at[u, w])) if sv >> b & 1 and sw >> c & 1)


def _closure_witness(S: SubSheaf, u, cover: tuple) -> CheckReport:
    """The failing report for the first family of S over cover, a cover of
    u that fails _closed_at, with an amalgamation outside S(u)."""
    P = S.parent
    index = _amalgamation_index(P, u, cover)
    outside = ((f, [x for x in index.get(f, ()) if not S.contains(u, x)]) for f in compatible_families(P, cover, S.parts))
    family, missing = next((f, xs) for f, xs in outside if xs)
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


def _germ_table(F: Presheaf, u, leq: Callable | None = None) -> tuple[list, list]:
    """The germs (j, x) with j a join-irreducible below u and x ∈ F(j), listed
    in a linear extension of "lies directly below": (j, x) lies below (j', y)
    when j < j' and y|_j = x, or, with ``leq`` (the order at each open), when
    j = j' and x ≤ y. The j are listed as in FiniteFrame.canonical_cover(u),
    each F(j) by the number of sections below (in carrier order without
    ``leq``). Also returns, for each point (v, x) with v ≤ u, in point
    order, its bit in a SubSheaf and the bitmask of the germs (j, x|_j), j
    in canonical_cover(v); at u = ⊤ entry i is the i-th point."""
    frame, res_at = F.frame, F.res_at
    germs = []
    for j in frame.canonical_cover(u):
        xs = F.carriers[j]
        if leq is not None:
            xs = sorted(xs, key=lambda y: sum(leq(j, x, y) for x in F.carriers[j]))
        germs.extend((j, x) for x in xs)
    places = _germ_places(F, germs)
    masks = [
        (1 << (F.base[v] + a), sum(1 << places[j][res_at[v, j][a]] for j in frame.canonical_cover(v)))
        for v in frame.down(u)
        for a in range(len(F.carriers[v]))
    ]
    return germs, masks


def _germ_places(F: Presheaf, germs: list) -> dict:
    """j ↦ the place in germs of the germ (j, x), for each x by its position
    in F(j), at every j with germs in the list."""
    places = {}
    for i, (j, x) in enumerate(germs):
        places.setdefault(j, [0] * len(F.carriers[j]))[F.at[j][x]] = i
    return places


def _germ_subsheaf(F: Presheaf, masks: list, chosen: int) -> SubSheaf:
    """S(v) = {x ∈ F(v) : every germ of x is chosen}, for the points in
    masks, as bits: a subsheaf of the sheaf F when chosen is a down-set of
    the germs, as at every caller, and marked closed. Every point of masks
    is one of F's, so the carriers are not checked."""
    return SubSheaf.of_bits(F, sum(bit for bit, need in masks if need & chosen == need), True)


def generate_subsheaf(F: Presheaf, B, *, require_closed: bool = True) -> SubSheaf:
    """Smallest subsheaf of F containing B. The germs at the join-irreducibles
    of B's sections already form a down-set D, and the subsheaf keeps each
    section whose germs all lie in D. Precondition: F is a sheaf (the frame
    is the down-set lattice of its join-irreducibles, and a subsheaf is
    determined by its germs there). A member built by the germ walk
    (SubSheaf.closed) with parent F is already a subsheaf of F, and is
    returned as it is. D is the OR of the germ masks of B's points, read
    by position: the i-th entry of the table over ⊤ is the i-th point."""
    if isinstance(B, SubSheaf) and B.closed and B.parent is F:
        return B
    seed = _as_part_of(F, B) if isinstance(B, SubSheaf) else SubSheaf(F, B)
    if require_closed:
        verify_restriction_closed(seed).require(NotRestrictionClosed)
    _, masks = F._top_germs
    kept = 0
    for i in _bits(seed.bits):
        kept |= masks[i][1]
    return _germ_subsheaf(F, masks, kept)


def _germ_downsets(F: Presheaf, germs: list, meter: BudgetMeter, leq: Callable | None = None) -> Iterator[int]:
    """Every down-set of the germs, as a bitmask over their list (from
    _germ_table, a linear extension of "lies directly below"), ticking the
    meter once per down-set. The germs are walked from last to first, and a
    germ may be left out only if no chosen germ lies directly above it: every
    leaf is a distinct down-set and there are no dead ends."""
    frame, places = F.frame, _germ_places(F, germs)
    above = [0] * len(germs)  # the germs whose choice forces germ i in
    for i, (j, y) in enumerate(germs):
        a = F.at[j][y]
        for k in frame.down(j):
            if k != j and k in places:
                above[places[k][F.res_at[j, k][a]]] |= 1 << i
        if leq is not None:
            for b, x in enumerate(F.carriers[j]):
                if b != a and leq(j, x, y):
                    above[places[j][b]] |= 1 << i
    stack = [(len(germs), 0)]
    while stack:
        i, chosen = stack.pop()
        if i == 0:
            meter.tick()
            yield chosen
            continue
        i -= 1
        stack.append((i, chosen | 1 << i))
        if not chosen & above[i]:
            stack.append((i, chosen))


def enumerate_subsheaves(
    F: Presheaf,
    u=None,
    *,
    leq: Callable | None = None,
    budget: Budget | None = None,
    meter: BudgetMeter | None = None,
) -> list[SubSheaf]:
    """Sub(F^u), sorted by SubSheaf.key(); with ``leq`` (the order at each
    open, as orders.enumerate_downsheaves passes it) only the members that
    are down-closed at every open, Dow(F^u).

    Sh(X) is equivalent to presheaves on the join-irreducibles J of X (X is
    the down-set lattice of J), so the members are the down-sets of the germs
    (j, x), j ≤ u in J (_germ_downsets), and the budget meter ticks once per
    member. Precondition: F is a sheaf and, with ``leq``, the orders satisfy
    POS1 and POS2 (verify_posheaf)."""
    frame = F.frame
    if u is None:
        u = frame.top
    if meter is None:
        meter = BudgetMeter("subsheaf enumeration", (budget or Budget()).subsheaves)
    germs, masks = _germ_table(F, u, leq)
    subs = [_germ_subsheaf(F, masks, chosen) for chosen in _germ_downsets(F, germs, meter, leq)]
    subs.sort(key=lambda s: s.key())
    return subs


def enumerate_points(F: Presheaf) -> list[Point]:
    """All (u, x in F(u)) pairs of a verified sheaf, including the unique
    point at bottom; the count is the sum of the carrier sizes."""
    return [Point(u, x) for u in F.frame.elements for x in F.carriers[u]]


def epsilon(P: Presheaf, sections: list[tuple]):
    """Largest open below the meet of the domains on which all the given
    sections restrict to the same thing."""
    if not sections:
        raise MalformedInput("epsilon needs at least one section")
    for u, x in sections:
        if u not in P.frame:
            raise SectionNotInCarrier(f"unknown open {u!r}")
        if x not in P.at[u]:
            raise SectionNotInCarrier(f"section {x!r} not in carrier at {u!r}")
    frame = P.frame
    bound = frame.meet_all(u for u, _ in sections)
    agreeing = []
    for w in frame.down(bound):
        images = {P.restrict(u, x, w) for u, x in sections}
        if len(images) == 1:
            agreeing.append(w)
    return frame.join_all(agreeing)


def subterminal(X: FiniteFrame, u) -> Presheaf:
    """Singleton carrier at every v ≤ u, empty otherwise."""
    if u not in X:
        raise DomainMismatch(f"open not in frame: {u!r}")
    below = set(X.down(u))
    return Presheaf.of(X, {v: ("*",) if v in below else () for v in X.elements}, lambda v, x, w: x)


def terminal(X: FiniteFrame) -> Presheaf:
    return subterminal(X, X.top)


class SheafMorphism:
    """Per-open maps forming (once verified) a natural transformation, kept
    as one position table per open: at[u][a] is the position in
    target.carriers[u] of the image of source.carriers[u][a]. __init__
    validates element maps into at, as Presheaf.__init__ does for res;
    from_tables keeps tables valid by construction. The kernels read at and
    point_image; maps, u ↦ {x: α_u(x)}, is at's view for documents and tests."""

    def __init__(self, source: Presheaf, target: Presheaf, maps: dict):
        self.source, self.target, self.at = source, target, {}
        for u, xs in source.carriers.items():
            table, pos = maps.get(u, {}), target.at[u]
            try:
                self.at[u] = tuple([pos[table[x]] for x in xs])
            except KeyError:
                x = next(x for x in xs if x not in table or table[x] not in pos)
                why = f"at {u!r} sends {source.label(u, x)!r} outside the target" if x in table else f"map at {u!r} missing {source.label(u, x)!r}"
                raise DomainMismatch(f"morphism {why}") from None
            if len(table) != len(xs):  # every x has an entry, and some other key too
                x = next(x for x in table if x not in source.at[u])
                raise DomainMismatch(f"morphism map at {u!r} has an entry for {x!r}, outside the source carrier")
        unknown = next((u for u in maps if u not in source.at), None)
        if unknown is not None:
            raise DomainMismatch(f"morphism maps name an unknown open {unknown!r}")

    @classmethod
    def of(cls, source: Presheaf, target: Presheaf, image: Callable) -> "SheafMorphism":
        """The morphism x ↦ image(u, x) at each open u, as __init__ validates it."""
        return cls(source, target, {u: {x: image(u, x) for x in xs} for u, xs in source.carriers.items()})

    @classmethod
    def from_tables(cls, source: Presheaf, target: Presheaf, at: dict) -> "SheafMorphism":
        """The morphism with the position tables at, kept as they are."""
        alpha = cls.__new__(cls)
        alpha.source, alpha.target, alpha.at = source, target, at
        return alpha

    @lazy
    def maps(self) -> dict:
        """u ↦ {x: α_u(x)}: at's view."""
        source, target = self.source.carriers, self.target.carriers
        return {u: dict(zip(source[u], map(target[u].__getitem__, table))) for u, table in self.at.items()}

    @lazy
    def point_image(self) -> tuple:
        """The position among the target's points of the image of each
        source point, in enumerate_points order."""
        base = self.target.base
        return tuple([base[u] + b for u in self.source.carriers for b in self.at[u]])

    def __call__(self, u, x):
        return self.target.carriers[u][self.at[u][self.source.at[u][x]]]

    @classmethod
    def identity(cls, F: Presheaf) -> "SheafMorphism":
        return cls.from_tables(F, F, {u: tuple(range(len(xs))) for u, xs in F.carriers.items()})

    def compose(self, other: "SheafMorphism") -> "SheafMorphism":
        """self after other."""
        return SheafMorphism.from_tables(other.source, self.target, {u: tuple([self.at[u][b] for b in other.at[u]]) for u in other.source.carriers})

    @timed
    def verify(self) -> CheckReport:
        """Naturality, α_v(x|_v) = (α_u x)|_v for every v < u, on positions,
        naming the first failing (u, v, x): u, v in frame order, x in
        carrier order. Every pair is scanned, so it needs no law of either
        presheaf."""
        source, target, at, frame = self.source, self.target, self.at, self.source.frame

        def gap(u, v):
            image, down = at[u], target.res_at[u, v]
            lhs, rhs = [down[b] for b in image], [at[v][b] for b in source.res_at[u, v]]
            return None if lhs == rhs else next(a for a, (b, c) in enumerate(zip(lhs, rhs)) if b != c)

        pairs = ((u, v) for u in frame.elements for v in frame.down(u) if v != u)
        failure = next(((u, v, a) for u, v in pairs for a in [gap(u, v)] if a is not None), None)
        if failure is None:
            return CheckReport.ok("morphism")
        u, v, a = failure
        lhs, rhs = target.res_at[u, v][at[u][a]], at[v][source.res_at[u, v][a]]
        return CheckReport.fail(
            "morphism.naturality",
            {
                "square": [u, v],
                "section": source.label(u, source.carriers[u][a]),
                "restrict_then_map": target.label(v, target.carriers[v][rhs]),
                "map_then_restrict": target.label(v, target.carriers[v][lhs]),
            },
        )


def verify_morphism(alpha: SheafMorphism) -> CheckReport:
    return alpha.verify()


def product_sheaf(F: Presheaf, G: Presheaf) -> Presheaf:
    """F × G with componentwise carriers and restrictions."""
    if F.frame is not G.frame and F.frame.elements != G.frame.elements:
        raise DomainMismatch("product of sheaves on different frames")
    frame = F.frame
    carriers = {
        u: tuple(itertools.product(F.carriers[u], G.carriers[u])) for u in frame.elements
    }

    def restrict(u, pair, v):
        return F.restrict(u, pair[0], v), G.restrict(u, pair[1], v)

    def labeler(u, pair):
        return f"({F.label(u, pair[0])},{G.label(u, pair[1])})"

    return Presheaf.of(frame, carriers, restrict, labeler=labeler)


def sheaf_iso(F: Presheaf, G: Presheaf) -> dict | None:
    """Per-open bijections commuting with restrictions, by backtracking;
    None when exhausted. Intended for desk-scale witnesses only."""
    frame = F.frame
    if any(len(F.carriers[u]) != len(G.carriers[u]) for u in frame.elements):
        return None
    opens = list(frame.elements)
    assignment: dict = {}

    def consistent(u) -> bool:
        for v in opens:
            if v not in assignment:
                continue
            if frame.leq(v, u):
                hi, lo = u, v
            elif frame.leq(u, v):
                hi, lo = v, u
            else:
                continue
            for x in F.carriers[hi]:
                if G.restrict(hi, assignment[hi][x], lo) != assignment[lo][F.restrict(hi, x, lo)]:
                    return False
        return True

    # depth first over the opens, one iterator of candidate bijections per
    # level; the assignment holds the opens of the levels on the stack
    stack = [itertools.permutations(G.carriers[opens[0]])]
    while stack:
        u = opens[len(stack) - 1]
        for perm in stack[-1]:
            assignment[u] = dict(zip(F.carriers[u], perm))
            if consistent(u):
                break
        else:
            assignment.pop(u, None)
            stack.pop()
            continue
        if len(stack) == len(opens):
            return dict(assignment)
        stack.append(itertools.permutations(G.carriers[opens[len(stack)]]))
    return None
