"""The order layer: partially ordered sheaves, the internal order subsheaf,
point and morphism orders, order-preserving maps, downsheaves and their
classifier, principal ideals/filters, powersheaves, downward closure, and
Galois connections.

Each law is decided once. Where readings of a law agree by proof, one
computation decides it and every reading reports it, each with its own
witness: POS1–POS3 and the internal-poset reading (verify_posheaf),
monotonicity at each open and factoring through the order subsheaf
(verify_order_preserving), and the point, per-open and diagonal readings
of the morphism order (morphism_leq). Readings computed apart, such as the
point-order forms read from the point rows, the classifier form and the
Galois forms, are reconciled, and a disagreement is itself a failure. The
exhaustive readings are kept as test oracles."""
from __future__ import annotations

from typing import Callable

from .frames import FiniteFrame, FinitePoset, _bits, _lift, galois_gap, lazy, monotone_gap
from .report import (
    Budget,
    BudgetMeter,
    CheckReport,
    MalformedInput,
    once,
    timed,
)
from .sheaves import (
    Point,
    Presheaf,
    SheafMorphism,
    SubSheaf,
    _as_part_of,
    enumerate_points,
    enumerate_subsheaves,
    verify_morphism,
    verify_sheaf,
    verify_subsheaf,
)


class PoSheaf:
    """A sheaf plus one partial-order relation per open, kept as one
    FinitePoset per open over the carrier (poset(u)), closed reflexively on
    construction; POS1-POS3 are verified properties (verify_posheaf), not
    construction invariants. orders maps an open to its order pairs, read
    into bit rows in one pass through the sheaf's at[u], which the poset
    keeps as its index, or to a FinitePoset over its carrier in carrier
    order, which is kept as it is, so that a position in the poset is one
    in the carrier (the kernels read both through the sheaf's res_at); a
    construction gives its order as a predicate to PoSheaf.of. The
    completeness facts about a posheaf are computed once and kept on it:
    the is_complete and is_frame_sheaf results, the left adjoint of each
    restriction, the point order as bitset rows, and the opposite.
    """

    def __init__(self, sheaf: Presheaf, orders: dict):
        self.sheaf = sheaf
        self.frame = sheaf.frame
        self._posets = {}
        for u, xs in sheaf.carriers.items():
            pairs = orders.get(u, ())
            if isinstance(pairs, FinitePoset):
                if pairs.elements != xs:
                    raise MalformedInput(f"order at {u!r} is not over the carrier in carrier order")
                self._posets[u] = pairs
                continue
            at, ups = sheaf.at[u], [1 << i for i in range(len(xs))]
            downs = list(ups)
            for x, y in pairs:
                i, k = at.get(x), at.get(y)
                if i is None or k is None:
                    raise MalformedInput(f"order pair at {u!r} outside the carrier: {(x, y)!r}")
                ups[i] |= 1 << k
                downs[k] |= 1 << i
            self._posets[u] = FinitePoset.from_rows(xs, ups, downs, at)
        self._completeness = None
        self._frame_sheaf = None
        self._left_adjoints: dict = {}
        self._opposite = None

    @classmethod
    def of(cls, sheaf: Presheaf, leq: Callable) -> "PoSheaf":
        """The posheaf with x ≤_u y iff leq(u, x, y) or x = y, each open's
        up rows read from the predicate into one FinitePoset over its
        carrier, indexed by sheaf.at[u]: the form __init__ keeps as it is."""
        return cls(sheaf, {
            u: FinitePoset.from_rows(xs, [sum(1 << k for k, y in enumerate(xs) if k == i or leq(u, x, y)) for i, x in enumerate(xs)], None, sheaf.at[u])
            for u, xs in sheaf.carriers.items()
        })

    @property
    def carriers(self):
        return self.sheaf.carriers

    def carrier(self, u):
        return self.sheaf.carriers[u]

    def label(self, u, x) -> str:
        return self.sheaf.label(u, x)

    def leq(self, u, x, y) -> bool:
        return self._posets[u].leq(x, y)

    def poset(self, u) -> FinitePoset:
        return self._posets[u]

    @property
    def orders(self) -> dict:
        """u -> the order pairs at u, as a frozenset; a view for documents
        and tests, built on request."""
        return {u: poset.pairs() for u, poset in self._posets.items()}

    def sorted_pairs(self, u) -> list:
        """The order pairs at u, x-major, each end in carrier order: the up
        rows of poset(u) walked bit by bit."""
        poset = self._posets[u]
        elements = poset.elements
        return [(x, elements[k]) for x, row in zip(elements, poset.up_rows) for k in _bits(row)]

    def opposite(self) -> "PoSheaf":
        """Same underlying sheaf, the rows of each open swapped
        (FinitePoset.opposite); built once, and its own opposite is self."""
        if self._opposite is None:
            op = PoSheaf(self.sheaf, {})
            op._posets = {u: poset.opposite() for u, poset in self._posets.items()}
            op._opposite = self
            self._opposite = op
        return self._opposite

    @lazy
    def _points(self) -> tuple:
        """(points, rows by position) in enumerate_points order, built once:
        the point (u, x) is at sheaf.position(u, x)."""
        points = enumerate_points(self.sheaf)
        return points, [None] * len(points)

    def points(self) -> list:
        """enumerate_points(self.sheaf), the order of every point bitset."""
        return self._points[0]

    def points_over(self, u) -> int:
        """The bitset of the points over u."""
        return ((1 << len(self.carriers[u])) - 1) << self.sheaf.base[u]

    def row(self, i: int) -> int:
        """The bitset over points() of the q above the i-th point p: dom p ≤
        dom q and p ≤ q|_{dom p}, read over the opens above p.dom. Built on
        first use and kept in a list by position.

        This is the point order when F satisfies POS1 and POS2 over a sheaf
        (verify_posheaf, which bounds and sup_in_open require), and there it
        is also the factoring reading, p|_v ≤ q|_v at every v ≤ dom p:
        restriction composes, and if p ≤ q|_{dom p} then for each v ≤ dom p,
        POS2 gives p|_v ≤ (q|_{dom p})|_v = q|_v, while the factoring reading
        at v = dom p is this one."""
        points, rows = self._points
        row = rows[i]
        if row is None:
            u, P = points[i].dom, self.sheaf
            above = self._posets[u].up_rows[i - P.base[u]]
            row = 0
            for w in self.frame.up(u):
                for a, b in enumerate(P.res_at[w, u], P.base[w]):
                    if above >> b & 1:
                        row |= 1 << a
            rows[i] = row
        return row


def discrete(sheaf: Presheaf) -> PoSheaf:
    return PoSheaf(sheaf, {})


def verify_posheaf(F: PoSheaf) -> CheckReport:
    """POS1–POS3 with witnesses, and the internal-poset reading: the order
    relation must be a subsheaf of F×F satisfying internal reflexivity,
    antisymmetry, and transitivity. Each law is decided once and both
    readings report it. POS2 is decided along the lower covers (_pos2) and
    POS3 by pull-up at J↓u (pull_up, the order repair's kernel), whose
    flagged pairs alone are scanned over the binary covers (_patching_gap);
    ≤ is a subsheaf of F×F iff POS2 and POS3 hold (_internal_subsheaf), and
    a reject reads its witness from F's tables and POS3's failing masks, so
    no path builds F×F. POS1 and the internal antisymmetry and transitivity
    are one row test per open (FinitePoset.broken_laws on F.poset(u)): POS1
    at u says ≤_u is reflexive, antisymmetric and transitive, which is what
    the internal reading says of ≤ at u, and ≤_u is reflexive by
    construction, since every row holds its own bit. A reject names the
    first pair or chain in sorted_pairs order (FinitePoset.first_cycle and
    first_chain). So the two readings agree by proof, and posheaf.agreement
    holds on every report; the test oracle decides the subsheaf law on F×F
    itself. Computed once per posheaf (report.once)."""
    return once(F, "_posheaf_report", None, lambda _: _verify_posheaf_fresh(F))


@timed
def _verify_posheaf_fresh(F: PoSheaf) -> CheckReport:
    cert = verify_sheaf(F.sheaf)
    if not cert.passed:
        return CheckReport.fail("posheaf", {"precondition": cert.witness}, stage="sheaf")

    # one row test per open decides POS1 and, below, internal antisymmetry
    # and transitivity: each reads the same rows F.poset(u)
    broken = {u: F.poset(u).broken_laws for u in F.frame.elements}
    subs = []
    pos1 = CheckReport.ok("posheaf.POS1")
    u = next((u for u in F.frame.elements if broken[u]), None)
    if u is not None:
        law = F.poset(u).verify()
        # the poset witness holds carrier elements; report their labels
        witness = {
            key: [F.label(u, x) for x in value] if isinstance(value, list) else F.label(u, value)
            for key, value in law.witness.items()
        }
        pos1 = CheckReport.fail("posheaf.POS1", {"open": u, "law": law.name, "witness": witness})
    subs.append(pos1)

    pos2 = _pos2(F)
    subs.append(pos2)

    gap = _patching_gap(F, pos2.passed)
    pos3 = _pos3(F, gap)
    subs.append(pos3)

    internal_subs = _internal_subsheaf(F, pos2.passed, gap)
    # every row holds its own bit, so ≤ is internally reflexive
    refl = CheckReport.ok("internal.reflexive")
    antisym = CheckReport.ok("internal.antisymmetric")
    trans = CheckReport.ok("internal.transitive")
    for u in F.frame.elements:
        if antisym.passed and "antisymmetric" in broken[u]:
            pair = [F.label(u, x) for x in F.poset(u).first_cycle()]
            antisym = CheckReport.fail("internal.antisymmetric", {"open": u, "pair": pair})
        if trans.passed and "transitive" in broken[u]:
            chain = [F.label(u, x) for x in F.poset(u).first_chain()]
            trans = CheckReport.fail("internal.transitive", {"open": u, "chain": chain})
    internal_subs.extend([refl, antisym, trans])
    internal = CheckReport.combine("posheaf.internal_poset", internal_subs)
    subs.append(internal)

    pos_verdict = pos1.passed and pos2.passed and pos3.passed
    agreement = pos_verdict == internal.passed
    subs.append(
        CheckReport(
            "posheaf.agreement",
            agreement,
            witness=None if agreement else {"pos_forms": pos_verdict, "internal": internal.passed},
        )
    )
    first = next((r for r in subs if not r.passed), None)
    return CheckReport(
        name="posheaf",
        passed=pos_verdict and agreement,
        witness=None if first is None else {"first_failed": first.name, "witness": first.witness},
        subreports=subs,
    )


def _pos2(F: PoSheaf) -> CheckReport:
    """POS2, x ≤_u y ⇒ x|_v ≤_v y|_v, is restriction monotonicity, decided
    along the lower covers (FiniteFrame.first_failing_pair). Restriction
    composes on a sheaf, and every v < u is reached from u by a chain of
    lower covers, so POS2 at every v ≤ u follows link by link; at v = u it
    is the identity. Each square is the up-row test of MonotoneMap.verify
    on positions (frames.monotone_gap), with res_at[u, v] as the image. A
    reject names the first failing square and pair, x-major in carrier
    order."""
    res_at = F.sheaf.res_at

    def gap(u, v):
        return monotone_gap(F.poset(u).up_rows, res_at[u, v], F.poset(v).up_rows)

    failure = F.frame.first_failing_pair(gap)
    if failure is None:
        return CheckReport.ok("posheaf.POS2")
    u, v, pair = failure
    return CheckReport.fail("posheaf.POS2", {"square": [u, v], "pair": [F.label(u, F.carrier(u)[a]) for a in pair]})


def pull_up_sources(P: Presheaf, u, rows: dict) -> list:
    """pull_up's tables at an open u outside J: for each j in J↓u
    (FiniteFrame.canonical_cover), rows[j] as it is (a caller may grow it),
    the position of x|_j for each x in P(u) (res_at[u, j]), and bit ->
    preimage mask at j."""
    sources = []
    for j in P.frame.canonical_cover(u):
        down = P.res_at[u, j]
        pre = dict.fromkeys((1 << b for b in range(len(rows[j]))), 0)
        for k, b in enumerate(down):
            pre[1 << b] |= 1 << k
        sources.append((rows[j], down, pre))
    return sources


def pull_up(gained: int, a: int, sources: list) -> int:
    """The t in the mask gained with x|_j ≤_j t|_j at every j in J↓u, x the
    a-th section of P(u) (at ⊥, gained): the one reading of POS3 at J↓u,
    whose pairs the order repair adds and _patching_gap scans."""
    for rows, down, pre in sources:
        if not gained:
            break
        gained &= _lift(rows[down[a]], pre)
    return gained


def _patching_gap(F: PoSheaf, pos2: bool) -> tuple | None:
    """The first empty or binary cover of an open u, in order, that patches
    some pair s ≰_u t, as (u, cover, outside, failing), or None. POS3 over
    every cover follows by induction on the cover size, and a cover holding
    u repeats the premise at u and cannot fail. The scanned pairs s ≰_u t,
    s-major in carrier order, are ``outside`` and the bits of a mask, the
    first pair the highest bit; below[v] holds those with s|_v ≤_v t|_v, so
    ``failing``, the pairs the cover patches wrongly, is the AND of its
    members' masks.

    Without POS2 every pair s ≰_u t is scanned. Under POS2 only the pairs
    pull_up flags at the opens outside J are, which is exact: a
    join-irreducible u has no cover without u, and if a cover C of u patches
    s ≰_u t, each j in J↓u is join-prime, so j ≤ c for some c in C, where
    POS2 takes s|_c ≤ t|_c to s|_j ≤ t|_j: the pair is flagged. So every
    pair a cover patches wrongly is scanned, in the same order, and the
    first failing cover, its first pair (_pos3) and its least-key pair
    (_internal_subsheaf) are the full scan's. A flagged pair fails POS3 over
    J↓u, a cover of u, so where POS3 holds no cover is scanned."""
    P, frame = F.sheaf, F.frame
    rows = {v: F.poset(v).up_rows for v in frame.elements}
    irreducible = set(frame.join_irreducibles()) if pos2 else ()
    for u in frame.elements:
        if u in irreducible:
            continue
        carrier, full = P.carriers[u], (1 << len(P.carriers[u])) - 1
        sources = pull_up_sources(P, u, rows) if pos2 else []
        pairs = [(a, k) for a, row in enumerate(rows[u]) for k in _bits(pull_up(full & ~row, a, sources))]
        if not pairs:
            continue
        below = {}
        for cover in frame.binary_covers(u):
            if u in cover:
                continue
            failing = (1 << len(pairs)) - 1
            for v in cover:
                if v not in below:
                    row, down = rows[v], P.res_at[u, v]
                    below[v] = sum(1 << n for n, (a, k) in enumerate(reversed(pairs)) if row[down[a]] >> down[k] & 1)
                failing &= below[v]
            if failing:
                return u, cover, [(carrier[a], carrier[k]) for a, k in pairs], failing
    return None


def _pos3(F: PoSheaf, gap: tuple | None) -> CheckReport:
    """POS3 from _patching_gap: the highest failing bit is the first pair a
    pair-by-pair scan of the cover finds."""
    if gap is None:
        return CheckReport.ok("posheaf.POS3")
    u, cover, outside, failing = gap
    s, t = outside[len(outside) - failing.bit_length()]
    P = F.sheaf
    return CheckReport.fail(
        "posheaf.POS3",
        {
            "open": u,
            "cover": list(cover),
            "lower_family": [F.label(v, P.restrict(u, s, v)) for v in cover],
            "upper_family": [F.label(v, P.restrict(u, t, v)) for v in cover],
            "patched": [F.label(u, s), F.label(u, t)],
        },
    )


def _pair_label(F: PoSheaf, u, x, y) -> str:
    """The label of (x, y) as a section of F×F (sheaves.product_sheaf)."""
    return f"({F.label(u, x)},{F.label(u, y)})"


def _internal_subsheaf(F: PoSheaf, pos2: bool, gap: tuple | None) -> list[CheckReport]:
    """The subreports internal.subsheaf_restriction and
    internal.subsheaf_amalgamation: whether ≤ is a subsheaf of F×F, read
    off POS2 (pos2) and POS3 (_patching_gap's gap), with the witnesses
    verify_subsheaf would name on the order relation as a part of F×F,
    read from F's own tables.

    Restriction closure of ≤ in F×F is POS2 itself; its witness is the
    first pair (x, y) of ≤_u in product order (x-major), and the first
    v ≤ u, with (x|_v, y|_v) ∉ ≤_v, and a restriction failure fails both
    subreports. When ≤ is restriction-closed, amalgamation closure over
    every cover holds iff it holds over the empty and binary covers, by
    induction on the cover size. F is a sheaf, so a family of ≤ over a
    cover of u is the family of restrictions of exactly one pair
    (x, y) ∈ F(u)², and it lacks its amalgamation iff (x, y) ∉ ≤_u: the
    covers that fail are those that break POS3, and the failing families
    of a cover are the bits of its POS3 failing mask. So ≤ is a subsheaf
    iff POS2 and POS3 hold. The family search runs member by member in the
    carrier order of F×F, x-major, so its first failing family is that of
    the failing pair whose restrictions (x|_c, y|_c) come first in that
    order."""
    ok = [CheckReport("internal.subsheaf_restriction", True), CheckReport("internal.subsheaf_amalgamation", True)]
    if pos2 and gap is None:
        return ok
    P, frame = F.sheaf, F.frame
    if not pos2:
        witness = next(
            {"open": u, "section": _pair_label(F, u, xs[i], xs[k]), "at": v}
            for u, xs in P.carriers.items()
            for i, row in enumerate(F.poset(u).up_rows)
            for k in _bits(row)
            for v in frame.down(u)
            if not F.poset(v).up_rows[P.res_at[u, v][i]] >> P.res_at[u, v][k] & 1
        )
        return [CheckReport(r.name, False, witness=witness) for r in ok]
    u, cover, outside, failing = gap
    at = P.at[u]
    s, t = min(
        (pair for k, pair in enumerate(outside) if failing >> (len(outside) - 1 - k) & 1),
        key=lambda p: [(P.res_at[u, c][at[p[0]]], P.res_at[u, c][at[p[1]]]) for c in cover],
    )
    witness = {
        "open": u,
        "cover": list(cover),
        "family": [_pair_label(F, c, P.restrict(u, s, c), P.restrict(u, t, c)) for c in cover],
        "amalgam_outside": [_pair_label(F, u, s, t)],
    }
    return [ok[0], CheckReport("internal.subsheaf_amalgamation", False, witness=witness)]


def _three_way(name: str, forms: list[tuple[str, bool, object]]) -> CheckReport:
    """Combine independently computed forms; passed iff all hold, and the
    report fails loudly if the forms disagree."""
    verdicts = [ok for _, ok, _ in forms]
    agree = len(set(verdicts)) == 1
    subs = [CheckReport(f"{name}.{label}", ok, witness=wit) for label, ok, wit in forms]
    subs.append(CheckReport(f"{name}.agreement", agree, witness=None if agree else {"verdicts": dict((l, v) for l, v, _ in forms)}))
    return CheckReport(
        name=name,
        passed=all(verdicts) and agree,
        witness=None if all(verdicts) and agree else next((s.witness for s in subs if not s.passed), None),
        subreports=subs,
        details={"verdict": all(verdicts)},
    )


@timed
def verify_order_preserving(alpha: SheafMorphism, F: PoSheaf, G: PoSheaf) -> CheckReport:
    """Point order preserved, per-open monotonicity, and factoring through the
    target order subsheaf. (a, b) lies in the order subsheaf of G×G at u
    iff a ≤_u b, so factoring is monotonicity at each open, and one walk of
    the pairs x ≤_u y by position, x-major in carrier order (sorted_pairs
    order, frames.monotone_gap on α's table), decides both and names each
    one's witness; the point order is read apart, from the rows of F and G
    and α's point table."""
    nat = verify_morphism(alpha)
    if not nat.passed:
        return CheckReport.fail("order_preserving", {"precondition": nat.witness}, stage="morphism")

    # the pairs p ≤ q of F in point order, read from F's rows, each image
    # pair read from G's rows
    pts, image = F.points(), alpha.point_image
    point_wit = next(
        ({"points": [list(p), list(pts[k])]} for i, p in enumerate(pts) for k in _bits(F.row(i)) if not G.row(image[i]) >> image[k] & 1),
        None,
    )

    gaps = ((u, monotone_gap(F.poset(u).up_rows, alpha.at[u], G.poset(u).up_rows)) for u in F.frame.elements)
    found = next(((u, [F.carrier(u)[i] for i in gap]) for u, gap in gaps if gap is not None), None)
    open_wit = fact_wit = None
    if found is not None:
        u, pair = found
        open_wit, fact_wit = {"open": u, "pair": pair}, {"open": u, "pair": [F.label(u, x) for x in pair]}

    return _three_way(
        "order_preserving",
        [("points", point_wit is None, point_wit), ("per_open", open_wit is None, open_wit), ("factoring", fact_wit is None, fact_wit)],
    )


@timed
def morphism_leq(alpha: SheafMorphism, beta: SheafMorphism, F: PoSheaf, G: PoSheaf) -> tuple[bool, CheckReport]:
    """α ≤ β in the three equivalent readings; verdict plus report. α(p) and
    β(p) lie over dom p, where the point order is ≤ at dom p (PoSheaf.row),
    and (a, b) lies in the order subsheaf of G×G at u iff a ≤_u b, so the
    points, per-open and diagonal forms read one comparison per point: one
    walk of F's points, open by open in carrier order, decides all three
    and names each one's witness, read from α's and β's tables."""
    point_wit = open_wit = None
    for u in F.frame.elements:
        ups, beta_u = G.poset(u).up_rows, beta.at[u]
        a = next((a for a, b in enumerate(alpha.at[u]) if not ups[b] >> beta_u[a] & 1), None)
        if a is not None:
            x = F.carrier(u)[a]
            point_wit, open_wit = {"point": [u, x]}, {"open": u, "section": F.label(u, x)}
            break

    ok = open_wit is None
    report = _three_way(
        "morphism_leq",
        [("points", ok, point_wit), ("per_open", ok, open_wit), ("diagonal", ok, open_wit)],
    )
    return ok, report


def omega(X: FiniteFrame) -> PoSheaf:
    """The subobject classifier: Ω(u) = opens below u, restriction by meet,
    inclusion order."""
    sheaf = Presheaf.of(X, {u: tuple(X.down(u)) for u in X.elements}, lambda u, w, v: X.meet(w, v))
    return PoSheaf.of(sheaf, lambda u, w, w2: X.leq(w, w2))


def classifier(G: SubSheaf, F: PoSheaf, Om: PoSheaf | None = None) -> tuple[SheafMorphism, CheckReport]:
    """The classifying map φ_u(x) = ⋁{v ≤ u : x|_v ∈ G(v)} into Ω, verified
    natural and classifying G via the subterminal truth values."""
    frame = F.frame
    Om = Om or omega(frame)
    phi = SheafMorphism.of(F.sheaf, Om.sheaf, lambda u, x: frame.join_all(v for v in frame.down(u) if G.contains(v, F.sheaf.restrict(u, x, v))))
    nat = verify_morphism(phi)
    classified = ((u, {x for x in F.sheaf.carriers[u] if phi(u, x) == u}) for u in frame.elements)
    wit = next(
        ({"open": u, "classified": sorted(F.label(u, x) for x in members), "part": sorted(F.label(u, x) for x in G.part(u))}
         for u, members in classified if members != set(G.part(u))),
        None,
    )
    report = CheckReport.combine("classifier", [nat, CheckReport("classifier.pullback", wit is None, witness=wit)])
    return phi, report


@timed
def is_downsheaf(G: SubSheaf, F: PoSheaf) -> CheckReport:
    """Downward closure in the point order, per-open downsets, and
    order-preservation of the classifier on the opposite — three forms."""
    pre = verify_subsheaf(G)
    if not pre.passed:
        return CheckReport.fail("downsheaf", {"precondition": pre.witness}, stage="subsheaf")

    # a point outside G whose row meets G's points lies below a member
    pts, members = F.points(), _as_part_of(F.sheaf, G).bits
    point_wit = next(
        ({"below": list(p), "member": list(pts[next(_bits(F.row(i) & members))])}
         for i, p in enumerate(pts) if F.row(i) & members and not members >> i & 1),
        None,
    )

    open_wit = next(
        ({"open": u, "pair": [F.label(u, x), F.label(u, y)]}
         for u in F.frame.elements for y in G.sorted_part(u) for x in F.sheaf.carriers[u]
         if F.leq(u, x, y) and not G.contains(u, x)),
        None,
    )

    phi, phi_rep = classifier(G, F)
    cls_wit = None if phi_rep.passed else phi_rep.witness
    if phi_rep.passed:
        cls_wit = next(
            ({"open": u, "pair": [F.label(u, a), F.label(u, b)], "truth": [phi(u, a), phi(u, b)]}
             for u in F.frame.elements for a, b in F.sorted_pairs(u) if not F.frame.leq(phi(u, b), phi(u, a))),
            None,
        )

    return _three_way(
        "downsheaf",
        [("points", point_wit is None, point_wit), ("per_open", open_wit is None, open_wit), ("classifier", cls_wit is None, cls_wit)],
    )


def principal(F: PoSheaf, p: Point, direction: str = "ideal") -> SubSheaf:
    """↓p (or ↑p): the displayed case formula — comparisons against p's
    restrictions on opens below dom(p), empty elsewhere."""
    if direction not in ("ideal", "filter"):
        raise MalformedInput(f"direction must be ideal or filter, not {direction!r}")
    P = F.sheaf
    a, bits = P.at[p.dom][p.value], 0
    for u in F.frame.down(p.dom):
        poset = F.poset(u)
        rows = poset.down_rows if direction == "ideal" else poset.up_rows
        bits |= rows[P.res_at[p.dom, u][a]] << P.base[u]
    return SubSheaf.of_bits(P, bits)


def down_closure(F: PoSheaf, S: SubSheaf) -> SubSheaf:
    """↓S by the cover formula: x lands at u when some cover of u admits
    members of S dominating the matching restrictions of x. Such a cover
    exists iff the opens v ≤ u where x|_v is dominated join to u, since any
    such cover lies among them (S need not be a subsheaf, so no smaller
    family of covers would do)."""
    frame, P = F.frame, F.sheaf
    S = _as_part_of(P, S)
    # v ↦ the positions in F(v) below some member of S(v)
    dominated = {}
    for v, (b, full) in zip(frame.elements, P._spans):
        dominated[v] = 0
        for k in _bits(S.bits >> b & full):
            dominated[v] |= F.poset(v).down_rows[k]
    bits = 0
    for u, (b, _) in zip(frame.elements, P._spans):
        for a in range(len(P.carriers[u])):
            if frame.join_all(v for v in frame.down(u) if dominated[v] >> P.res_at[u, v][a] & 1) == u:
                bits |= 1 << (b + a)
    return SubSheaf.of_bits(P, bits)


def enumerate_downsheaves(F: PoSheaf, u=None, *, budget: Budget | None = None, meter: BudgetMeter | None = None) -> list[SubSheaf]:
    """Dow(F^u), sorted by SubSheaf.key(), budget-metered: the down-sets of
    germs at the join-irreducibles that are also down-closed in each stalk
    order (sheaves.enumerate_subsheaves). Precondition: F satisfies POS1 and
    POS2 over a sheaf (verify_posheaf)."""
    return enumerate_subsheaves(F.sheaf, u, leq=F.leq, budget=budget, meter=meter)


def _power_posheaf(F_sheaf: Presheaf, per_open: dict) -> PoSheaf:
    """Assemble a powersheaf-style posheaf from per-open subsheaf carriers."""
    carriers = {u: tuple(per_open[u]) for u in F_sheaf.frame.elements}
    sheaf = Presheaf.of(F_sheaf.frame, carriers, lambda u, s, v: s.clip(v), labeler=lambda u, s: s.describe())
    return PoSheaf.of(sheaf, lambda u, s, t: s.issubset(t))


def _power_meter(budget: Budget | None) -> BudgetMeter:
    """The one meter that counts the members of ℙF over all its opens."""
    return BudgetMeter("power sheaf subsheaves", (budget or Budget()).subsheaves)


def _power_members(F: Presheaf, meter: BudgetMeter) -> dict:
    """u ↦ Sub(F^u) for each open of a sheaf F: the members of ℙF, built on
    the caller's meter (_power_meter)."""
    return {u: enumerate_subsheaves(F, u, meter=meter) for u in F.frame.elements}


def power_sheaf(F: Presheaf, *, budget: Budget | None = None, verify: bool = True) -> PoSheaf:
    """ℙF: u ↦ Sub(F^u) under inclusion, restriction by clipping, for a sheaf
    F; one budget meter counts the members over all opens."""
    P = _power_posheaf(F, _power_members(F, _power_meter(budget)))
    if verify:
        verify_posheaf(P).require()
    return P


def down_power_sheaf(F: PoSheaf, *, budget: Budget | None = None, verify: bool = True) -> PoSheaf:
    """𝔻F: u ↦ Dow(F^u), a subsheaf of ℙF, for F satisfying POS1 and POS2
    over a sheaf; one budget meter counts the members over all opens."""
    budget = budget or Budget()
    meter = BudgetMeter("down-power sheaf downsheaves", budget.subsheaves)
    per_open = {u: enumerate_downsheaves(F, u, meter=meter) for u in F.frame.elements}
    D = _power_posheaf(F.sheaf, per_open)
    if verify:
        verify_posheaf(D).require()
    return D


def down_embedding(F: PoSheaf, target: PoSheaf) -> SheafMorphism:
    """The principal-ideal embedding F → 𝔻F (or into ℙF): x at u goes to the
    downsheaf of everything below x within the downset of u."""
    return SheafMorphism.of(F.sheaf, target.sheaf, lambda u, x: principal(F, Point(u, x)))


def power_inclusion(D: PoSheaf, P: PoSheaf) -> SheafMorphism:
    """𝔻F ↣ ℙF elementwise."""
    return SheafMorphism.of(D.sheaf, P.sheaf, lambda u, s: s)


@timed
def verify_galois(
    alpha: SheafMorphism,
    beta: SheafMorphism,
    F: PoSheaf,
    G: PoSheaf,
) -> CheckReport:
    """α ⊣ β in three forms: the point equivalence, the unit/counit
    inequalities, and per-open adjointness plus naturality — reconciled.
    The point and per-open forms are one kernel, frames.galois_gap, on the
    point rows (PoSheaf.row) and point tables, and on each open's."""
    pre_a = verify_order_preserving(alpha, F, G)
    pre_b = verify_order_preserving(beta, G, F)
    if not (pre_a.passed and pre_b.passed):
        return CheckReport.fail(
            "galois",
            {"precondition": (pre_a if not pre_a.passed else pre_b).witness},
            stage="order_preserving",
        )

    points = [FinitePoset.from_rows(H.points(), [H.row(i) for i in range(len(H.points()))]) for H in (G, F)]
    gap = galois_gap(*points, alpha.point_image, beta.point_image)
    pt_ok = gap is None
    pt_wit = None if pt_ok else {"points": [list(p) for p in gap["pair"]], "alpha_leq": gap["left_leq"], "leq_beta": gap["right_leq"]}

    unit_ok, _ = morphism_leq(SheafMorphism.identity(F.sheaf), beta.compose(alpha), F, F)
    counit_ok, _ = morphism_leq(alpha.compose(beta), SheafMorphism.identity(G.sheaf), G, G)
    uc_ok = unit_ok and counit_ok
    uc_wit = None if uc_ok else {"unit": unit_ok, "counit": counit_ok}

    open_ok, open_wit = True, None
    for u in F.frame.elements:
        gap = galois_gap(G.poset(u), F.poset(u), alpha.at[u], beta.at[u])
        if gap is not None:
            open_ok, open_wit = False, {"open": u, "witness": gap}
            break
    if open_ok:
        nat_b = verify_morphism(beta)
        if not nat_b.passed:
            open_ok, open_wit = False, {"beta_naturality": nat_b.witness}

    return _three_way(
        "galois",
        [("points", pt_ok, pt_wit), ("unit_counit", uc_ok, uc_wit), ("per_open", open_ok, open_wit)],
    )
