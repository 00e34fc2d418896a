"""Suprema and infima of subsheaves, the completeness criterion in all its
equivalent forms, the sup morphism, sup-preserving morphisms, finite
completeness, and frame (complete Heyting) sheaves.

Completeness and frame sheaves are each decided by one form: the per-open
form (is_complete) and the Frobenius form (is_frame_sheaf). The restated
forms follow from it by proof, pass with it, and are computed only on a
reject, to name their own witnesses; there the verdicts are reconciled,
and a disagreement is itself a failure. So a budget meter ticks only where
a reject scan builds or decides a member. The forms of sup-preserving and
frame morphisms, which are equivalent only on complete posheaves, are all
computed and reconciled. The per-open laws exist once each and every form
that needs one reads it: a complete lattice at each open (_lattice_gap,
read from FinitePoset.lattice_gap, decided once per poset), a
surjective restriction preserving all joins and meets (_restriction_gap,
decided at the lower covers by FiniteFrame.first_failing_pair; the
sheaf-locale CPOSL1-2 read both on Γ), and the commuting left-adjoint
square of a morphism (_adjoint_square_gap). Preservation of the empty and
binary joins or meets is frames._bound_failure, read by finite
completeness and the finite-meets form of frame morphisms. The left
adjoint of each restriction is the table of least candidates, by
position, built once and kept on its posheaf, off the lower covers as a
composite: POS1 and POS2, which verify_posheaf has decided, make that
table the left adjoint by proof, so neither law is decided again here.
Its right adjoint is the left adjoint of the same restriction of the
opposite, as the right adjoint of a morphism is its least-preimage
construction (_least_preimages) on the opposites.
Bounds and sups are one kernel: the AND of point-order rows
(_upper_bound_mask) and its least point by descent (_point_minimum), read
by bounds, sup_in_open and the sup-extension forms, which take each
member's upper bounds from its germ masks (_member_gap)."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_

from .frames import (
    FiniteFrame,
    FrameHom,
    MonotoneMap,
    _bits,
    _bound_failure,
    _least_candidates,
    preserves_all_joins,
    preserves_all_meets,
    verify_frame_hom,
)
from .report import Budget, BudgetMeter, CheckReport, NotComplete, once, timed
from .orders import (
    PoSheaf,
    _power_members,
    _power_meter,
    _three_way,
    discrete,
    down_embedding,
    down_power_sheaf,
    power_sheaf,
    verify_galois,
    verify_morphism,
    verify_order_preserving,
    verify_posheaf,
)
from .sheaves import (
    Point,
    SheafMorphism,
    SubSheaf,
    _as_part_of,
    _germ_downsets,
    _germ_subsheaf,
    _germ_table,
    generate_subsheaf,
    product_sheaf,
    terminal,
)


@dataclass
class BoundReport:
    """Upper bounds, supremum, and infimum of a subsheaf over the point set.

    When several minimal upper bounds exist the sup is absent and the
    antichain is reported instead of tie-breaking."""

    target: SubSheaf
    upper_bounds: list
    sup: Point | None
    inf: Point | None
    sup_antichain: list = field(default_factory=list)
    inf_antichain: list = field(default_factory=list)


def _point_minimum(F: PoSheaf, mask: int):
    """The least point of a bitset of points, or None with its minimal
    members, by descent from the first member c: when c's row holds the
    mask, c is the least member; otherwise the descent steps to the first
    other member of the mask in c's row of F.opposite(), and on from there.

    Over one open u, that row holds, of the points over u, those below c,
    so each step goes to a member strictly below c, and the descent ends. A
    least member lies below every member, so the descent reaches it; and a
    member whose row holds the mask lies below every member, so it is the
    least one. A descent that ends on an empty step has found a minimal
    member that is not least, so there is no least point, and only then
    does the minimal-members scan (_minimal_points) run, to name the
    antichain. Over several opens the opposite's row is not the set below
    c, and there the scan also decides."""
    c = mask & -mask
    while c:
        i = c.bit_length() - 1
        if F.row(i) & mask == mask:
            return F.points()[i], [F.points()[i]]
        c = mask & F.opposite().row(i) & ~c
        c &= -c
    return _minimal_points(F, mask)


def _minimal_points(F: PoSheaf, mask: int):
    """The least point of a bitset of points, or None with its minimal
    members, by a scan: a member is minimal when no other member's row
    reaches it, and least when it is the only minimal one and its row holds
    the mask."""
    members = list(_bits(mask))
    above = 0
    for i in members:
        above |= F.row(i) & ~(1 << i)
    mins = [i for i in members if not above >> i & 1]
    points = F.points()
    if len(mins) == 1 and F.row(mins[0]) & mask == mask:
        return points[mins[0]], [points[mins[0]]]
    return None, [points[i] for i in mins]


def _upper_bound_mask(F: PoSheaf, members: int, mask: int) -> int:
    """The points of mask above every point of the bitset members: the AND
    of their point-order rows."""
    for i in _bits(members):
        mask &= F.row(i)
    return mask


def bounds(F: PoSheaf, A: SubSheaf) -> BoundReport:
    """A sub-presheaf is closed to its generated subsheaf first; the bound set
    is unchanged by that closure. The point order is read from F's rows and
    those of its opposite, so F must satisfy the posheaf laws: a failing
    verify_posheaf report raises."""
    verify_posheaf(F).require()
    A = generate_subsheaf(F.sheaf, A, require_closed=False)
    every = (1 << len(F.points())) - 1
    ups = _upper_bound_mask(F, A.bits, every)
    sup, sup_min = _point_minimum(F, ups)
    op = F.opposite()
    inf, inf_min = _point_minimum(op, _upper_bound_mask(op, A.bits, every))
    return BoundReport(
        target=A,
        upper_bounds=[F.points()[i] for i in _bits(ups)],
        sup=sup,
        inf=inf,
        sup_antichain=[] if sup else sup_min,
        inf_antichain=[] if inf else inf_min,
    )


def sup_in_open(F: PoSheaf, S: SubSheaf, u):
    """The least y in F(u) with S^u ⊆ ↓y, or None: the least point over u
    above every point of S below u, read from the point-order rows as in
    bounds, which also requires the posheaf laws of F."""
    verify_posheaf(F).require()
    S = _as_part_of(F.sheaf, S)
    least, _ = _point_minimum(F, _upper_bound_mask(F, S.bits & F.sheaf.below[u], F.points_over(u)))
    return None if least is None else least.value


@dataclass
class CompletenessCertificate:
    """Every completeness form plus the square and duality cross-checks.
    per_open_form alone decides passed; the others pass by proof with it,
    and are computed and reconciled (agreement) only when it fails."""

    passed: bool
    downsheaf_sups: CheckReport
    subsheaf_sups: CheckReport
    per_open_form: CheckReport
    complete_surjections: CheckReport
    opposite_per_open: CheckReport
    adjoint_square: CheckReport
    agreement: CheckReport
    restriction_data: dict = field(default_factory=dict)

    def report(self) -> CheckReport:
        subs = [
            self.downsheaf_sups,
            self.subsheaf_sups,
            self.per_open_form,
            self.complete_surjections,
            self.opposite_per_open,
            self.adjoint_square,
            self.agreement,
        ]
        first = next((r for r in subs if not r.passed), None)
        return CheckReport(
            name="complete",
            passed=self.passed,
            witness=None if first is None else {"first_failed": first.name, "witness": first.witness},
            subreports=subs,
        )


def _lattice_gap(F: PoSheaf, u, *, meets: bool = True) -> dict | None:
    """None when the partial order F(u) is a lattice (with meets=False, has
    a bottom and every binary join), else the first missing bound, labelled:
    FinitePoset.lattice_gap (join_gap), decided once per poset."""
    poset = F.poset(u)
    gap = poset.lattice_gap if meets else poset.join_gap
    if gap is None:
        return None
    *pair, missing = gap
    if not pair:
        return {"open": u, "missing": missing}
    return {"open": u, "pair": [F.label(u, x) for x in pair], "missing": missing}


def _restriction_gap(F: PoSheaf, u, v) -> str | None:
    """None when F's restriction u → v is surjective and monotone and
    preserves all joins and all meets, else the first of these it breaks.

    The laws compose along chains, so FiniteFrame.first_failing_pair
    decides them at the lower covers: restriction composes, and maps that
    are surjective, monotone, and keep the bottom and binary joins (the
    top and binary meets) compose, on any reflexive orders. For x, y with
    f(x) ≠ f(y), g keeps their join. When f(x) = f(y) = z, the join of z
    with itself is z unless some c ≠ z has z ≤ c ≤ z, and then g(z) has no
    such partner: a partner g(z') of it, g being surjective, would leave
    z, z' without a join in g's image."""
    if len(set(F.sheaf.res_at[u, v])) != len(F.carrier(v)):
        return "surjective"
    res = MonotoneMap(F.poset(u), F.poset(v), F.sheaf.res[u, v])
    if not res.verify().passed:
        return "monotone"
    if not preserves_all_joins(res):
        return "sup-preserving"
    if not preserves_all_meets(res):
        return "inf-preserving"
    return None


def _left_adjoint(F: PoSheaf, u, v) -> tuple[tuple | None, CheckReport]:
    """The left adjoint of F's restriction u → v (v < u) as a table by
    position, F(v) into F(u), or None, with the report naming the first
    element without one; built once per posheaf and kept on it. Its right
    adjoint is the left adjoint of the same restriction of F.opposite().

    Precondition: F satisfies POS1 and POS2, so the restriction is a
    monotone map between partial orders, and the table of least candidates
    (frames._least_candidates) is its left adjoint by proof, with no check
    of monotonicity or of the adjunction (frames.left_adjoint). Every
    caller has run verify_posheaf, which establishes both, except on Φ(h)
    in verify_frame_equivalence, where they hold by construction: each
    F(u) carries L's order, and restriction is meet with h(v).

    The table is built on a lower cover v of u (FiniteFrame.lower_covers).
    For any other v, with w the first lower cover of u above v, the
    restriction u → v is u → w then w → v; when both have left adjoints the
    table is their composite l_{w→u} ∘ l_{v→w}, since Galois connections
    compose and a left adjoint is unique. Only when one is missing is the
    table of u → v built directly."""
    entry = F._left_adjoints.get((u, v))
    if entry is None:
        w = next(w for w in F.frame.lower_covers(u) if F.frame.leq(v, w))
        upper = None if w == v else _left_adjoint(F, u, w)[0]
        lower = None if upper is None else _left_adjoint(F, w, v)[0]
        if lower is None:
            entry = _least_candidates(F.poset(u), F.poset(v), F.sheaf.res_at[u, v])
        else:
            entry = (tuple([upper[b] for b in lower]), CheckReport.ok("left_adjoint"))
        F._left_adjoints[(u, v)] = entry
    return entry


def _left_adjoint_table(F: PoSheaf, u, v) -> tuple | range:
    """l_{v→u} for v ≤ u on a complete posheaf, by position (_left_adjoint)."""
    if u == v:
        return range(len(F.carrier(v)))
    table, rep = _left_adjoint(F, u, v)
    if table is None:
        raise NotComplete(f"restriction {u!r} -> {v!r} has no left adjoint", report=rep)
    return table


def _adjoint_square_gap(alpha: SheafMorphism, F: PoSheaf, G: PoSheaf, u) -> dict | None:
    """The first square α_u(l^F x) ≠ l^G(α_v x), v < u and x ∈ F(v), of the
    left adjoints of the restrictions into u, or None when all commute."""
    xs, ys, at = F.carrier(u), G.carrier(u), G.sheaf.at
    for v in F.frame.down(u):
        if v == u:
            continue
        f_uv = _left_adjoint_table(F, u, v)
        g_uv = _left_adjoint_table(G, u, v)
        for x, a in zip(F.carrier(v), f_uv):
            lhs, rhs = alpha(u, xs[a]), ys[g_uv[at[v][alpha(v, x)]]]
            if lhs != rhs:
                return {"square": [u, v], "section": F.label(v, x), "alpha_after_adjoint": G.label(u, lhs), "adjoint_after_alpha": G.label(u, rhs)}
    return None


def _per_open_form(F: PoSheaf) -> tuple[CheckReport, dict]:
    """Per-open complete lattices plus surjective restrictions having both
    adjoints; returns the report with the per-restriction evidence. Each
    pair v < u is read in frame order, and its adjoints are built only
    along lower covers while those exist (_left_adjoint)."""
    frame = F.frame
    restriction_data = {}
    gap = next(filter(None, (_lattice_gap(F, u) for u in frame.elements)), None)
    verdict_wit = None if gap is None else {"complete_lattice": gap}
    for u in frame.elements:
        for v in frame.down(u):
            if v == u:
                continue
            surjective = len(set(F.sheaf.res_at[u, v])) == len(F.carrier(v))
            la, _ = _left_adjoint(F, u, v)
            ra, _ = _left_adjoint(F.opposite(), u, v)
            restriction_data[(u, v)] = {"surjective": surjective, "left_adjoint": la, "right_adjoint": ra}
            if verdict_wit is None and not (surjective and la is not None and ra is not None):
                verdict_wit = {
                    "restriction": [u, v],
                    "surjective": surjective,
                    "left_adjoint": la is not None,
                    "right_adjoint": ra is not None,
                }
    report = CheckReport("complete.per_open", verdict_wit is None, witness=verdict_wit)
    return report, restriction_data


def _sup_forms(F: PoSheaf, meter: BudgetMeter) -> list[CheckReport]:
    """The downsheaf and subsheaf sup-extension forms: every member of
    Dow(F), then every member of Sub(F), has a sup extendable to a global
    point whose every restriction is the least dominating element over its
    open (_member_gap). is_complete runs them only on a reject; a pass of
    the per-open form implies them.

    The members are the germ down-sets that enumerate_downsheaves and
    enumerate_subsheaves walk (sheaves._germ_downsets), walked the same way,
    so the meter ticks at the same members in the same order. A Dow member
    is moved onto Sub's germ bits, and each member is decided once for both
    forms. Only a failing member is built as a SubSheaf, and the witness is
    the failing member first in SubSheaf.key() order, the order of the
    enumerated lists."""
    P = F.sheaf
    germs, masks = P._top_germs
    dow_germs, _ = _germ_table(P, F.frame.top, F.leq)
    moved = [1 << germs.index(g) for g in dow_germs]
    dows = [sum(moved[i] for i in _bits(d)) for d in _germ_downsets(P, dow_germs, meter, F.leq)]
    subs = list(_germ_downsets(P, germs, meter))
    gap = cache(_member_gap(F, germs))
    reports = []
    for name, members in (("complete.downsheaf_sups", dows), ("complete.subsheaf_sups", subs)):
        failed = [(_germ_subsheaf(P, masks, m), gap(m)) for m in members if gap(m)]
        S, witness = min(failed, key=lambda f: f[0].key(), default=(None, None))
        reports.append(CheckReport.ok(name, checked=len(members)) if S is None else CheckReport.fail(name, {"subsheaf": S.describe(), **witness}))
    return reports


def _member_gap(F: PoSheaf, germs: list):
    """The sup-extension law of one member of Sub(F), given as a down-set of
    the germs (j, x) at the join-irreducibles (Presheaf._top_germs): a function
    from its mask to None, or to the first failure: no sup, with the
    minimal upper bounds; the first open with no least dominating element;
    or no global point whose restrictions are those least elements.

    The upper bounds come from the member's germs alone. For a posheaf over
    a sheaf, x ≤ y|_v iff x|_j ≤ y|_j for every j in J↓v, by POS3 and the
    comparison lemma (J↓v covers v); so (v, x) lies below (w, y) iff each
    germ (j, x|_j) does, as j ≤ w for all of them iff v ≤ w.
    A member's points at j are its germs there, and each of its points has
    its germs in it, so the points above all of it are the AND of its germs'
    rows, and those over u the AND over j in J↓u of one mask per j, the AND
    of the rows of its germs at j. A least element over the top restricts to
    the only candidate global point, so the global point exists iff its
    restrictions are the least elements at every open. The least point of
    a bitset over one open, and the restrictions of a section over the top,
    are kept for the members that share them."""
    frame, P = F.frame, F.sheaf
    J = frame.canonical_cover(frame.top)
    at_j = [J.index(j) for j, _ in germs]
    rows = [F.row(P.position(*g)) for g in germs]
    opens = [(u, F.points_over(u), [J.index(j) for j in frame.canonical_cover(u)]) for u in frame.elements]
    every = (1 << len(F.points())) - 1
    least = cache(lambda over: _point_minimum(F, over)[0])
    restrictions = cache(lambda x: [P.restrict(frame.top, x, u) for u in frame.elements])

    def gap(mask: int) -> dict | None:
        by_j = [every] * len(J)
        for i in _bits(mask):
            by_j[at_j[i]] &= rows[i]
        sup, mins = _point_minimum(F, reduce(and_, by_j, every))
        if sup is None:
            return {"missing": "sup", "minimal_upper_bounds": [list(p) for p in mins]}
        least_at = []
        for u, over, js in opens:
            for k in js:
                over &= by_j[k]
            least_at.append(least(over))
            if least_at[-1] is None:
                return {"open": u, "missing": "least dominating element"}
        if restrictions(least_at[frame.index[frame.top]].value) != [p.value for p in least_at]:
            return {"missing": "global point extending the sup"}
        return None

    return gap


def _complete_surjections_form(F: PoSheaf) -> CheckReport:
    """The surjective-complete-maps reading: per-open complete lattices with surjective restrictions
    preserving arbitrary sups and infs (POS3 is a posheaf precondition; POS2
    makes every restriction monotone), the restrictions read by
    _restriction_gap at the lower covers."""
    frame = F.frame
    for u in frame.elements:
        gap = _lattice_gap(F, u)
        if gap:
            witness = {"open": u, "pair": gap["pair"]} if "pair" in gap else {"open": u, "missing": "bounds"}
            return CheckReport.fail("complete.complete_surjections", witness)
    failure = frame.first_failing_pair(lambda u, v: _restriction_gap(F, u, v))
    if failure:
        u, v, law = failure
        return CheckReport.fail("complete.complete_surjections", {"restriction": [u, v], "not": law})
    return CheckReport.ok("complete.complete_surjections")


def _adjoint_square_check(F: PoSheaf, restriction_data: dict) -> CheckReport:
    """(l_{v,u∨v} x)|_u = l_{u∧v,u}(x|_{u∧v}) for all pairs of opens; runs when
    the needed left adjoints exist (the law's hypothesis)."""
    frame, res_at = F.frame, F.sheaf.res_at
    for u in frame.elements:
        xs = F.carrier(u)
        for v in frame.elements:
            uv = frame.join(u, v)
            uw = frame.meet(u, v)
            l_v_uv = restriction_data.get((uv, v), {}).get("left_adjoint") if uv != v else range(len(F.carrier(v)))
            l_uw_u = restriction_data.get((u, uw), {}).get("left_adjoint") if u != uw else range(len(xs))
            if l_v_uv is None or l_uw_u is None:
                return CheckReport.ok("complete.adjoint_square", skipped="missing left adjoints")
            to_u, to_uw = res_at[uv, u], res_at[v, uw]
            for x, a, b in zip(F.carrier(v), l_v_uv, to_uw):
                lhs, rhs = to_u[a], l_uw_u[b]
                if lhs != rhs:
                    return CheckReport.fail(
                        "complete.adjoint_square",
                        {"opens": [u, v], "section": F.label(v, x), "via_join": F.label(u, xs[lhs]), "via_meet": F.label(u, xs[rhs])},
                    )
    return CheckReport.ok("complete.adjoint_square")


def is_complete(F: PoSheaf, *, budget: Budget | None = None) -> CompletenessCertificate:
    """The completeness certificate of F, computed once per posheaf
    (report.once). One form decides: each F(u) is a complete lattice and
    each restriction v < u is surjective with both adjoints (per_open_form).
    When it passes, the five restated forms hold by proof (README) and pass
    with no count. opposite_per_open: a finite poset is a lattice iff its
    opposite is, and the opposite's adjoints are F's, swapped.
    adjoint_square, (l_{v→u∨v} x)|_u = l_{u∧v→u}(x|_{u∧v}): F(u∨v) is the
    pullback F(u) ×_{F(u∧v)} F(v), ordered componentwise by POS3, and a
    surjection r with left adjoint l has r∘l = id, so l_{v→u∨v}(x) is the
    pair (l_{u∧v→u}(x|_{u∧v}), x). complete_surjections: a left (right)
    adjoint preserves all joins (meets), and POS2 makes each restriction
    monotone. The sup-extension forms: for S in Sub(F), s_u =
    ∨{l_{v→u}(x) : v ≤ u, x ∈ S(v)} is the least element of F(u) above S
    below u, by adjointness; by the square, (l_{v→w} x)|_u =
    l_{u∧v→u}(x|_{u∧v}) for v, u ≤ w, and as restrictions preserve joins,
    s_w|_u = s_u. So (w0, s_{w0}), w0 the join of S's support, is the sup,
    and s_top the global point extending it. Otherwise the opposite's form,
    the square (_adjoint_square_check), _sup_forms, ticking the
    "completeness enumeration" meter at each member it decides, and
    _complete_surjections_form run, to name their own verdicts and
    witnesses."""
    meter = BudgetMeter("completeness enumeration", (budget or Budget()).subsheaves)
    return once(F, "_completeness", meter, lambda m: _is_complete_fresh(F, m))


@timed
def _is_complete_fresh(F: PoSheaf, meter: BudgetMeter) -> CompletenessCertificate:
    verify_posheaf(F).require()
    per_open_form, restriction_data = _per_open_form(F)
    if per_open_form.passed:
        downsheaf_sups, subsheaf_sups, surjections, op4, square = (
            CheckReport.ok(f"complete.{name}")
            for name in ("downsheaf_sups", "subsheaf_sups", "complete_surjections", "opposite_per_open", "adjoint_square")
        )
    else:
        op4, _ = _per_open_form(F.opposite())
        op4.name = "complete.opposite_per_open"
        square = _adjoint_square_check(F, restriction_data)
        downsheaf_sups, subsheaf_sups = _sup_forms(F, meter)
        surjections = _complete_surjections_form(F)

    verdicts = {
        "downsheaf_sups": downsheaf_sups.passed,
        "subsheaf_sups": subsheaf_sups.passed,
        "per_open_form": per_open_form.passed,
        "complete_surjections": surjections.passed,
        "opposite_per_open": op4.passed,
    }
    agree = len(set(verdicts.values())) == 1
    agreement = CheckReport("complete.agreement", agree, witness=None if agree else verdicts)
    return CompletenessCertificate(
        passed=per_open_form.passed,
        downsheaf_sups=downsheaf_sups,
        subsheaf_sups=subsheaf_sups,
        per_open_form=per_open_form,
        complete_surjections=surjections,
        opposite_per_open=op4,
        adjoint_square=square,
        agreement=agreement,
        restriction_data=restriction_data,
    )


def sup_morphism(F: PoSheaf, *, budget: Budget | None = None) -> tuple[SheafMorphism, SheafMorphism, CheckReport]:
    """The left adjoint of the principal-ideal embedding, on downsheaves and on
    all subsheaves: the adjoint-composition formula must agree with
    sup_in_open, the least upper bound read from the point-order rows, whose
    sups the maps take (the subreport keeps its name, formula_vs_scan)."""
    budget = budget or Budget()
    cert = is_complete(F, budget=budget)
    if not cert.passed:
        raise NotComplete("sup morphism needs a complete posheaf", report=cert.report())
    frame, at = F.frame, F.sheaf.at
    D = down_power_sheaf(F, budget=budget, verify=False)
    P = power_sheaf(F.sheaf, budget=budget, verify=False)

    def primary(u, S: SubSheaf):
        w = frame.join_all(v for v in frame.down(u) if S._mask(v))
        joins = []
        for v in frame.down(w):
            sv = S.sorted_part(v)
            join_v = F.poset(v).join_all(sv) if sv else F.poset(v).bottom
            joins.append(F.carrier(w)[_left_adjoint_table(F, w, v)[at[v][join_v]]])
        s = F.poset(w).join_all(joins) if joins else F.poset(w).bottom
        return F.carrier(u)[_left_adjoint_table(F, u, w)[at[w][s]]]

    mismatch = None
    maps_d, maps_p = {}, {}
    for u in frame.elements:
        maps_d[u] = {}
        maps_p[u] = {}
        for S in P.carrier(u):
            via_formula = primary(u, S)
            via_scan = sup_in_open(F, S, u)
            if via_formula != via_scan and mismatch is None:
                mismatch = {"open": u, "subsheaf": S.describe(), "formula": F.label(u, via_formula), "scan": F.label(u, via_scan)}
            maps_p[u][S] = via_scan
        for S in D.carrier(u):
            maps_d[u][S] = maps_p[u][S]
    sup_d = SheafMorphism(D.sheaf, F.sheaf, maps_d)
    sup_p = SheafMorphism(P.sheaf, F.sheaf, maps_p)

    checks = [
        CheckReport("sup_morphism.formula_vs_scan", mismatch is None, witness=mismatch),
        verify_morphism(sup_d),
        verify_morphism(sup_p),
        verify_galois(sup_d, down_embedding(F, D), D, F),
    ]
    report = CheckReport.combine("sup_morphism", checks)
    return sup_d, sup_p, report


def image_subsheaf(alpha: SheafMorphism, S: SubSheaf, u=None) -> SubSheaf:
    """Per-open image, then the generated subsheaf (the image of S)."""
    G, bits = alpha.target, 0
    for v, x in S.points():
        bits |= 1 << G.position(v, alpha(v, x))
    img = generate_subsheaf(G, SubSheaf.of_bits(G, bits), require_closed=False)
    return img if u is None else img.clip(u)


def _sup_square_gap(alpha: SheafMorphism, F: PoSheaf, G: PoSheaf, budget: Budget) -> dict | None:
    """The defining square of a sup-preserving morphism, open by open over
    Sub(F^u): the first open u and S with no sup, or none of its image, or
    with α_u(sup S) ≠ sup α(S); else None."""
    members = _power_members(F.sheaf, _power_meter(budget))
    for u in F.frame.elements:
        for S in members[u]:
            sup = sup_in_open(F, S, u)
            rhs = sup_in_open(G, image_subsheaf(alpha, S, u), u)
            if sup is None or rhs is None:
                return {"open": u, "subsheaf": S.describe(), "missing": "sup" if sup is None else "sup_of_image"}
            lhs = alpha(u, sup)
            if lhs != rhs:
                return {"open": u, "subsheaf": S.describe(), "alpha_of_sup": G.label(u, lhs), "sup_of_image": G.label(u, rhs)}
    return None


@timed
def verify_sup_preserving(
    alpha: SheafMorphism, F: PoSheaf, G: PoSheaf, *, budget: Budget | None = None
) -> CheckReport:
    """Three forms: the defining square over the members of the powersheaf
    (_sup_square_gap), per-open join preservation with commuting left-adjoint
    squares, and right-adjoint existence — reconciled. F and G must be
    posheaves (verify_posheaf; a failure raises with its report), since the
    members and the image subsheaves are computed on their sheaves. The forms are equivalent only
    for complete posheaves: when they disagree and F or G is not complete
    (is_complete), a failing sup_preserving.complete subreport naming the
    side replaces the agreement."""
    verify_posheaf(F).require()
    verify_posheaf(G).require()
    pre = verify_order_preserving(alpha, F, G)
    if not pre.passed:
        return CheckReport.fail("sup_preserving", {"precondition": pre.witness}, stage="order_preserving")
    budget = budget or Budget()
    frame = F.frame

    square_wit = _sup_square_gap(alpha, F, G, budget)
    open_wit = None
    for u in frame.elements:
        if not preserves_all_joins(MonotoneMap(F.poset(u), G.poset(u), alpha.maps[u])):
            open_wit = {"open": u, "not": "join-preserving"}
        else:
            open_wit = _adjoint_square_gap(alpha, F, G, u)
        if open_wit:
            break
    open_ok = open_wit is None

    adj_ok, adj_wit = True, None
    beta, gap = _least_preimages(alpha, F.opposite(), G.opposite())
    if beta is None:
        adj_ok, adj_wit = False, {**gap, "missing": "greatest preimage"}
    else:
        nat = verify_morphism(beta)
        if not nat.passed:
            adj_ok, adj_wit = False, {"beta_naturality": nat.witness}
        else:
            gal = verify_galois(alpha, beta, F, G)
            if not gal.passed:
                adj_ok, adj_wit = False, {"galois": gal.witness}

    forms = [("square", square_wit is None, square_wit), ("per_open", open_ok, open_wit), ("right_adjoint", adj_ok, adj_wit)]
    if len({ok for _, ok, _ in forms}) > 1:
        # the forms are equivalent only on complete posheaves: a disagreement
        # on one that is not complete is no inconsistency
        incomplete = [side for side, H in (("source", F), ("target", G)) if not is_complete(H, budget=budget).passed]
        if incomplete:
            subs = [CheckReport(f"sup_preserving.{label}", ok, witness=wit) for label, ok, wit in forms]
            subs.append(CheckReport.fail("sup_preserving.complete", {"not_complete": incomplete}))
            return CheckReport(
                name="sup_preserving",
                passed=False,
                witness=next(s.witness for s in subs if not s.passed),
                subreports=subs,
                details={"verdict": False},
            )
    return _three_way("sup_preserving", forms)


def product_posheaf(F: PoSheaf, G: PoSheaf) -> PoSheaf:
    """F × G with the componentwise order."""
    return PoSheaf.of(product_sheaf(F.sheaf, G.sheaf), lambda u, p, q: F.leq(u, p[0], q[0]) and G.leq(u, p[1], q[1]))


def _least_preimages(alpha: SheafMorphism, F: PoSheaf, G: PoSheaf) -> tuple[SheafMorphism | None, dict | None]:
    """The candidate left adjoint G → F of α: y ↦ the least x ∈ F(u) with
    y ≤ α_u(x), at each open u; or None with the first {open, section} y that
    has no least such x. On F.opposite() and G.opposite() (the same sheaves,
    orders reversed) it is the candidate right adjoint, of greatest x with
    α_u(x) ≤ y. Each open's table is the one frames.left_adjoint builds
    (_least_candidates). Naturality and the Galois laws are the caller's to
    check."""
    maps = {}
    for u in F.frame.elements:
        xs, at = F.carrier(u), G.sheaf.at[u]
        table, report = _least_candidates(F.poset(u), G.poset(u), [at[alpha(u, x)] for x in xs])
        if table is None:
            return None, {"open": u, "section": G.label(u, report.witness["element"])}
        maps[u] = dict(zip(G.carrier(u), map(xs.__getitem__, table)))
    return SheafMorphism(G.sheaf, F.sheaf, maps), None


def _morphism_left_adjoint(alpha: SheafMorphism, F: PoSheaf, G: PoSheaf) -> SheafMorphism | None:
    """Left adjoint of a posheaf morphism: per-open minimum construction, then
    naturality and the Galois laws; None when any step fails."""
    candidate, _ = _least_preimages(alpha, F, G)
    if candidate is None or not verify_morphism(candidate).passed or not verify_galois(candidate, alpha, G, F).passed:
        return None
    return candidate


def _semilattice_gap(F: PoSheaf) -> dict | None:
    """The per-open form of finite sup-completeness, its first failure: the
    first open without a bottom or a binary join (_lattice_gap's witness),
    else the first restriction v < u not preserving bottom or a binary
    join, else None. Once every open is a join-semilattice with bottom the
    restrictions are read at the lower covers (FiniteFrame.first_failing_pair):
    restriction composes, and maps between join-semilattices that keep the
    bottom and binary joins compose."""
    frame = F.frame
    gap = next(filter(None, (_lattice_gap(F, u, meets=False) for u in frame.elements)), None)
    if gap:
        return gap
    failure = frame.first_failing_pair(
        lambda u, v: _bound_failure(MonotoneMap(F.poset(u), F.poset(v), F.sheaf.res[(u, v)]), "join")
    )
    if failure is None:
        return None
    u, v, bad = failure
    if bad["subset"]:
        return {"restriction": [u, v], "pair": [F.label(u, x) for x in bad["subset"]]}
    return {"restriction": [u, v], "not": "bottom-preserving"}


@timed
def check_finite_completeness(F: PoSheaf, mode: str = "both") -> CheckReport:
    """Adjoint-existence form (adjoints of F → 1 and of the diagonal) against
    the per-open semilattice form; agreement asserted. mode: sup | inf | both."""
    verify_posheaf(F).require()
    frame = F.frame
    one = discrete(terminal(frame))
    bang = SheafMorphism(F.sheaf, one.sheaf, {u: {x: "*" for x in F.carrier(u)} for u in frame.elements})
    FF = product_posheaf(F, F)
    diag = SheafMorphism(
        F.sheaf, FF.sheaf, {u: {x: (x, x) for x in F.carrier(u)} for u in frame.elements}
    )

    reports = []
    if mode in ("sup", "both"):
        adj = _morphism_left_adjoint(bang, F, one) is not None and _morphism_left_adjoint(diag, F, FF) is not None
        wit = _semilattice_gap(F)
        open_ok = wit is None
        reports.append(
            _three_way("finite_sup_complete", [("adjoint_form", adj, None), ("per_open_form", open_ok, wit)])
        )
    if mode in ("inf", "both"):
        op_report = check_finite_completeness(F.opposite(), mode="sup")
        reports.append(
            CheckReport(
                "finite_inf_complete",
                op_report.passed,
                witness=op_report.witness,
                subreports=op_report.subreports,
            )
        )
    return CheckReport.combine(f"finite_complete[{mode}]", reports)


def _meet_subsheaf(F: PoSheaf, u, x, S: SubSheaf) -> SubSheaf:
    """μ(x, S) for x ∈ F(u) and S ∈ Sub(F^u): the subsheaf generated by the
    meets x|_v ∧ y, y ∈ S(v), at each open v ≤ u, read by position on the
    lattices F(v) of a complete posheaf."""
    P, a, bits = F.sheaf, F.sheaf.at[u][x], 0
    for v in F.frame.down(u):
        poset = F.poset(v)
        below_xv = poset.down_rows[P.res_at[u, v][a]]
        for k in _bits(S._mask(v)):
            bits |= 1 << (P.base[v] + poset.greatest_index(below_xv & poset.down_rows[k]))
    return generate_subsheaf(P, SubSheaf.of_bits(P, bits), require_closed=False).clip(u)


def is_frame_sheaf(F: PoSheaf, *, budget: Budget | None = None) -> CheckReport:
    """The defining square, sup μ(x, S) = x ∧ sup S for S ∈ Sub(F^u), versus
    the per-open frame + Frobenius form, which implies it on a complete
    posheaf: both sides preserve joins in Sub(F^u), every S is a join of
    principal subsheaves ⟨(v, y)⟩ with sup l_{v→u}(y), and μ(x, ⟨(v, y)⟩) =
    ⟨(v, x|_v ∧ y)⟩ since restrictions preserve meets. So the square holds
    iff Frobenius, l_{v→u}(x|_v ∧ y) = x ∧ l_{v→u}(y) for v ≤ u, holds and
    each F(u) is distributive (the square on ⟨(u, y1)⟩ ∨ ⟨(u, y2)⟩). When
    the form passes, so does definition_square; only a reject scans the
    square over Sub(F^u) open by open (_definition_square_gap), to name its
    witness.

    The "power sheaf subsheaves" meter ticks only at the members of ℙF
    that the reject scan builds: a pass builds none and ticks nothing.
    Neither path builds ℙF, F × ℙF or μ. Computed once per posheaf
    (report.once), the meter's count kept with the report."""
    cert = is_complete(F, budget=budget)
    if not cert.passed:
        raise NotComplete("frame sheaf check needs a complete posheaf", report=cert.report())
    return once(F, "_frame_sheaf", _power_meter(budget), lambda m: _is_frame_sheaf_fresh(F, m))


@timed
def _is_frame_sheaf_fresh(F: PoSheaf, meter: BudgetMeter) -> CheckReport:
    """Runs the Frobenius form, and the square on meter when it fails."""
    heyting_wit = _frobenius_gap(F)
    square_wit = None if heyting_wit is None else _definition_square_gap(F, meter)
    return _three_way(
        "frame_sheaf",
        [("definition_square", square_wit is None, square_wit), ("heyting_frobenius", heyting_wit is None, heyting_wit)],
    )


def _frobenius_gap(F: PoSheaf) -> dict | None:
    """The heyting_frobenius form on a complete posheaf: the first open whose
    F(u) is not a frame, with its law and witness; else the first v < u,
    x ∈ F(u) and y ∈ F(v) with x ∧ l_{v→u}(y) ≠ l_{v→u}(x|_v ∧ y); else None."""
    frame = F.frame
    lattices = {u: FiniteFrame(F.poset(u)) for u in frame.elements}
    for u, lattice in lattices.items():
        rep = lattice.verify()
        if not rep.passed:
            return {"open": u, "law": rep.name, "witness": rep.witness}
    for u in frame.elements:
        xs = F.carrier(u)
        for v in frame.down(u):
            if v == u:
                continue
            l_vu, ys, at = _left_adjoint_table(F, u, v), F.carrier(v), F.sheaf.at[v]
            for x, b in zip(xs, F.sheaf.res_at[u, v]):
                for y, a in zip(ys, l_vu):
                    lhs = lattices[u].meet(x, xs[a])
                    rhs = xs[l_vu[at[lattices[v].meet(ys[b], y)]]]
                    if lhs != rhs:
                        return {
                            "opens": [u, v],
                            "sections": [F.label(u, x), F.label(v, y)],
                            "meet_then_adjoint": F.label(u, rhs),
                            "adjoint_then_meet": F.label(u, lhs),
                        }
    return None


def _definition_square_gap(F: PoSheaf, meter: BudgetMeter) -> dict | None:
    """The exhaustive square, open by open over Sub(F^u), its members built
    on meter: the first open u, x ∈ F(u) and S ∈ Sub(F^u) with sup μ(x, S)
    ≠ x ∧ sup S, or None."""
    members = _power_members(F.sheaf, meter)
    for u in F.frame.elements:
        sups = [sup_in_open(F, S, u) for S in members[u]]
        for x in F.carrier(u):
            for S, sup in zip(members[u], sups):
                lhs = sup_in_open(F, _meet_subsheaf(F, u, x, S), u)
                rhs = F.poset(u).meet(x, sup)
                if lhs != rhs:
                    return {
                        "open": u,
                        "section": F.label(u, x),
                        "subsheaf": S.describe(),
                        "sup_of_meets": F.label(u, lhs),
                        "meet_of_sup": F.label(u, rhs),
                    }
    return None


def _finite_meets_gap(alpha: SheafMorphism, F: PoSheaf, G: PoSheaf, u) -> dict | None:
    """None when F(u) is a lattice and α_u keeps its top and binary meets,
    else _lattice_gap's witness or the first top or pair α_u does not keep."""
    gap = _lattice_gap(F, u)
    if gap:
        return gap
    bad = _bound_failure(MonotoneMap(F.poset(u), G.poset(u), alpha.maps[u]), "meet")
    if bad is None:
        return None
    if not bad["subset"]:
        return {"open": u, "not": "top-preserving"}
    return {
        "open": u,
        "pair": [F.label(u, x) for x in bad["subset"]],
        "alpha_of_meet": G.label(u, bad["got"]),
        "meet_of_alphas": G.label(u, bad["expected"]),
    }


@timed
def verify_frame_morphism(
    alpha: SheafMorphism, F: PoSheaf, G: PoSheaf, *, budget: Budget | None = None
) -> CheckReport:
    """Sup-preserving plus finite-meet preservation (binary meet square and
    tops), cross-checked against per-open frame homomorphisms with commuting
    left-adjoint squares."""
    budget = budget or Budget()
    sup_rep = verify_sup_preserving(alpha, F, G, budget=budget)
    if sup_rep.name == "sup_preserving" and sup_rep.details.get("stage") == "order_preserving":
        return sup_rep

    meets_wit = next(filter(None, (_finite_meets_gap(alpha, F, G, u) for u in F.frame.elements)), None)
    meets_ok = meets_wit is None
    path_a = sup_rep.passed and meets_ok

    hom_ok, hom_wit = True, None
    for u in F.frame.elements:
        gap = _lattice_gap(F, u) or _lattice_gap(G, u)
        if gap:
            hom_ok, hom_wit = False, gap
            break
        hom = FrameHom(FiniteFrame(F.poset(u)), FiniteFrame(G.poset(u)), alpha.maps[u])
        rep = verify_frame_hom(hom)
        if not rep.passed:
            hom_ok, hom_wit = False, {"open": u, "law": rep.name, "witness": rep.witness}
            break
    if hom_ok:
        for u in F.frame.elements:
            gap = _adjoint_square_gap(alpha, F, G, u)
            if gap:
                hom_ok, hom_wit = False, {"square": gap["square"], "section": gap["section"]}
                break

    forms = _three_way(
        "frame_morphism",
        [
            ("sup_and_meets", path_a, meets_wit if not meets_ok else (sup_rep.witness if not sup_rep.passed else None)),
            ("per_open_frame_hom", hom_ok, hom_wit),
        ],
    )
    forms.subreports.insert(0, sup_rep)
    forms.subreports.insert(
        1, CheckReport("frame_morphism.finite_meets", meets_ok, witness=meets_wit)
    )
    return forms
