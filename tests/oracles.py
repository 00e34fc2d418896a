"""Exhaustive definitions, kept as test oracles for the finite-lattice
reductions in the package: every cover of an open (each subset of its downset
that joins to it), amalgamations found by scanning the carrier, and the
gluing, subsheaf, patching, closure and downward-closure checks quantified
over every cover; Sub and Dow by next-closure over that closure; least and
greatest elements as the one minimal or maximal member; join and meet
preservation over every subset; the point-order bounds of a subsheaf one pair
at a time. They are slow (2^|↓u| covers per open) and live here so that no
package module can fall back to them."""
from __future__ import annotations

from posheaf.orders import PoSheaf, point_leq_bool
from posheaf.report import Budget, BudgetMeter, CheckReport
from posheaf.sheaves import SubSheaf, compatible_families, enumerate_points, verify_restriction_closed


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
    entries = []
    for u in P.frame.elements:
        for cover in covers(P.frame, u):
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


def verify_subsheaf(S: SubSheaf) -> CheckReport:
    """Restriction-closed, and closed under amalgamation over every cover."""
    rc = verify_restriction_closed(S)
    if not rc.passed:
        return CheckReport.fail("subsheaf", rc.witness, reason="restriction")
    P = S.parent
    for u in P.frame.elements:
        for cover in covers(P.frame, u):
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
