"""Seeded instance generation for the property-test corpus: random frames as
downset lattices, sheaves built from stalks on the join-irreducibles, sampled
orders repaired to the patching laws, natural endomorphisms, and targeted
mutations that each break exactly one named law."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .frames import FiniteFrame, FinitePoset, _lift, close_rows, downset_frame
from .orders import PoSheaf, omega, pull_up, pull_up_sources, verify_posheaf
from .report import MalformedInput, RepairFailed
from .sheaves import Presheaf, SheafMorphism, verify_morphism, verify_sheaf

MUTATION_KINDS = (
    "break-POS3",
    "break-naturality",
    "break-distributivity",
    "remove-amalgamation",
    "break-meet-square",
)


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_opens: int = 6
    max_carrier: int = 3
    mutation: str | None = None

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{salt}:{self.seed}:{self.max_opens}:{self.max_carrier}")


def gen_frame(cfg: GenConfig) -> FiniteFrame:
    """A downset lattice of a random small poset: always a distributive
    lattice, hence a valid frame; deterministic per config."""
    if cfg.max_opens < 1:
        raise MalformedInput("max_opens must be at least 1")
    rng = cfg.rng("frame")
    for _ in range(300):
        k = rng.randint(0, 3)
        rel = [(i, j) for i in range(k) for j in range(k) if i != j and rng.random() < 0.4]
        # force a partial order by keeping only i<j edges, then closing the
        # down rows: bit i of below[j] says i ≤ j
        below = [1 << j for j in range(k)]
        for i, j in rel:
            if i < j:
                below[j] |= 1 << i
        close_rows(below)
        downsets = [mask for mask in range(1 << k) if all(below[j] & ~mask == 0 for j in range(k) if mask >> j & 1)]
        if not 1 <= len(downsets) <= cfg.max_opens:
            continue
        downsets.sort(key=lambda d: (d.bit_count(), [j for j in range(k) if d >> j & 1]))
        return downset_frame([f"o{i}" for i in range(len(downsets))], downsets, below)
    raise RepairFailed(f"no frame of at most {cfg.max_opens} opens found for seed {cfg.seed}")


def _merge_germs(combo) -> dict | None:
    """The union of the germs' value assignments, or None when two of them
    give one irreducible different values."""
    merged: dict = {}
    for germ in combo:
        for key, val in germ:
            if merged.get(key, val) != val:
                return None
            merged[key] = val
    return merged


def _stalks(X: FiniteFrame, cfg: GenConfig, rng: random.Random) -> dict:
    """Germ tables on the join-irreducible subposet: each germ is a coherent
    value assignment on the irreducibles below its home, so restriction is
    plain sub-dict extraction and functoriality is automatic."""
    J = X.join_irreducibles_by_height()
    values = list(range(cfg.max_carrier + 1))
    stalks: dict = {}
    for j in J:
        lower = [j2 for j2 in J if X.leq(j2, j) and j2 != j]
        maximal_lower = [j2 for j2 in lower if not any(X.poset.lt(j2, j3) for j3 in lower)]
        bases = []
        if maximal_lower:
            for combo in itertools.product(*(stalks[j2] for j2 in maximal_lower)):
                merged = _merge_germs(combo)
                if merged is not None:
                    bases.append(merged)
            if not bases:
                stalks[j] = []
                continue
        else:
            bases = [{}]
        candidates = []
        for base in bases:
            for v in values:
                germ = dict(base)
                germ[j] = v
                candidates.append(tuple(sorted(germ.items())))
        candidates = sorted(set(candidates))
        size = min(len(candidates), rng.randint(1, cfg.max_carrier))
        stalks[j] = sorted(rng.sample(candidates, size))
    return stalks


def gen_sheaf(X: FiniteFrame, cfg: GenConfig) -> Presheaf:
    """Carriers at join-irreducibles, completed to every open by compatible
    families; the sheaf axiom holds by construction and is re-verified."""
    if cfg.max_carrier < 1:
        raise MalformedInput("max_carrier must be at least 1")
    rng = cfg.rng("sheaf")
    J = X.join_irreducibles_by_height()
    stalks = _stalks(X, cfg, rng)

    def families(u):
        lower = [j for j in J if X.leq(j, u)]
        maximal = [j for j in lower if not any(X.poset.lt(j, j2) for j2 in lower)]
        if not maximal:
            return [tuple()]
        out = []
        for combo in itertools.product(*(stalks[j] for j in maximal)):
            merged = _merge_germs(combo)
            if merged is not None:
                out.append(tuple(sorted(merged.items())))
        return sorted(set(out))

    raw_carriers = {u: families(u) for u in X.elements}
    # keep composite carriers at desk scale: trim the largest stalk until the
    # biggest product of stalks stays small
    while max(len(c) for c in raw_carriers.values()) > 12:
        largest = max(
            (j for j in stalks if len(stalks[j]) > 1),
            key=lambda j: (len(stalks[j]), X.index[j]),
            default=None,
        )
        if largest is None:
            break
        stalks[largest] = stalks[largest][:-1]
        # drop the germs built on the dropped one, lowest first, so that
        # every family restricts to a family
        for j in J:
            stalks[j] = [g for g in stalks[j] if all(tuple(kv for kv in g if X.leq(kv[0], i)) in stalks[i] for i in J if X.poset.lt(i, j))]
        raw_carriers = {u: families(u) for u in X.elements}
    family = {u: {f"e{i}": fam for i, fam in enumerate(raw_carriers[u])} for u in X.elements}
    labels = {u: {fam: x for x, fam in family[u].items()} for u in X.elements}

    def restrict(u, x, v):
        # a family is sorted by join-irreducible, so its part below v is too
        return labels[v][tuple((j, val) for j, val in family[u][x] if X.leq(j, v))]

    sheaf = Presheaf.of(X, {u: tuple(family[u]) for u in X.elements}, restrict)
    cert = verify_sheaf(sheaf)
    if not cert.passed:
        raise RepairFailed(f"generated carrier system violated the sheaf axiom: {cert.witness}")
    return sheaf


def _order_posets(F: Presheaf, orders: dict) -> dict:
    """The least relation holding the sampled pairs that is reflexive,
    transitive, closed under restriction and under patching over every
    cover, as one FinitePoset per open over its carrier. It is the least
    fixpoint, on up rows (bit k of the row of s at u: s ≤ carriers[u][k]),
    of three rules: transitivity (close_rows); push-down, where the image
    under res[u, v] of the row of x joins the row of x|_v, at every v < u;
    and pull-up at the opens u outside J, where the row of s gains the AND
    over j in J↓u of the preimage under res[u, j] of the row of s|_j
    (orders.pull_up; at ⊥, where J↓⊥ is empty, the full carrier mask).

    On a presheaf over a frame (restriction composes; gen_sheaf verifies
    its sheaf) the two least fixpoints are equal. Each rule here is an
    instance of a rule there, as J↓u covers u. Conversely, at a fixpoint of
    these rules the opens v ≤ u with s|_v ≤ t|_v form a down-set D: push-down
    from v gives (s|_v)|_w ≤ (t|_v)|_w, which is s|_w ≤ t|_w, at each w ≤ v.
    If D joins to u, each j in J↓u is join-prime, so it lies below a member
    of D and is in D; so s ≤ t at u by pull-up if u is outside J, and since
    u is in D if u is in J. So the fixpoint is closed under patching over
    every cover."""
    frame, carriers, at = F.frame, F.carriers, F.at
    rows = {u: [1 << k for k in range(len(carriers[u]))] for u in frame.elements}
    for u in frame.elements:
        for x, y in orders.get(u, ()):
            rows[u][at[u][x]] |= 1 << at[u][y]
    # top down, so that the rows above u are final for a sweep once u is
    # reached: one sweep closes under transitivity and push-down
    opens = sorted(frame.elements, key=lambda u: -len(frame.down(u)))
    irreducible = set(frame.join_irreducibles())
    # pushes[u] holds, for each v < u, the rows at v, the position at v of
    # each x|_v, and bit of x -> bit of x|_v; pulls, for each u outside J,
    # the rows at u, pull-up's tables at u (pull_up_sources) and the full mask
    pushes = {u: [] for u in opens}
    for u in opens:
        for v in frame.down(u):
            if v != u:
                down = F.res_at[u, v]
                pushes[u].append((rows[v], down, {1 << k: 1 << b for k, b in enumerate(down)}))
    pulls = [(rows[u], pull_up_sources(F, u, rows), (1 << len(carriers[u])) - 1) for u in opens if u not in irreducible]
    while True:
        for u in opens:
            row = close_rows(rows[u])
            for a, r in enumerate(row):
                r &= ~(1 << a)
                if r:
                    for target, down, image in pushes[u]:
                        target[down[a]] |= _lift(r, image)
        # the pull-up reads only rows at J, and leaves them as they are
        grew = False
        for row, sources, full in pulls:
            for s, r in enumerate(row):
                gained = pull_up(full & ~r, s, sources)
                if gained:
                    row[s] = r | gained
                    grew = True
        if not grew:
            return {u: FinitePoset.from_rows(carriers[u], rows[u]) for u in frame.elements}


def _sampled_orders(sheaf: Presheaf, cfg: GenConfig, attempt: int) -> dict:
    """The order pairs gen_posheaf draws at one attempt: each pair in a
    random ranking of each carrier, with density 0.35·0.7^attempt."""
    rng = cfg.rng(f"orders:{attempt}")
    density = 0.35 * (0.7 ** attempt)
    sampled = {}
    for u in sheaf.frame.elements:
        ranked = list(sheaf.carriers[u])
        rng.shuffle(ranked)
        rank = {x: i for i, x in enumerate(ranked)}
        sampled[u] = [
            (x, y)
            for x in sheaf.carriers[u]
            for y in sheaf.carriers[u]
            if x != y and rank[x] < rank[y] and rng.random() < density
        ]
    return sampled


def gen_posheaf(X: FiniteFrame, cfg: GenConfig) -> PoSheaf:
    """A verified posheaf: sampled per-open orders repaired by closure, with
    deterministic resampling when antisymmetry cannot be repaired."""
    sheaf = gen_sheaf(X, cfg)
    for attempt in range(30):
        posets = _order_posets(sheaf, _sampled_orders(sheaf, cfg, attempt))
        # the closure is transitive, so a broken law is a cycle: ↑x ∩ ↓x ≠ {x}
        if any(poset.broken_laws for poset in posets.values()):
            continue
        F = PoSheaf(sheaf, posets)
        report = verify_posheaf(F)
        if report.passed:
            return F
    raise RepairFailed(f"order repair failed for seed {cfg.seed}")


def gen_endomorphism(F: PoSheaf, cfg: GenConfig, *, cap: int = 400) -> SheafMorphism:
    """A natural endomorphism of the underlying sheaf, sampled uniformly from
    a deterministic enumeration (capped)."""
    rng = cfg.rng("endo")
    sheaf = F.sheaf
    frame = F.frame
    # bottom-up over opens, element by element: every naturality constraint
    # looks only downward, at values already assigned
    opens = sorted(frame.elements, key=lambda u: (len(frame.down(u)), frame.index[u]))
    pairs = [(u, x) for u in opens for x in sheaf.carriers[u]]
    found: list[dict] = []
    _natural_tables(sheaf, pairs, {}, found, cap)
    chosen = rng.choice(found)
    alpha = SheafMorphism(sheaf, sheaf, chosen)
    if not verify_morphism(alpha).passed:
        raise RepairFailed("enumerated endomorphism failed naturality")
    return alpha


def _natural_tables(sheaf: Presheaf, pairs: list, assigned: dict, found: list, cap: int) -> None:
    """Append to found, until it holds cap, every natural table extending
    assigned, the images of the first len(assigned) pairs."""
    if len(found) >= cap:
        return
    frame = sheaf.frame
    if len(assigned) == len(pairs):
        found.append({u: {x: y for (w, x), y in assigned.items() if w == u} for u in frame.elements})
        return
    u, x = pairs[len(assigned)]
    for y in sheaf.carriers[u]:
        if all(
            sheaf.restrict(u, y, v) == assigned[(v, sheaf.restrict(u, x, v))]
            for v in frame.down(u)
            if v != u
        ):
            assigned[(u, x)] = y
            _natural_tables(sheaf, pairs, assigned, found, cap)
            del assigned[(u, x)]


def gen_frame_morphism(X: FiniteFrame, cfg: GenConfig) -> tuple[PoSheaf, SheafMorphism]:
    """A frame-sheaf endomorphism fixture: the identity on the subobject
    classifier of a generated frame (mutation target for the meet square)."""
    Om = omega(X)
    return Om, SheafMorphism.identity(Om.sheaf)


def _pentagon(names: list[str]) -> FinitePoset:
    """N5 on the names: a lattice that is not distributive, so no frame."""
    a, b, c, d, e = names
    return FinitePoset(names, [(a, b), (b, d), (d, e), (a, c), (c, e)])


def _morphism_pair(instance) -> bool:
    if not (isinstance(instance, tuple) and len(instance) == 2):
        return False
    return isinstance(instance[0], PoSheaf) and isinstance(instance[1], SheafMorphism)


# the instances each kind applies to: a test and its description
_MUTATION_TARGETS = {
    "break-distributivity": (lambda i: isinstance(i, FiniteFrame), "frames"),
    "break-POS3": (lambda i: isinstance(i, PoSheaf), "posheaves"),
    "remove-amalgamation": (lambda i: isinstance(i, (PoSheaf, Presheaf)), "posheaves and presheaves"),
    "break-naturality": (_morphism_pair, "(posheaf, morphism) pairs"),
    "break-meet-square": (_morphism_pair, "(omega, morphism) pairs"),
}


def mutate(instance, kind: str, cfg: GenConfig | None = None):
    """Inject exactly one named violation; the mutant fails its targeted check
    and nothing earlier (verified before returning). An instance of a shape
    the kind does not apply to is malformed input."""
    cfg = cfg or GenConfig(seed=0)
    if kind not in MUTATION_KINDS:
        raise MalformedInput(f"unknown mutation kind {kind!r}")
    applies, targets = _MUTATION_TARGETS[kind]
    if not applies(instance):
        raise MalformedInput(f"{kind} applies to {targets}")
    if kind == "break-distributivity":
        base = [str(x) for x in instance.elements][:5]
        while len(base) < 5:
            base.append(f"n{len(base)}")
        if len(set(base)) < 5:
            base = [f"n{i}" for i in range(5)]
        return _pentagon(base)
    if kind == "break-POS3":
        return _mutate_break_pos3(instance)
    if kind == "remove-amalgamation":
        return _mutate_remove_amalgamation(instance)
    if kind == "break-naturality":
        return _mutate_break_naturality(instance)
    return _mutate_break_meet_square(instance, cfg)


def _proper_cover_exists(frame: FiniteFrame, u, opens) -> bool:
    """Whether u has a proper cover (nonempty, without u) drawn from the
    given opens below u: exactly when those opens other than u are nonempty
    and join to u, as any such cover lies among them."""
    proper = [v for v in opens if v != u]
    return bool(proper) and frame.join_all(proper) == u


def _mutate_break_pos3(F: PoSheaf) -> PoSheaf:
    frame = F.frame
    for u in frame.elements:
        if not _proper_cover_exists(frame, u, frame.down(u)):
            continue
        for (s, t) in F.sorted_pairs(u):
            if s == t:
                continue
            # must be a covering pair of the order at u: no strict intermediate
            if any(
                m not in (s, t) and F.leq(u, s, m) and F.leq(u, m, t) for m in F.carrier(u)
            ):
                continue
            # some proper cover must witness the patching premise
            related = [
                v for v in frame.down(u) if F.leq(v, F.sheaf.restrict(u, s, v), F.sheaf.restrict(u, t, v))
            ]
            if not _proper_cover_exists(frame, u, related):
                continue
            # no higher pair may restrict onto (s, t), or POS2 would break first
            if any(
                F.sheaf.restrict(w, a, u) == s and F.sheaf.restrict(w, b, u) == t
                for w in frame.up(u)
                if w != u
                for (a, b) in F.sorted_pairs(w)
            ):
                continue
            orders = {v: F.sorted_pairs(v) for v in frame.elements}
            orders[u].remove((s, t))
            mutant = PoSheaf(F.sheaf, orders)
            report = verify_posheaf(mutant)
            by_name = {r.name: r for r in report.subreports}
            if (
                not report.passed
                and by_name["posheaf.POS1"].passed
                and by_name["posheaf.POS2"].passed
                and not by_name["posheaf.POS3"].passed
            ):
                return mutant
    raise RepairFailed("no POS3-breakable pair found")


def _mutate_remove_amalgamation(instance) -> object:
    F = instance if isinstance(instance, PoSheaf) else None
    sheaf = F.sheaf if F is not None else instance
    frame = sheaf.frame
    top = frame.top
    if not _proper_cover_exists(frame, top, frame.down(top)):
        raise RepairFailed("the top open has no proper cover")
    for x in sheaf.carriers[top]:
        carriers = {**sheaf.carriers, top: tuple(y for y in sheaf.carriers[top] if y != x)}
        mutant_sheaf = Presheaf.of(frame, carriers, sheaf.restrict)
        if not mutant_sheaf.verify().passed:
            continue
        cert = verify_sheaf(mutant_sheaf)
        if cert.passed or cert.witness.get("amalgamations") != 0:
            continue
        if F is None:
            return mutant_sheaf
        return PoSheaf.of(mutant_sheaf, F.leq)
    raise RepairFailed("no removable amalgamation at the top open")


def _mutate_break_naturality(instance) -> SheafMorphism:
    F, alpha = instance
    sheaf = alpha.source
    frame = sheaf.frame
    for u in frame.elements:
        if frame.down(u) == (u,):
            continue
        table = alpha.at[u]
        for a in range(len(table)):
            for b in range(len(alpha.target.carriers[u])):
                if b == table[a]:
                    continue
                mutant = SheafMorphism.from_tables(sheaf, alpha.target, {**alpha.at, u: table[:a] + (b,) + table[a + 1:]})
                if not verify_morphism(mutant).passed:
                    return mutant
    raise RepairFailed("no naturality-breaking redirection found")


def _mutate_break_meet_square(instance, cfg: GenConfig) -> tuple[PoSheaf, SheafMorphism]:
    Om, _ = instance
    frame = Om.frame
    rng = cfg.rng("meet-square")
    candidates = [c for c in frame.elements if c != frame.top]
    if not candidates:
        raise RepairFailed("one-element frame has no meet-square breaker")
    # x ↦ x ∧ c maps each Ω(u), the opens below u, into itself
    if any(set(Om.carrier(u)) != set(frame.down(u)) for u in frame.elements):
        raise MalformedInput("break-meet-square applies to (omega, morphism) pairs, whose sections over u are the opens below u")
    c = rng.choice(sorted(candidates, key=frame.index.__getitem__))
    return Om, SheafMorphism.of(Om.sheaf, Om.sheaf, lambda u, w: frame.meet(w, c))
