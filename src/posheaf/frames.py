"""Finite frames (lattices of opens), frame homomorphisms, and adjoint
computation on finite posets. A frame is read as the down-sets of its
join-irreducibles (Birkhoff): one bitmask per open answers its order, joins,
meets and Heyting implications.

Everything downstream consumes these: opens are identified by user-supplied
strings, iteration order is the input order, and all values are immutable
after construction.
"""
from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Sequence

from .report import (
    CheckReport,
    DomainMismatch,
    MalformedInput,
    NotAPoset,
    NotALattice,
    NotDistributive,
    NotMonotone,
    timed,
)


class lazy:
    """functools.cached_property without its lock and without its write to
    the instance __dict__, which on CPython 3.11 makes every later
    attribute read of the object take the slower dictionary path: the
    value is computed on the first read and stored with setattr, where
    later reads find it, since this is a non-data descriptor."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        setattr(obj, self.name, value)
        return value


def _bits(row: int):
    """The positions of the set bits of row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def close_rows(rows: list) -> list:
    """Close bit rows transitively, in place, and return them: Warshall's
    pass, where step k joins row k into every row that holds bit k. Row i
    then holds bit m iff m is reachable from i through the bits of the
    rows."""
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


def _lift(row: int, table: dict) -> int:
    """The OR of table[bit] over the set bits of row."""
    out = 0
    while row:
        low = row & -row
        out |= table[low]
        row ^= low
    return out


def _least(mask: int, ups: list, downs: list, first: int) -> int | None:
    """FinitePoset.least_index on the rows given, trying position first."""
    if mask and not mask & ~ups[first] and mask & downs[first] == 1 << first:
        return first
    common = mask
    for k in _bits(mask):
        common &= downs[k]
    if not common or common & (common - 1):
        return None
    i = common.bit_length() - 1
    return i if mask & downs[i] == common else None


class FinitePoset:
    """A finite relation read as a partial order; element iteration order is
    the construction order. Each element x = elements[i] has two bit rows,
    up_rows[i] for ↑x and down_rows[i] for ↓x, with bit k standing for
    elements[k]: the reading of a finite order by its principal down-sets
    (Davey & Priestley, Introduction to Lattices and Order, 2nd ed., ch. 1).
    Every operation and verify read the rows; the frozenset views pairs(),
    up() and down() are built only when a reader asks for them. The rows
    hold whatever relation was given, closed reflexively (and transitively
    unless ``closed``), so the operations answer on cyclic and
    non-transitive relations too, as the definitions below say."""

    def __init__(self, elements: Sequence[Hashable], leq_pairs: Iterable[tuple], *, closed: bool = False):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise MalformedInput("duplicate elements")
        ups = [1 << i for i in range(len(elements))]
        downs = list(ups)
        for lo, hi in leq_pairs:
            i, k = index.get(lo), index.get(hi)
            if i is None or k is None:
                raise MalformedInput(f"relation mentions unknown element: {(lo, hi)!r}")
            ups[i] |= 1 << k
            downs[k] |= 1 << i
        if not closed:
            close_rows(ups)
            close_rows(downs)
        self.elements, self.index, self.up_rows, self.down_rows = elements, index, ups, downs

    @classmethod
    def from_rows(cls, elements: Sequence[Hashable], ups: list, downs: list | None = None, index: dict | None = None) -> "FinitePoset":
        """The relation over distinct elements whose rows are given, as they
        are: each up_rows[i] must hold bit i, and downs, when given, must be
        the transpose of ups; by default it is built as that transpose.
        index, when given, must be element -> position, as a presheaf's
        at[u] is for its carrier, and is kept as it is."""
        if downs is None:
            downs = [0] * len(ups)
            for i, row in enumerate(ups):
                bit = 1 << i
                while row:
                    low = row & -row
                    downs[low.bit_length() - 1] |= bit
                    row ^= low
        poset = cls.__new__(cls)
        poset.elements, poset.up_rows, poset.down_rows = tuple(elements), ups, downs
        poset.index = {x: i for i, x in enumerate(poset.elements)} if index is None else index
        return poset

    def __contains__(self, x) -> bool:
        return x in self.index

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x, y) -> bool:
        i, k = self.index.get(x), self.index.get(y)
        return i is not None and k is not None and bool(self.up_rows[i] >> k & 1)

    def lt(self, x, y) -> bool:
        return x != y and self.leq(x, y)

    def mask(self, xs: Iterable) -> int:
        """The bit row of a subset of the elements."""
        index, out = self.index, 0
        for x in xs:
            out |= 1 << index[x]
        return out

    def members(self, row: int) -> list:
        """The elements of a bit row, in element order."""
        elements = self.elements
        return [elements[k] for k in _bits(row)]

    @lazy
    def _pairs(self) -> frozenset:
        elements = self.elements
        return frozenset((x, elements[k]) for x, row in zip(elements, self.up_rows) for k in _bits(row))

    def pairs(self) -> frozenset:
        return self._pairs

    @lazy
    def _views(self) -> tuple[dict, dict]:
        """(x -> ↑x, x -> ↓x) as frozensets, each filled in element order."""
        members = self.members
        return (
            {x: frozenset(members(row)) for x, row in zip(self.elements, self.up_rows)},
            {x: frozenset(members(row)) for x, row in zip(self.elements, self.down_rows)},
        )

    def up(self, x) -> frozenset:
        return self._views[0][x]

    def down(self, x) -> frozenset:
        return self._views[1][x]

    def sorted(self, xs: Iterable) -> list:
        return sorted(xs, key=self.index.__getitem__)

    def opposite(self) -> "FinitePoset":
        return FinitePoset.from_rows(self.elements, self.down_rows, self.up_rows, self.index)

    def minimal(self, subset: Iterable) -> list:
        xs = self.sorted(subset)
        mask, index, downs = self.mask(xs), self.index, self.down_rows
        return [m for m in xs if not mask & downs[index[m]] & ~(1 << index[m])]

    def upper_rows(self, image: Sequence[int]) -> list:
        """For each position b, the bit row over the a with b ≤ image[a], a
        position here: the OR, over the members t of ↑b, of the a with
        image[a] = t."""
        at = [0] * len(self.elements)
        for a, t in enumerate(image):
            at[t] |= 1 << a
        out = []
        for row in self.up_rows:
            found = 0
            for t in _bits(row):
                found |= at[t]
            out.append(found)
        return out

    def _at(self, i: int | None):
        return None if i is None else self.elements[i]

    def least_index(self, mask: int) -> int | None:
        """The position of the member x of the bit row mask below every
        member and above no other member, or None. Such an x is the only
        bit left in the mask ANDed with every member's down row: two bits
        left there lie below each other, and then neither qualifies. On any
        reflexive relation, transitive or not, x is then the only minimal
        member. The lowest member, the answer when the elements are listed
        along the order, is tried first."""
        return _least(mask, self.up_rows, self.down_rows, (mask & -mask).bit_length() - 1)

    def greatest_index(self, mask: int) -> int | None:
        """The dual of least_index, trying the highest member first."""
        return _least(mask, self.down_rows, self.up_rows, mask.bit_length() - 1)

    def least(self, subset: Iterable):
        """The x in subset below every member and above no other member, or
        None (least_index)."""
        return self._at(self.least_index(self.mask(subset)))

    def greatest(self, subset: Iterable):
        """The dual of least."""
        return self._at(self.greatest_index(self.mask(subset)))

    def join(self, x, y):
        ups, index = self.up_rows, self.index
        return self._at(self.least_index(ups[index[x]] & ups[index[y]]))

    def meet(self, x, y):
        downs, index = self.down_rows, self.index
        return self._at(self.greatest_index(downs[index[x]] & downs[index[y]]))

    def join_all(self, xs: Iterable):
        """Least upper bound of a subset; for the empty set, the global bottom."""
        ups, index = self.up_rows, self.index
        mask = (1 << len(self.elements)) - 1
        for x in xs:
            mask &= ups[index[x]]
        return self._at(self.least_index(mask))

    def meet_all(self, xs: Iterable):
        downs, index = self.down_rows, self.index
        mask = (1 << len(self.elements)) - 1
        for x in xs:
            mask &= downs[index[x]]
        return self._at(self.greatest_index(mask))

    @lazy
    def bottom(self):
        return self.join_all(())

    @lazy
    def top(self):
        return self.meet_all(())

    @lazy
    def broken_laws(self) -> tuple:
        """The poset laws the relation breaks, of "antisymmetric" and
        "transitive", by one test per row: ↑x ∩ ↓x = {x}, and ↑y ⊆ ↑x for
        each y in ↑x. Every row holds its own bit, so the relation is
        reflexive; the tuple is empty on a partial order."""
        ups, downs = self.up_rows, self.down_rows
        antisymmetric = transitive = True
        for i, row in enumerate(ups):
            antisymmetric = antisymmetric and row & downs[i] == 1 << i
            rest = row if transitive else 0
            while rest:
                low = rest & -rest
                if ups[low.bit_length() - 1] & ~row:
                    transitive = False
                    break
                rest ^= low
        return ("antisymmetric",) * (not antisymmetric) + ("transitive",) * (not transitive)

    @lazy
    def lattice_gap(self) -> tuple | None:
        """None on a lattice, else its first missing bound: ("bottom",),
        ("top",), or (x, y, "join") or (x, y, "meet") for the first pair x
        before y in element order without a join, then a meet. Bounds are
        symmetric and x with x has both on a partial order, so no pair with
        y before x fails first. Kept once per poset, as broken_laws is."""
        return self._bound_gap(meets=True)

    @lazy
    def join_gap(self) -> tuple | None:
        """lattice_gap without the meets: None when the relation has a
        bottom and every binary join, else the missing bottom or the first
        pair without a join."""
        return self._bound_gap(meets=False)

    def _bound_gap(self, meets: bool) -> tuple | None:
        if self.bottom is None:
            return ("bottom",)
        if meets and self.top is None:
            return ("top",)
        elements, ups, downs = self.elements, self.up_rows, self.down_rows
        for i, x in enumerate(elements):
            for k in range(i + 1, len(elements)):
                if self.least_index(ups[i] & ups[k]) is None:
                    return (x, elements[k], "join")
                if meets and self.greatest_index(downs[i] & downs[k]) is None:
                    return (x, elements[k], "meet")
        return None

    def first_cycle(self) -> list | None:
        """The first [x, y], x ≠ y, with x ≤ y ≤ x, x-major in element
        order, or None on an antisymmetric relation."""
        elements, downs = self.elements, self.down_rows
        return next(
            ([elements[i], elements[k]] for i, row in enumerate(self.up_rows) for k in _bits(row & downs[i] & ~(1 << i))),
            None,
        )

    def first_chain(self) -> list | None:
        """The first [x, y, z] with x ≤ y ≤ z and x ≰ z, x-major, then y,
        then z in element order, or None on a transitive relation."""
        elements, ups = self.elements, self.up_rows
        return next(
            ([elements[i], elements[k], elements[m]] for i, row in enumerate(ups) for k in _bits(row) for m in _bits(ups[k] & ~row)),
            None,
        )

    def verify(self) -> CheckReport:
        """Reflexivity (which holds by construction), antisymmetry and
        transitivity, with the first witness found. The verdict is the row
        test broken_laws; only a failure scans the pairs and chains, in
        element order, to name the witness."""
        broken = self.broken_laws
        if not broken:
            return CheckReport.ok("poset")
        if broken[0] == "antisymmetric":
            return CheckReport.fail("poset.antisymmetric", {"cycle": self.first_cycle()})
        return CheckReport.fail("poset.transitive", {"chain": self.first_chain()})


class FiniteFrame:
    """Finite distributive lattice of opens, read through Birkhoff's
    representation: with J the join-irreducibles in
    join_irreducibles_by_height order, each open x is its mask
    m(x) = {j ∈ J : j ≤ x}, an int with bit i for J[i], and x ↦ m(x) is an
    isomorphism onto the down-sets of J ordered by inclusion (Birkhoff,
    "Rings of sets", 1937). So on a frame x ≤ y iff m(x) ⊆ m(y), x ∨ y and
    x ∧ y are the opens of m(x) | m(y) and m(x) & m(y), a join or meet of
    many opens is one OR or AND of their masks and one lookup, and x → y is
    the open of {j : ↓j ∩ m(x) ⊆ m(y)}.

    Build with close_and_verify_frame (or from_relation + verify), or as
    the down-sets of a finite poset with downset_frame. The masks come from
    the Birkhoff test of verify, run on first use; on a relation that fails
    it the operations answer from the FinitePoset rows (None where a bound
    is missing), which verify's reject path reads to name its witness.
    """

    def __init__(self, poset: FinitePoset):
        self.poset = poset
        self.elements = poset.elements
        self.index = poset.index
        self._covers_cache: dict = {}

    @classmethod
    def from_relation(cls, elements: Sequence[str], pairs: Iterable[tuple]) -> "FiniteFrame":
        if not elements:
            raise MalformedInput("elements must be nonempty")
        return cls(FinitePoset(elements, pairs))

    def __contains__(self, x) -> bool:
        return x in self.index

    def __len__(self) -> int:
        return len(self.elements)

    @lazy
    def _birkhoff(self) -> "_Masks | None":
        """The masks when the relation passes Birkhoff's test (verify), else
        None. J and m are read from the poset as it is, so the test needs no
        law to hold first."""
        if not self.elements:
            return None
        ups = self.poset.up_rows
        masks = [0] * len(self.elements)
        for i, j in enumerate(self.join_irreducibles_by_height()):
            for k in _bits(ups[self.index[j]]):
                masks[k] |= 1 << i
        at = dict(zip(masks, self.elements))
        if len(at) < len(masks):
            return None
        rows, _, gap = _inclusion_rows(self.elements, masks, at)
        if gap is not None or rows != ups:
            return None
        return _mask_table(self, masks)

    @property
    def masks(self) -> "_Masks":
        """The Birkhoff masks of a frame, for a kernel that reads its opens
        as bit sets: m(x) of each open (of), the open of each mask (at), and
        m(J[i]) for each bit i (below). A relation that fails verify raises
        its report."""
        self.verify().require()
        return self._birkhoff

    def leq(self, x, y) -> bool:
        b = self._birkhoff
        if b is None:
            return self.poset.leq(x, y)
        of = b.of
        return not of[x] & ~of[y]

    def down(self, u) -> tuple:
        return self._sorted_downs[u]

    def up(self, u) -> tuple:
        return self._sorted_ups[u]

    @lazy
    def _sorted_downs(self) -> dict:
        """↓u in element order, for every u, built once from the rows."""
        members = self.poset.members
        return {u: tuple(members(row)) for u, row in zip(self.elements, self.poset.down_rows)}

    @lazy
    def _sorted_ups(self) -> dict:
        """↑u in element order, for every u, built once from the rows."""
        members = self.poset.members
        return {u: tuple(members(row)) for u, row in zip(self.elements, self.poset.up_rows)}

    @lazy
    def bottom(self):
        b = self._birkhoff
        bottom = self.poset.bottom if b is None else b.at[0]
        if bottom is None:
            raise NotALattice("no bottom element")
        return bottom

    @lazy
    def top(self):
        b = self._birkhoff
        top = self.poset.top if b is None else b.at[(1 << len(b.below)) - 1]
        if top is None:
            raise NotALattice("no top element")
        return top

    def join(self, x, y):
        b = self._birkhoff
        if b is None:
            return self.poset.join(x, y)
        of = b.of
        return b.at[of[x] | of[y]]

    def meet(self, x, y):
        b = self._birkhoff
        if b is None:
            return self.poset.meet(x, y)
        of = b.of
        return b.at[of[x] & of[y]]

    def join_all(self, xs: Iterable):
        b = self._birkhoff
        if b is None:
            return _fold(self.join, self.bottom, xs)
        acc = 0
        for x in xs:
            acc |= b.of[x]
        return b.at[acc]

    def meet_all(self, xs: Iterable):
        b = self._birkhoff
        if b is None:
            return _fold(self.meet, self.top, xs)
        acc = (1 << len(b.below)) - 1
        for x in xs:
            acc &= b.of[x]
        return b.at[acc]

    def heyting(self, x, y):
        """Largest z with z ∧ x ≤ y, for lattices; total on verified frames.
        On a frame it is the down-set {j : ↓j ∩ m(x) ⊆ m(y)}, the largest
        whose meet with m(x) lies in m(y). Otherwise the candidates' join is
        that z when it is itself a candidate, and else they have no largest
        member."""
        b = self._birkhoff
        if b is None:
            j = self.join_all(z for z in self.elements if self.leq(self.meet(z, x), y))
            if j is not None and not self.leq(self.meet(j, x), y):
                j = None
            return j
        outside = b.of[x] & ~b.of[y]
        return b.at[sum(1 << i for i, below in enumerate(b.below) if not below & outside)]

    def binary_covers(self, u) -> tuple:
        """The covers of u with at most two members: the empty cover (of
        bottom only), (u,), and every pair v, w ≤ u with v ∨ w = u; ordered by
        (size, element indices). On a finite distributive lattice gluing,
        amalgamation closure and patching hold for every cover iff they hold
        for these, by induction on the cover size. The POS forms read them;
        gluing and amalgamation closure are decided on square_cover and scan
        these only to name the witness of a failure. On a frame a pair is
        tested by its Birkhoff masks, m(v) | m(w) = m(u); a relation that is
        not one is tested by join."""
        if u not in self._covers_cache:
            below = self.down(u)
            found = [()] if u == self.bottom else []
            found.append((u,))
            b = self._birkhoff
            if b is None:
                found.extend((v, w) for i, v in enumerate(below) for w in below[i + 1:] if self.join(v, w) == u)
            else:
                of, mu = b.of, b.of[u]
                found.extend((v, w) for i, v in enumerate(below) for w in below[i + 1:] if of[v] | of[w] == mu)
            self._covers_cache[u] = tuple(found)
        return self._covers_cache[u]

    def canonical_cover(self, u) -> tuple:
        """J↓u, the join-irreducibles below u in join_irreducibles_by_height
        order (on a frame, the bits of m(u)): a cover of u (every open is the
        join of the join-irreducibles below it), empty for bottom, and
        holding u itself when u is join-irreducible. Each j in it is
        join-prime, so j lies below some member of any cover of u: a family
        over any cover of u restricts to one over J↓u. POS3 is decided at
        these (orders.pull_up_sources), and the germ walks read them
        (sheaves._germ_table)."""
        return self._canonical_covers[u]

    def square_cover(self, u) -> tuple:
        """The one cover of u on which gluing and amalgamation closure are
        decided (sheaves.verify_sheaf, sheaves.verify_subsheaf): the empty
        cover for bottom, (u,) when u is join-irreducible, and otherwise the
        first two lower covers (a, b), in element order. Then a ∨ b = u,
        since it lies below u and strictly above the lower cover a, so it is
        one of binary_covers(u). On a frame the Birkhoff masks turn join
        into union and meet into intersection: J↓a ∪ J↓b = J↓u and
        J↓a ∩ J↓b = J↓(a ∧ b)."""
        lower = self.lower_covers(u)
        if len(lower) > 1:
            return lower[:2]
        return (u,) if lower else ()

    def lower_covers(self, u) -> tuple:
        """The opens v < u with no open strictly between, in element order,
        built once per frame. Every v < u lies below one of them, so a law
        that composes along chains holds at every v ≤ u iff it holds along
        these, by induction on u; first_failing_pair is the one kernel that
        decides such a law here. On a frame they are the opens whose
        Birkhoff mask is m(u) less one bit: a distributive lattice is graded
        by |m(x)|, and m(u) less bit i is a down-set of J, so an open, iff
        J[i] is maximal in m(u). On a relation that is not a frame they are
        the maximal members of ↓u other than u."""
        return self._lower_covers[u]

    def first_failing_pair(self, gap):
        """The first (u, v, gap(u, v)) with v < u and gap(u, v) not None, u
        in element order and v in down(u) order, or None. gap states a law
        of the map u → v that composes along chains, so it holds at every
        v < u iff it holds at the lower covers (lower_covers): only a
        failing lower cover runs the scan over every pair, for the first."""
        if all(gap(u, v) is None for u in self.elements for v in self.lower_covers(u)):
            return None
        pairs = ((u, v) for u in self.elements for v in self.down(u) if v != u)
        return next(((u, v, found) for u, v in pairs for found in [gap(u, v)] if found is not None), None)

    @lazy
    def _lower_covers(self) -> dict:
        b = self._birkhoff
        out = {}
        for u in self.elements:
            if b is None:
                i = self.index[u]
                ups, below = self.poset.up_rows, self.poset.down_rows[i] & ~(1 << i)
                found = {self.elements[k] for k in _bits(below) if not below & ups[k] & ~(1 << k)}
            else:
                mask = b.of[u]
                found = {b.at[mask ^ 1 << i] for i in range(mask.bit_length()) if mask >> i & 1 and mask ^ 1 << i in b.at}
            out[u] = tuple(self.poset.sorted(found))
        return out

    @lazy
    def _canonical_covers(self) -> dict:
        """canonical_cover(u) for every u, built once."""
        J = self.join_irreducibles_by_height()
        return {u: tuple(j for j in J if self.leq(j, u)) for u in self.elements}

    def join_irreducibles(self) -> tuple:
        """The opens j with exactly one lower cover, i.e. whose strictly
        smaller opens have a greatest member (so not bottom), in element
        order; the frame is the down-set lattice of these (Birkhoff)."""
        return self._join_irreducibles

    @lazy
    def _join_irreducibles(self) -> tuple:
        greatest, downs = self.poset.greatest_index, self.poset.down_rows
        return tuple(j for i, j in enumerate(self.elements) if greatest(downs[i] & ~(1 << i)) is not None)

    def join_irreducibles_by_height(self) -> tuple:
        """join_irreducibles() in a linear extension of the order: by the size
        of ↓j, then element order."""
        return self._join_irreducibles_by_height

    @lazy
    def _join_irreducibles_by_height(self) -> tuple:
        index, downs = self.index, self.poset.down_rows
        return tuple(sorted(self._join_irreducibles, key=lambda j: (downs[index[j]].bit_count(), index[j])))

    def subframe(self, u) -> "FiniteFrame":
        """The open sublocale frame on the downset of u."""
        below = self.down(u)
        keep = set(below)
        rel = [(x, y) for (x, y) in self.poset.pairs() if x in keep and y in keep]
        return FiniteFrame(FinitePoset(below, rel, closed=True))

    def verify(self) -> CheckReport:
        """Frame laws in order: poset, lattice (bounds + pairs),
        distributivity; first violated law wins, with its witness. A finite
        distributive lattice is Heyting, so the Heyting law needs no check.

        The verdict is Birkhoff's test, one pass over the pairs: with J the
        opens whose strictly smaller opens have a greatest member and
        m(x) = {j ∈ J : j ≤ x}, the relation is a frame iff (1) x ≤ y ⇔
        m(x) ⊆ m(y) for every pair, (2) the masks are distinct and (3) the
        set of masks is closed under | and &. If they hold, x ↦ m(x) is an
        order isomorphism onto a family of sets closed under union and
        intersection, which is a distributive lattice with those as join
        and meet, so every law holds. Conversely, on a frame J is the set of
        join-irreducibles; every x is the join of m(x), so (1) and (2) hold;
        m(x ∧ y) = m(x) & m(y) in any lattice, and m(x ∨ y) = m(x) | m(y)
        because each join-irreducible of a distributive lattice is
        join-prime, so (3) holds. Only a reject runs the law sequence below,
        which names today's first failed law and witness: the poset laws,
        the lattice law (FinitePoset.lattice_gap: the bounds, then the first
        pair without a join or a meet), and Birkhoff's join-prime test,
        j ≰ ∨{x : j ≰ x} for each join-irreducible j, with the triple scan
        naming the witness.

        Frames are immutable, so the first report is kept and returned again.
        """
        return self._report

    @lazy
    @timed
    def _report(self) -> CheckReport:
        if self._birkhoff is not None:
            return CheckReport.ok("frame", elements=len(self.elements))
        p = self.poset.verify()
        if not p.passed:
            return CheckReport.fail("frame.poset", p.witness, law=p.name)
        gap = self.poset.lattice_gap
        if gap is not None:
            *pair, missing = gap
            return CheckReport.fail("frame.lattice", {"pair": pair, "missing": missing} if pair else {"missing": missing})
        # every x is the join of the join-irreducibles below it, so the
        # join-prime test runs over J alone
        J = self.join_irreducibles()
        if any(self.leq(j, self.join_all(k for k in J if not self.leq(j, k))) for j in J):
            return self._distributivity_failure()
        return CheckReport.ok("frame", elements=len(self.elements))

    def _distributivity_failure(self) -> CheckReport:
        """The first triple, in element order, with a ∧ (b ∨ c) ≠ (a ∧ b) ∨ (a ∧ c)."""
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    lhs = self.meet(a, self.join(b, c))
                    rhs = self.join(self.meet(a, b), self.meet(a, c))
                    if lhs != rhs:
                        return CheckReport.fail(
                            "frame.distributive",
                            {"triple": [a, b, c], "lhs": lhs, "rhs": rhs},
                        )
        raise AssertionError("a join-irreducible is not join-prime, so distributivity fails")


def _fold(op, out, xs: Iterable):
    """out op x for each x in turn; None from the first missing bound on."""
    for x in xs:
        out = op(out, x)
        if out is None:
            return None
    return out


def _inclusion_rows(labels: Sequence, sets: Sequence[int], at: dict) -> tuple[list, list, tuple | None]:
    """One pass over the pairs (labels[i], labels[k]), k ≤ i: the inclusion
    order of the sets as up and down rows (bit k of ups[i] when
    set(labels[i]) ⊆ set(labels[k])), and the first pair (x, y) in that
    order whose intersection or union is not in ``at`` (set -> label), with
    "meet" or "join", or None."""
    n = len(sets)
    ups, downs, gap = [0] * n, [0] * n, None
    for i, a in enumerate(sets):
        bit = 1 << i
        for k in range(i + 1):
            b = sets[k]
            meet = a & b
            if gap is None and (meet not in at or a | b not in at):
                gap = (labels[i], labels[k], "meet" if meet not in at else "join")
            if meet == a:
                ups[i] |= 1 << k
                downs[k] |= bit
            if meet == b:
                ups[k] |= bit
                downs[i] |= 1 << k
    return ups, downs, gap


class _Masks(NamedTuple):
    """A frame's Birkhoff masks: m(x) of each open, the open of each mask,
    and m(J[i]) for each bit i."""

    of: dict
    at: dict
    below: list


def _mask_table(frame: FiniteFrame, masks: list) -> _Masks:
    """FiniteFrame._birkhoff from the Birkhoff masks in element order."""
    of = dict(zip(frame.elements, masks))
    return _Masks(of, dict(zip(masks, frame.elements)), [of[j] for j in frame.join_irreducibles_by_height()])


def downset_frame(labels: Sequence[str], sets: Sequence[int], points: Sequence[int]) -> FiniteFrame:
    """The frame of the down-sets of a finite poset Q whose members are the
    bits q: labels[i] names the down-set sets[i], every down-set of Q is
    one of the sets, once, and points[q] is ↓q. Nothing of this is checked;
    the caller's construction proves it.

    Down-sets are closed under union and intersection, so they form a
    distributive lattice under inclusion with those as join and meet, and
    the frame passes verify with no test of its own. Its join-irreducibles
    are the principal down-sets ↓q (a down-set is the union of the ↓q of
    its members, and ↓q = x ∪ y puts q in x or y), so the Birkhoff mask
    m(x) is set(x) itself, each bit q moved to the place of ↓q in
    join_irreducibles_by_height. The order's rows are read from the
    columns col(q) = {i : q ∈ sets[i]}: ↑x is the AND of the columns of
    the q in set(x), and ↓x the AND of the complements of the columns of
    the q outside it, so no pass over the pairs is made."""
    full = (1 << len(sets)) - 1
    cols = [0] * len(points)
    for i, s in enumerate(sets):
        for q in _bits(s):
            cols[q] |= 1 << i
    ups, downs = [], []
    for s in sets:
        up = down = full
        for q, col in enumerate(cols):
            if s >> q & 1:
                up &= col
            else:
                down &= ~col
        ups.append(up)
        downs.append(down)
    frame = FiniteFrame(FinitePoset.from_rows(labels, ups, downs))
    at = dict(zip(sets, labels))
    principal = [at[p] for p in points]
    frame._join_irreducibles = tuple(frame.poset.sorted(principal))
    place = {j: 1 << i for i, j in enumerate(frame.join_irreducibles_by_height())}
    moved = {1 << q: place[j] for q, j in enumerate(principal)}
    frame._birkhoff = _mask_table(frame, [_lift(s, moved) for s in sets])
    return frame


def close_and_verify_frame(elements: Sequence[str], pairs: Iterable[tuple]) -> tuple[FiniteFrame | None, CheckReport]:
    """Close the generating relation and verify the frame laws.

    Returns (frame, report) on success and (None, report) naming the first
    violated law with its witness.
    """
    frame = FiniteFrame.from_relation(elements, pairs)
    report = frame.verify()
    return (frame if report.passed else None, report)


def build_frame(elements: Sequence[str], pairs: Iterable[tuple]) -> FiniteFrame:
    """close_and_verify_frame that raises the matching error on failure."""
    frame, report = close_and_verify_frame(elements, pairs)
    if frame is not None:
        return frame
    exc = {
        "frame.poset": NotAPoset,
        "frame.lattice": NotALattice,
        "frame.distributive": NotDistributive,
    }[report.name]
    raise exc(report.name, report=report)


def heyting_implication(frame: FiniteFrame, x, y):
    """max{z : z ∧ x ≤ y} on a verified frame."""
    if x not in frame or y not in frame:
        raise DomainMismatch(f"open not in frame: {x!r}, {y!r}")
    return frame.heyting(x, y)


class FrameHom:
    """Element table between two finite frames, claimed to preserve finite
    meets and arbitrary joins; run verify_frame_hom to certify."""

    def __init__(self, source: FiniteFrame, target: FiniteFrame, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, other: "FrameHom") -> "FrameHom":
        """self after other (other's target must be self's source)."""
        return FrameHom(other.source, self.target, {x: self(other(x)) for x in other.source.elements})

    @classmethod
    def identity(cls, frame: FiniteFrame) -> "FrameHom":
        return cls(frame, frame, {x: x for x in frame.elements})


_EXHAUSTIVE_JOIN_LIMIT = 12


@timed
def verify_frame_hom(h: FrameHom) -> CheckReport:
    """Finite meets (top and binary), then joins. Between finite lattices h
    preserves every join iff it preserves bottom and the binary joins, by
    induction on the subset size, so those decide the verdict. On a reject
    from a source of at most _EXHAUSTIVE_JOIN_LIMIT opens the witness is the
    first failing subset in mask order, found by scanning every subset; from
    a larger source it is the empty or binary join that failed."""
    src, tgt = h.source, h.target
    for x in src.elements:
        if x not in h.mapping:
            raise DomainMismatch(f"map not total: missing {x!r}")
        if h.mapping[x] not in tgt.index:
            raise DomainMismatch(f"map value outside target: {h.mapping[x]!r}")
    meets = _bound_failure(h, "meet")
    if meets is not None:
        return CheckReport.fail("frame_hom.finite_meets", meets)
    witness = _bound_failure(h, "join")
    if witness is None:
        return CheckReport.ok("frame_hom")
    if len(src) <= _EXHAUSTIVE_JOIN_LIMIT:
        witness = _first_failing_join(h) or witness
    return CheckReport.fail("frame_hom.joins", witness)


def _first_failing_join(h: FrameHom) -> dict | None:
    """The first subset, in mask order, whose join h does not preserve."""
    elems = h.source.elements
    for mask in range(1 << len(elems)):
        subset = [elems[i] for i in range(len(elems)) if mask >> i & 1]
        lhs = h(h.source.join_all(subset))
        rhs = h.target.join_all(h(x) for x in subset)
        if lhs != rhs:
            return {"subset": subset, "expected": rhs, "got": lhs}
    return None


class MonotoneMap:
    """Order-preserving element table between finite posets. The table is
    kept as given, not copied, and must not change while it is wrapped."""

    def __init__(self, source: FinitePoset, target: FinitePoset, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, x):
        return self.mapping[x]

    @classmethod
    def identity(cls, poset: FinitePoset) -> "MonotoneMap":
        return cls(poset, poset, {x: x for x in poset.elements})

    def verify(self) -> CheckReport:
        """x ≤ y ⇒ f(x) ≤ f(y), decided on positions (monotone_gap)."""
        elements, mapping = self.source.elements, self.mapping
        for x in elements:
            if x not in mapping:
                raise DomainMismatch(f"map not total: missing {x!r}")
        index = self.target.index
        gap = monotone_gap(self.source.up_rows, [index.get(mapping[x]) for x in elements], self.target.up_rows)
        if gap is None:
            return CheckReport.ok("monotone")
        x, y = (elements[i] for i in gap)
        return CheckReport.fail("monotone", {"pair": [x, y], "images": [self(x), self(y)]})


def monotone_gap(ups: list, image: list, target_ups: list) -> tuple | None:
    """The first (i, k), x-major, with bit k in ups[i] and image[k] not in
    target_ups[image[i]] (an image None fails), or None when i ↦ image[i]
    is monotone. Only the bits of each up row are walked, and the first
    failing pair is the one a scan of every pair names."""
    for i, row in enumerate(ups):
        a = image[i]
        for k in _bits(row):
            b = image[k]
            if a is None or b is None or not target_ups[a] >> b & 1:
                return i, k
    return None


def galois_check(left: MonotoneMap, right: MonotoneMap) -> CheckReport:
    """left(b) ≤ a  ⇔  b ≤ right(a), exhaustively over all pairs."""
    A, B = right.source, left.source  # right: A -> B, left: B -> A
    for b in B.elements:
        for a in A.elements:
            lhs = A.leq(left(b), a)
            rhs = B.leq(b, right(a))
            if lhs != rhs:
                return CheckReport.fail("galois", {"pair": [b, a], "left_leq": lhs, "right_leq": rhs})
    return CheckReport.ok("galois")


def _least_candidates(src: FinitePoset, tgt: FinitePoset, image: Sequence[int]) -> tuple[tuple | None, CheckReport]:
    """The table b ↦ min{a : b ≤ image[a]} of positions, a in src and b in
    tgt, monotone or not, or (None, the report naming the first b without
    that minimum). The candidates of b are one row of upper_rows."""
    table = []
    for y, candidates in zip(tgt.elements, tgt.upper_rows(image)):
        m = src.least_index(candidates)
        if m is None:
            return None, CheckReport.fail(
                "left_adjoint.absent",
                {"element": y, "minimal_candidates": src.minimal(src.members(candidates))},
            )
        table.append(m)
    return tuple(table), CheckReport.ok("left_adjoint")


def left_adjoint(f: MonotoneMap) -> tuple[MonotoneMap | None, CheckReport]:
    """g with g(b) = min{a : b ≤ f(a)} (_least_candidates) when that minimum
    exists for every b and the pair satisfies the adjunction; otherwise
    (None, witness report).

    When source and target are partial orders (no broken_laws), the table
    of least candidates is the left adjoint by proof, and neither its
    monotonicity nor galois_check is run: g(b) is a candidate, so
    g(b) ≤ a gives b ≤ f(g(b)) ≤ f(a), by monotonicity and transitivity;
    and b ≤ f(a) makes a a candidate, so g(b) ≤ a. A Galois connection's
    lower map is monotone (b ≤ b' ≤ f(g(b')) gives g(b) ≤ g(b')). On
    other relations both checks run."""
    mono = f.verify()
    if not mono.passed:
        raise NotMonotone("left_adjoint requires a monotone map", report=mono)
    src, tgt = f.source, f.target
    table, report = _least_candidates(src, tgt, [tgt.index[f.mapping[x]] for x in src.elements])
    g = None if table is None else MonotoneMap(tgt, src, dict(zip(tgt.elements, map(src.elements.__getitem__, table))))
    if g is not None and (src.broken_laws or tgt.broken_laws):
        gm = g.verify()
        if not gm.passed:
            return None, CheckReport.fail("left_adjoint.absent", {"not_monotone": gm.witness})
        gc = galois_check(g, f)
        if not gc.passed:
            return None, CheckReport.fail("left_adjoint.absent", {"adjunction": gc.witness})
    return g, report


def _bound_failure(f: MonotoneMap | FrameHom, kind: str) -> dict | None:
    """The first bound of kind "join" or "meet" that f does not preserve, as
    {"subset", "expected", "got"}, or None: first the empty bound (bottom or
    top), then each pair x, y with x before y in the source's element order.
    A bound missing on either side fails, with None in its place. Between
    finite partial orders f preserves every bound of that kind iff it
    preserves these, by induction on the subset size; bounds are symmetric
    and x with x never fails, so this is also the first failure over all
    ordered pairs."""
    src, tgt = f.source, f.target
    empty = "bottom" if kind == "join" else "top"
    bound, image_bound = getattr(src, empty), getattr(tgt, empty)
    if bound is None or image_bound is None or f(bound) != image_bound:
        return {"subset": [], "expected": image_bound, "got": None if bound is None else f(bound)}
    pair, image_pair = getattr(src, kind), getattr(tgt, kind)
    elems = src.elements
    for i, x in enumerate(elems):
        fx = f(x)
        for y in elems[i + 1:]:
            bound, image_bound = pair(x, y), image_pair(fx, f(y))
            if bound is None or image_bound is None or f(bound) != image_bound:
                return {"subset": [x, y], "expected": image_bound, "got": None if bound is None else f(bound)}
    return None


def preserves_all_meets(f: MonotoneMap) -> bool:
    """f(⋀S) = ⋀f(S) for every subset S of the (finite) source poset, read
    from the top and the binary meets (the left-adjoint existence criterion)."""
    return _bound_failure(f, "meet") is None


def frame_iso(A: FiniteFrame, B: FiniteFrame, fixed: dict | None = None) -> dict | None:
    """A frame isomorphism A → B by backtracking with degree-profile pruning;
    None when the search is exhausted. `fixed` pins chosen images."""
    if len(A) != len(B):
        return None

    def profile(frame, x):
        i = frame.index[x]
        return (frame.poset.down_rows[i].bit_count(), frame.poset.up_rows[i].bit_count())

    b_by_profile: dict = {}
    for y in B.elements:
        b_by_profile.setdefault(profile(B, y), []).append(y)
    mapping = dict(fixed or {})
    used = set(mapping.values())
    todo = [x for x in A.elements if x not in mapping]

    def consistent(x, y):
        for x2, y2 in mapping.items():
            if A.leq(x, x2) != B.leq(y, y2) or A.leq(x2, x) != B.leq(y2, y):
                return False
        return True

    if fixed:
        for x, y in fixed.items():
            if profile(A, x) != profile(B, y) or not consistent(x, y):
                return None
    # depth first over todo, one iterator of candidate images per level;
    # mapping holds the fixed pairs and the images of the levels on the stack
    stack = [iter(b_by_profile.get(profile(A, todo[0]), []))] if todo else []
    while stack:
        x = todo[len(stack) - 1]
        if x in mapping:
            used.discard(mapping.pop(x))
        for y in stack[-1]:
            if y not in used and consistent(x, y):
                break
        else:
            stack.pop()
            continue
        mapping[x] = y
        used.add(y)
        if len(stack) == len(todo):
            return dict(mapping)
        stack.append(iter(b_by_profile.get(profile(A, todo[len(stack)]), [])))
    return None if todo else dict(mapping)


def preserves_all_joins(f: MonotoneMap) -> bool:
    """f(⋁S) = ⋁f(S) for every subset S of the (finite) source poset, read
    from the bottom and the binary joins."""
    return _bound_failure(f, "join") is None
