"""The sheaf/locale side: building the sheaf locale of a presheaf, detecting
local homeomorphisms, the cross-sections functor, the unit/counit adjunction
with its triangle identities, spatiality, and the ordered sheaf-locale
axioms (POSL/CPOSL) cross-checked against the posheaf layer.

A finite frame is the down-set lattice of its join-irreducibles, its points.
So the sheaf locale's frame is the down-set lattice of the germs (j, x ∈ P(j))
at the base's points (etale_locale), and a locale map is read through its
point map p(y) = ∧{x : y ≤ f*(x)} (_point_map): its sections over u are the
monotone φ from the points below u with p∘φ = id (cross_sections), and it is
a local homeomorphism iff p is a discrete fibration (is_local_homeomorphism).
The definitional searches these replace are test oracles (tests/oracles.py).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .frames import FiniteFrame, FrameHom, _bits, _lift, downset_frame, verify_frame_hom
from .report import (
    Budget,
    BudgetMeter,
    CheckReport,
    MalformedInput,
    OrderNotProvided,
    once,
    timed,
)
from .complete import _lattice_gap, _restriction_gap, is_complete
from .orders import PoSheaf, _three_way, verify_posheaf
from .sheaves import Presheaf, SheafCertificate, SheafMorphism, _germ_downsets, _germ_table, _glued_entries, verify_presheaf, verify_sheaf


@dataclass
class LocaleOverX:
    """A frame of opens over the base: O(Y) with the inverse-image map."""

    OY: FiniteFrame
    fstar: FrameHom
    # (weak reference to its GammaSheaf, section search nodes counted), set
    # by cross_sections
    _gamma: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # (the report of verify(), 0), kept by report.once
    _verified: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def base(self) -> FiniteFrame:
        return self.fstar.source

    def verify(self) -> CheckReport:
        """f* lands in O(Y) and is a frame hom. A locale is immutable, so
        the report is computed once and kept on it (report.once); a caller
        that renames it takes a copy."""
        return once(self, "_verified", None, lambda _: self._verify_fresh())

    def _verify_fresh(self) -> CheckReport:
        if self.fstar.target is not self.OY and self.fstar.target.elements != self.OY.elements:
            return CheckReport.fail("locale_over_x", {"not": "fstar lands in OY"})
        return verify_frame_hom(self.fstar)


@dataclass
class EtaleLocale:
    """The sheaf locale of a presheaf: the frame of constrained open
    assignments, its projection to the base, and the construction
    evidence."""

    presheaf: Presheaf
    sections: list
    assignments: list
    frame: FiniteFrame
    locale: LocaleOverX
    report: CheckReport
    _index: dict = field(default_factory=dict)

    def label_of(self, assignment: tuple) -> str:
        return self.frame.elements[self._index[assignment]]

    def section_label(self, k: int) -> str:
        u, s = self.sections[k]
        return f"{self.presheaf.label(u, s)}@{u}"


class _GermJoins(dict):
    """mask ↦ the index in X of ∨ of the opens j of the germs (j, x) whose
    bits are set in mask: one OR of their masks in X and one lookup, made on
    the first read of a mask and kept, as the sections of one presheaf
    share their germs."""

    def __init__(self, X: FiniteFrame, germs: list):
        super().__init__()
        self.X, self.germs = X, germs

    def __missing__(self, mask: int) -> int:
        X = self.X
        out = self[mask] = X.index[X.join_all(self.germs[q][0] for q in _bits(mask))]
        return out


def etale_locale(P: Presheaf, *, budget: Budget | None = None) -> EtaleLocale:
    """The locale of the presheaf's total space: its opens are the down-sets D
    of the germs (j, x), j a join-irreducible of the base and x ∈ P(j), read
    as the assignment (u, s) ↦ ∨{j ≤ u : (j, s|_j) ∈ D} of an open below each
    section's domain, under the pointwise order. The down-sets come from the
    germ walk of enumerate_subsheaves, one budget tick each, and the frame is
    their down-set lattice, its rows read from the germ columns
    (frames.downset_frame). The walk yields every down-set once, and
    down-sets are closed under union and intersection, so the frame laws,
    the pointwise lattice and the projection p*: O(X) → O(ΛP) as a frame
    hom hold by proof (_etale_locale_fresh); none of the three is checked.

    Built once per presheaf object (report.once), through a weak reference
    since E.presheaf is P."""
    meter = BudgetMeter("sheaf-locale elements", (budget or Budget()).lambda_elements)
    return once(P, "_etale", meter, lambda m: _etale_locale_fresh(P, m), weak=True)


def _etale_locale_fresh(P: Presheaf, meter: BudgetMeter) -> EtaleLocale:
    """The pointwise order is inclusion of the germ down-sets: D ↦ assignment
    is monotone, and it reflects the order because the value at a germ
    (j, x) is j iff (j, x) ∈ D (a join of opens strictly below a
    join-irreducible j is strictly below j). The pointwise lattice holds:
    the germs of a section s over u that D holds are a down-set A of J↓u
    (P's restrictions compose, which verify_presheaf checks first), and the
    join of a down-set of J has it as Birkhoff mask, so the pointwise join
    and meet of the assignments of D and D' have masks A ∪ A' and A ∩ A':
    they are the assignments of D ∪ D' and D ∩ D'. A germ (j, x) is the
    section x over j, and its germ mask, the germs of its restrictions to
    J↓j, is its principal down-set.

    p* is a frame hom, so the locale's verify() report is issued by proof
    (report.once) and Γ and is_local_homeomorphism read it. p*(x), the
    assignment (u, s) ↦ x ∧ u, is the germ down-set D_x = {(j, y) : j ≤ x},
    since ∨{j ≤ u : j ≤ x} = x ∧ u. A join-irreducible of a distributive
    lattice is join-prime, so j ≤ x ∨ x′ iff j ≤ x or j ≤ x′: D_{x∨x′} =
    D_x ∪ D_{x′}; j ≤ x ∧ x′ iff j ≤ x and j ≤ x′: D_{x∧x′} = D_x ∩ D_{x′};
    D_⊤ holds every germ and D_⊥ none, as ⊥ is no join-irreducible. Those
    are the join, meet, top and bottom of downset_frame, and a map between
    finite lattices that keeps ⊥ and binary joins keeps every join. The
    guard on an image outside the walk's down-sets stays."""
    verify_presheaf(P).require()
    X = P.frame
    sections = P.sections()
    germs, masks = _germ_table(P, X.top)
    needs = [m for _, m in masks]
    joins = _GermJoins(X, germs)
    opens = sorted((tuple([joins[chosen & m] for m in needs]), chosen) for chosen in _germ_downsets(P, germs, meter))
    elements = X.elements
    assignments = [tuple([elements[i] for i in key]) for key, _ in opens]
    width = max(3, len(str(max(len(assignments) - 1, 0))))
    labels = [f"L{i:0{width}d}" for i in range(len(assignments))]
    index = {a: i for i, a in enumerate(assignments)}

    frame = downset_frame(labels, [m for _, m in opens], [needs[P.base[j] + P.at[j][x]] for j, x in germs])
    pstar_map = {}
    for x in X.elements:
        img = tuple(X.meet(x, u) for u, _ in sections)
        if img not in index:
            raise MalformedInput(f"projection image of {x!r} escaped the sheaf locale")
        pstar_map[x] = labels[index[img]]
    locale = LocaleOverX(OY=frame, fstar=FrameHom(X, frame, pstar_map))
    once(locale, "_verified", None, lambda _: CheckReport.ok("frame_hom"))
    # the frame, the pointwise lattice and the kept projection report, renamed
    proved = [frame.verify(), CheckReport.ok("sheaf_locale.pointwise_lattice"), CheckReport.ok("sheaf_locale.projection_hom")]
    report = CheckReport.combine("sheaf_locale", proved, elements=len(assignments))
    return EtaleLocale(
        presheaf=P,
        sections=sections,
        assignments=assignments,
        frame=frame,
        locale=locale,
        report=report,
        _index=index,
    )


def lambda_on_morphism(alpha: SheafMorphism, EP: EtaleLocale, EQ: EtaleLocale) -> tuple[FrameHom, CheckReport]:
    """The reindexing frame map O(Λ(target)) → O(Λ(source)) of a morphism,
    verified as a frame hom commuting with the projections from the base.
    The sections of Λ are the points, so the reindexing is α's point table
    (SheafMorphism.point_image)."""
    P, reindex = alpha.source, alpha.point_image
    mapping = {}
    for i, b in enumerate(EQ.assignments):
        a = tuple(b[k] for k in reindex)
        if a not in EP._index:
            return (
                FrameHom(EQ.frame, EP.frame, {}),
                CheckReport.fail("lambda_morphism", {"element": EQ.frame.elements[i], "not": "constrained assignment"}),
            )
        mapping[EQ.frame.elements[i]] = EP.frame.elements[EP._index[a]]
    hom = FrameHom(EQ.frame, EP.frame, mapping)
    hom_rep = verify_frame_hom(hom)
    commute = all(
        hom(EQ.locale.fstar(x)) == EP.locale.fstar(x) for x in P.frame.elements
    )
    commute_rep = CheckReport("lambda_morphism.over_base", commute, witness=None)
    return hom, CheckReport.combine("lambda_morphism", [hom_rep, commute_rep])


def _point_map(f: LocaleOverX) -> dict:
    """p(y) = ∧{x : y ≤ f*(x)} for each join-irreducible y of O(Y): the least
    open of the base whose inverse image holds y. Join-irreducibles are the
    points of a finite frame, and since f* preserves joins p(y) is one of the
    base's: p is the map f on points."""
    OY, OX = f.OY, f.base
    return {y: OX.meet_all(x for x in OX.elements if OY.leq(y, f.fstar(x))) for y in OY.join_irreducibles()}


@timed
def is_local_homeomorphism(f: LocaleOverX) -> CheckReport:
    """The opens y of Y on which f restricts, up to isomorphism, to an open
    inclusion: those where the point map p, restricted to the points below y,
    is an order-embedding onto a down-set of the base's points, whose join is
    y's base open. Pass iff the good opens cover Y (p is then a discrete
    fibration), with the witness cover or the good opens attached."""
    f.verify().require()
    OY, OX = f.OY, f.base
    p = _point_map(f)
    good = []
    for y in OY.elements:
        below = [z for z in p if OY.leq(z, y)]
        image = {p[z] for z in below}
        embeds = all(OY.leq(a, b) == OX.leq(p[a], p[b]) for a in below for b in below)
        if embeds and all(k in image for j in image for k in OX.join_irreducibles() if OX.leq(k, j)):
            good.append({"open": y, "base_open": OX.join_all(image)})
    covered = OY.join_all(d["open"] for d in good)
    passed = covered == OY.top
    witness = None if passed else {"good_opens": [d["open"] for d in good], "join": covered}
    return CheckReport(
        "local_homeomorphism",
        passed,
        witness=witness,
        details={"cover": good if passed else None, "good_opens": [d["open"] for d in good]},
    )


class Section(NamedTuple):
    """A continuous section over an open: its frame map as a value table
    aligned with O(Y)'s element order. A tuple, so hashing and equality run
    in C."""

    over: str
    values: tuple

    def value(self, OY: FiniteFrame, y) -> str:
        return self.values[OY.index[y]]


@dataclass
class GammaSheaf:
    locale: LocaleOverX
    sheaf: Presheaf
    report: CheckReport


def _point_sections(f: LocaleOverX, fibres: dict, u, nodes: BudgetMeter) -> list[tuple[tuple, Section]]:
    """The frame maps O(Y) → ↓u with s∘f* = (−) ∧ u, each with its point map
    φ, sorted by value table. On points they are the monotone φ from the
    base's points below u (J↓u, canonical_cover) to the points of Y with
    p∘φ = id, so φ(j) is drawn from the fibre of j, in a linear extension
    of the base's points; φ is kept as the tuple of the positions in O(Y)
    of its values on J↓u. A candidate is tried against the AND of the up
    rows of the φ(k), k < j in J↓u. The value table is
    s(y) = ∨{j : φ(j) ≤ y}, read from the Birkhoff masks: φ is injective
    (p∘φ = id) and its values are points of Y, so {j : φ(j) ≤ y} is
    m_Y(y) ∩ image(φ) with each bit of φ(j) read as j, and m_X(s(y)) is the
    OR of the m_X(j) over it (a down-set of J, as φ is monotone): one
    frames._lift per open of Y. The bit of a point of Y is the highest of
    its mask, as the bits follow join_irreducibles_by_height. The meter
    ticks once per search node."""
    OY, OX = f.OY, f.base
    of, at, _ = OX.masks
    ups, index = OY.poset.up_rows, OY.index
    of_y, points_y = OY.masks.of, OY.elements
    J = OX.canonical_cover(u)
    lower = [[k for k in range(i) if OX.leq(J[k], j)] for i, j in enumerate(J)]
    phi = [0] * len(J)
    anywhere = (1 << len(OY)) - 1
    room = [anywhere] * len(J)  # room[i]: the y above φ(k) for each k < J[i]
    points: list[tuple] = []
    # depth first over J, one iterator over the fibre of J[i] per level i;
    # the last level, past J, has no candidates and records φ
    levels = [[index[y] for y in fibres[j]] for j in J] + [()]
    stack = [iter(levels[0])]
    nodes.tick()
    while stack:
        i = len(stack) - 1
        if i == len(J):
            points.append(tuple(phi))
            stack.pop()
            continue
        fits = room[i]
        for t in stack[-1]:
            if fits >> t & 1:
                break
        else:
            stack.pop()
            continue
        phi[i] = t
        nodes.tick()
        if i + 1 < len(J):
            fits = anywhere
            for k in lower[i + 1]:
                fits &= ups[phi[k]]
            room[i + 1] = fits
        stack.append(iter(levels[i + 1]))
    out = []
    for point in points:
        lift = {1 << of_y[points_y[t]].bit_length() - 1: of[j] for j, t in zip(J, point)}
        image = sum(lift)
        out.append((point, Section(over=u, values=tuple([at[_lift(m & image, lift)] for m in of_y.values()]))))
    position = OX.index
    out.sort(key=lambda found: [position[x] for x in found[1].values])
    return out


def cross_sections(f: LocaleOverX, *, budget: Budget | None = None) -> GammaSheaf:
    """Γ(f): per open, all continuous sections over it (_point_sections);
    restriction to v keeps a section's point map on J↓v and returns the
    section over v with that point map. A sheaf by proof: its composition
    report and sheaf certificate are issued as a pass issues them
    (report.once), and neither is checked.

    That section is the restriction s(−) ∧ v: the point map φ is monotone,
    so {j ∈ J↓u : φ(j) ≤ y} is a down-set of J and is m(s(y)), and
    m(s(y) ∧ v) = m(s(y)) ∩ J↓v holds k ∈ J↓v iff φ(k) ≤ y; and the search
    at v finds every section, that one too.

    Restrictions compose: for w ≤ v ≤ u, J↓w ⊆ J↓v ⊆ J↓u, and keeping φ
    on J↓v and then on J↓w keeps it on J↓w. Γ is a sheaf: for a binary
    cover (a, b) of u, J↓a and J↓b are down-sets of J with union
    J↓(a∨b) = J↓u and intersection J↓(a∧b). So two point maps over a and b
    that agree on J↓(a∧b) join into one map on J↓u, in exactly one way; it
    is monotone, since for k ≤ j in J↓u the down-set holding j holds k
    too, and p∘φ = id holds on each part. So every family over a binary
    cover has one amalgamation, Γ(⊥) holds the one empty map, and the
    certificate lists each open's binary covers with |Γ(u)| families, as
    verify_sheaf does on a pass (sheaves._glued_entries).

    Built once per locale object (report.once), through a weak reference
    since G.locale is f."""
    nodes = BudgetMeter("section search nodes", (budget or Budget()).section_nodes)
    return once(f, "_gamma", nodes, lambda m: _cross_sections_fresh(f, m), weak=True)


def _cross_sections_fresh(f: LocaleOverX, nodes: BudgetMeter) -> GammaSheaf:
    f.verify().require()
    OX = f.base
    p = _point_map(f)
    fibres = {j: [y for y in p if p[y] == j] for j in OX.join_irreducibles()}
    found = {u: _point_sections(f, fibres, u, nodes) for u in OX.elements}
    carriers = {u: tuple(s for _, s in found[u]) for u in OX.elements}
    by_point = {u: {point: s for point, s in found[u]} for u in OX.elements}
    point_of = {s: dict(zip(OX.canonical_cover(u), point)) for u in OX.elements for point, s in found[u]}
    position = {u: {s: i for i, s in enumerate(carriers[u])} for u in OX.elements}

    def restrict(u, s, v):
        phi = point_of[s]
        return by_point[v][tuple([phi[j] for j in OX.canonical_cover(v)])]

    def labeler(u, s):
        return f"s{position[u][s]}"

    sheaf = Presheaf.of(OX, carriers, restrict, labeler=labeler)
    once(sheaf, "_presheaf_report", None, lambda _: CheckReport.ok("presheaf"))
    cert = once(sheaf, "_sheaf_certificate", None, lambda _: SheafCertificate(True, _glued_entries(sheaf)))
    report = CheckReport.combine("cross_sections", [cert.report()], sections={u: len(carriers[u]) for u in OX.elements})
    return GammaSheaf(locale=f, sheaf=sheaf, report=report)


def unit(P: Presheaf, E: EtaleLocale, G: GammaSheaf) -> tuple[SheafMorphism, CheckReport]:
    """η: each section goes to its projection, its column of E's
    assignments (its value at each open of Λ), viewed as a section of the
    sheaf locale. η is natural by proof, so its morphism report is issued
    with no check: the column of s restricts as s does. The value of
    η_u(s) at an open D of Λ is D(u, s) = ∨{j ≤ u : (j, s|_j) ∈ D}, and Γ
    restricts a section to v ≤ u by meeting each value with v. A
    join-irreducible below D(u, s) ∧ v lies below v and below one of the
    joined j (it is join-prime), and D is a down-set of germs, so
    D(u, s) ∧ v = ∨{j ≤ v : (j, s|_j) ∈ D}. P's restrictions compose
    (verify_presheaf(P) checks it, and etale_locale requires it before it
    builds E = Λ(P)), so s|_j = (s|_v)|_j and that join is D(v, s|_v),
    the value of η_v(s|_v). The same composition gives the agreement
    identity of a section with its own restriction,
    ε(P, [(u, s), (v, s|_v)]) = v; the restriction_agreement subreport
    records that precondition."""
    columns = list(zip(*E.assignments))
    at = {}
    for u, xs in P.carriers.items():
        members, table = G.sheaf.at[u], []
        for a, s in enumerate(xs):
            table.append(members.get(Section(over=u, values=columns[P.base[u] + a])))
            if table[-1] is None:
                return SheafMorphism.identity(P), CheckReport.fail(
                    "unit", {"open": u, "section": P.label(u, s), "not": "a section of the sheaf locale"}
                )
        at[u] = tuple(table)
    eta = SheafMorphism.from_tables(P, G.sheaf, at)
    report = CheckReport.combine(
        "unit",
        [CheckReport.ok("morphism"), CheckReport("unit.restriction_agreement", E.presheaf is P)],
    )
    return eta, report


def counit(f: LocaleOverX, G: GammaSheaf, E: EtaleLocale) -> tuple[FrameHom, CheckReport]:
    """ε*: O(Y) → O(ΛΓ(f)), sending y to the family of section values at y;
    verified to land in the constrained assignments, to be a frame hom, and to
    commute with the structure maps."""
    OY = f.OY
    mapping = {}
    for y in OY.elements:
        assignment = tuple(sec.value(OY, y) for (_, sec) in E.sections)
        if assignment not in E._index:
            return FrameHom(OY, E.frame, {}), CheckReport.fail(
                "counit", {"open": y, "not": "a constrained assignment"}
            )
        mapping[y] = E.label_of(assignment)
    hom = FrameHom(OY, E.frame, mapping)
    hom_rep = verify_frame_hom(hom)
    hom_rep.name = "counit.frame_hom"
    commute = all(hom(f.fstar(x)) == E.locale.fstar(x) for x in f.fstar.source.elements)
    return hom, CheckReport.combine(
        "counit", [hom_rep, CheckReport("counit.over_base", commute)]
    )


def triangle_gamma_side(f: LocaleOverX, *, budget: Budget | None = None) -> CheckReport:
    """Identity of Γ → ΓΛΓ → Γ at a locale over X: every section, lifted to
    its projection and pushed back through the counit, returns unchanged."""
    budget = budget or Budget()
    OY = f.OY
    G = cross_sections(f, budget=budget)
    E = etale_locale(G.sheaf, budget=budget)
    eps_hom, eps_rep = counit(f, G, E)
    if not eps_rep.passed:
        return CheckReport.combine("triangle_gamma", [eps_rep])
    G2 = cross_sections(E.locale, budget=budget)
    eta_g, eta_rep = unit(G.sheaf, E, G2)
    if not eta_rep.passed:
        return CheckReport.combine("triangle_gamma", [eta_rep])
    ok, wit = True, None
    for u in f.fstar.source.elements:
        for s in G.sheaf.carriers[u]:
            lifted = eta_g(u, s)  # a section of the sheaf locale of Γ(f), over u
            composite = tuple(lifted.value(E.frame, eps_hom(y)) for y in OY.elements)
            if composite != s.values:
                ok, wit = False, {"open": u, "section": G.sheaf.label(u, s)}
                break
        if not ok:
            break
    return CheckReport.combine(
        "triangle_gamma", [CheckReport("triangle_gamma.identity", ok, witness=wit)]
    )


def triangle_lambda_side(P: Presheaf, *, budget: Budget | None = None) -> CheckReport:
    """Identity of Λ → ΛΓΛ → Λ at a presheaf: the counit of the sheaf locale,
    reindexed along the unit, is the identity on assignments."""
    budget = budget or Budget()
    E = etale_locale(P, budget=budget)
    G = cross_sections(E.locale, budget=budget)
    eta, eta_rep = unit(P, E, G)
    if not eta_rep.passed:
        return CheckReport.combine("triangle_lambda", [eta_rep])
    E2 = etale_locale(G.sheaf, budget=budget)
    eps_hom, eps_rep = counit(E.locale, G, E2)
    if not eps_rep.passed:
        return CheckReport.combine("triangle_lambda", [eps_rep])
    lam_eta, lam_rep = lambda_on_morphism(eta, E, E2)
    if not lam_rep.passed:
        return CheckReport.combine("triangle_lambda", [lam_rep])
    ok, wit = True, None
    for lab in E.frame.elements:
        if lam_eta(eps_hom(lab)) != lab:
            ok, wit = False, {"element": lab}
            break
    return CheckReport.combine(
        "triangle_lambda", [CheckReport("triangle_lambda.identity", ok, witness=wit)]
    )


def triangle_identities(P: Presheaf, f: LocaleOverX | None = None, *, budget: Budget | None = None) -> CheckReport:
    """Both triangle identities; the locale side defaults to the sheaf locale
    of the presheaf when no locale is supplied."""
    budget = budget or Budget()
    if f is None:
        f = etale_locale(P, budget=budget).locale
    return CheckReport.combine(
        "triangles",
        [triangle_lambda_side(P, budget=budget), triangle_gamma_side(f, budget=budget)],
    )


@timed
def verify_sh_lh_equivalence(instance, *, budget: Budget | None = None) -> CheckReport:
    """For a sheaf: the unit is a per-open bijection (and the reflection is
    idempotent). For a locale over X: the counit is an isomorphism exactly on
    local homeomorphisms — the verdict is reported either way."""
    budget = budget or Budget()
    if isinstance(instance, LocaleOverX):
        f = instance
        lh = is_local_homeomorphism(f)
        G = cross_sections(f, budget=budget)
        E = etale_locale(G.sheaf, budget=budget)
        eps_hom, eps_rep = counit(f, G, E)
        iso = False
        iso_wit = None
        if eps_rep.passed:
            values = list(eps_hom.mapping.values())
            injective = len(set(values)) == len(values)
            surjective = set(values) == set(E.frame.elements)
            iso = injective and surjective
            if not iso:
                missing = [lab for lab in E.frame.elements if lab not in set(values)]
                iso_wit = {"injective": injective, "surjective": surjective, "unreached": missing[:4]}
        else:
            iso_wit = eps_rep.witness
        stable_rep = _lambda_gamma_stability(E, budget=budget)
        verdict_matches = iso == lh.passed
        return CheckReport.combine(
            "sh_lh_equivalence",
            [
                lh,
                CheckReport("counit_iso", iso, witness=iso_wit),
                CheckReport("counit_iso_iff_lh", verdict_matches, witness=None if verdict_matches else {"lh": lh.passed, "iso": iso}),
                stable_rep,
            ],
        )

    P = instance if isinstance(instance, Presheaf) else instance.sheaf
    cert = verify_sheaf(P)
    E = etale_locale(P, budget=budget)
    G = cross_sections(E.locale, budget=budget)
    eta, eta_rep = unit(P, E, G)
    u = next((u for u in P.frame.elements if not _bijective(eta, u)), None)
    bij_ok, bij_wit = u is None, None if u is None else {"open": u, "carrier": len(P.carriers[u]), "sections": len(G.sheaf.carriers[u])}
    if cert.passed:
        bij_name = "unit_bijective"
    else:
        bij_name = "unit_reflects"  # for non-sheaves the unit exhibits the reflection
        EG = etale_locale(G.sheaf, budget=budget)
        GG = cross_sections(EG.locale, budget=budget)
        eta2, _ = unit(G.sheaf, EG, GG)
        bij_ok = all(_bijective(eta2, u) for u in P.frame.elements)
        bij_wit = None if bij_ok else {"not": "idempotent reflection"}
    return CheckReport.combine(
        "sh_lh_equivalence",
        [eta_rep, CheckReport(bij_name, bij_ok, witness=bij_wit)],
        input_is_sheaf=cert.passed,
    )


def _bijective(eta: SheafMorphism, u) -> bool:
    """Whether η_u's position table permutes the target's carrier at u."""
    table = eta.at[u]
    return len(set(table)) == len(table) == len(eta.target.carriers[u])


def _lambda_gamma_stability(E: EtaleLocale, *, budget: Budget) -> CheckReport:
    """Applying sections-then-locale twice stabilizes: the counit of the
    (always locally homeomorphic) sheaf locale is an isomorphism."""
    lh = is_local_homeomorphism(E.locale)
    if not lh.passed:
        return CheckReport.fail("lambda_gamma_stable", {"sheaf_locale": "not a local homeomorphism"})
    G = cross_sections(E.locale, budget=budget)
    E2 = etale_locale(G.sheaf, budget=budget)
    eps_hom, eps_rep = counit(E.locale, G, E2)
    if not eps_rep.passed:
        return CheckReport.fail("lambda_gamma_stable", eps_rep.witness)
    values = list(eps_hom.mapping.values())
    ok = len(set(values)) == len(values) and set(values) == set(E2.frame.elements)
    return CheckReport("lambda_gamma_stable", ok)


@timed
def is_spatial(f: LocaleOverX, *, budget: Budget | None = None) -> CheckReport:
    """Sections separate the opens of Y iff the counit is monic; both readings
    evaluated and reconciled."""
    budget = budget or Budget()
    G = cross_sections(f, budget=budget)
    OY = f.OY
    all_sections = [s for u in f.fstar.source.elements for s in G.sheaf.carriers[u]]
    sep_ok, sep_wit = True, None
    for y in OY.elements:
        for z in OY.elements:
            if y == z:
                continue
            if not any(s.value(OY, y) != s.value(OY, z) for s in all_sections):
                sep_ok, sep_wit = False, {"pair": [y, z]}
                break
        if not sep_ok:
            break

    E = etale_locale(G.sheaf, budget=budget)
    eps_hom, eps_rep = counit(f, G, E)
    if eps_rep.passed:
        values = list(eps_hom.mapping.values())
        monic_ok = len(set(values)) == len(values)
        monic_wit = None
    else:
        monic_ok, monic_wit = False, eps_rep.witness

    return _three_way(
        "spatial",
        [("sections_separate", sep_ok, sep_wit), ("counit_monic", monic_ok, monic_wit)],
    )


def _gamma_posheaf(G: GammaSheaf, orders) -> PoSheaf:
    if orders is None:
        raise OrderNotProvided("per-open orders on the cross-sections are required")
    return PoSheaf(G.sheaf, orders)


def _pos_law(posheaf_rep: CheckReport, law: str, name: str, keys: tuple) -> CheckReport:
    """The posheaf layer's verdict on one POS law, renamed and with its witness
    projected onto the given keys."""
    rep = next(r for r in posheaf_rep.subreports if r.name == f"posheaf.{law}")
    witness = None if rep.passed else {k: rep.witness[k] for k in keys}
    return CheckReport(name, rep.passed, witness=witness)


@timed
def check_posl(f: LocaleOverX, orders, *, budget: Budget | None = None) -> CheckReport:
    """POSL1–3 on the cross-sections: the posheaf layer's POS1–3 on Γ with the
    same orders, cross-checked against its verdict (which also requires the
    internal-poset reading to agree)."""
    budget = budget or Budget()
    is_local_homeomorphism(f).require()
    G = cross_sections(f, budget=budget)
    posheaf_rep = verify_posheaf(_gamma_posheaf(G, orders))
    laws = [
        _pos_law(posheaf_rep, "POS1", "posl.POSL1", ("open", "witness")),
        _pos_law(posheaf_rep, "POS2", "posl.POSL2", ("square",)),
        _pos_law(posheaf_rep, "POS3", "posl.POSL3", ("open", "cover")),
    ]
    posl = all(r.passed for r in laws)
    agree = posl == posheaf_rep.passed
    return CheckReport.combine(
        "posl",
        laws + [
            CheckReport("posl.agreement_with_posheaf", agree, witness=None if agree else {"posl": posl, "posheaf": posheaf_rep.passed}),
        ],
    )


@timed
def check_cposl(f: LocaleOverX, orders, *, budget: Budget | None = None) -> CheckReport:
    """CPOSL1–3 on the cross-sections, cross-checked against the completeness
    verdict with the same orders. CPOSL1 and CPOSL2 read the per-open
    lattice and restriction kernels of the completeness layer on Γ, CPOSL2
    at the lower covers (FiniteFrame.first_failing_pair); CPOSL3 is the
    posheaf layer's POS3 on Γ. Each open's lattice law is kept on its
    poset (FinitePoset.lattice_gap), so the completeness verdict reads it
    and scans no open again."""
    budget = budget or Budget()
    is_local_homeomorphism(f).require()
    G = cross_sections(f, budget=budget)
    F = _gamma_posheaf(G, orders)
    frame = F.frame

    gaps = ({"open": u} if not F.poset(u).verify().passed else _lattice_gap(F, u) for u in frame.elements)
    c1_wit = next(({k: gap[k] for k in ("open", "pair") if k in gap} for gap in gaps if gap), None)
    failure = frame.first_failing_pair(lambda u, v: _restriction_gap(F, u, v))
    c2_wit = failure and {"restriction": list(failure[:2]), "not": "surjective" if failure[2] == "surjective" else "join/meet-preserving"}
    c1_ok, c2_ok = c1_wit is None, c2_wit is None

    posheaf_rep = verify_posheaf(F)
    c3 = _pos_law(posheaf_rep, "POS3", "cposl.CPOSL3", ("open", "cover"))

    cposl = c1_ok and c2_ok and c3.passed
    complete_ok = posheaf_rep.passed and is_complete(F, budget=budget).passed
    agree = cposl == complete_ok
    return CheckReport.combine(
        "cposl",
        [
            CheckReport("cposl.CPOSL1", c1_ok, witness=c1_wit),
            CheckReport("cposl.CPOSL2", c2_ok, witness=c2_wit),
            c3,
            CheckReport("cposl.agreement_with_completeness", agree, witness=None if agree else {"cposl": cposl, "complete": complete_ok}),
        ],
    )
