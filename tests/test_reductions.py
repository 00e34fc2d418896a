"""The finite-lattice reductions against their exhaustive definitions
(tests/oracles.py): binary covers for gluing, subsheaf closure and POS3,
and one pullback square per open against the binary-cover scans for
gluing, subsheaf closure and the internal subsheaf reading of posheaves
(the verdict from the squares, the entries and witnesses from the scan, on the
generated sheaves, their mutants, every member of Sub(F) and seeded
parts), single joins for cover existence, the Heyting implication as a join, Sub,
Dow and generated subsheaves as down-sets of germs at the join-irreducibles,
least and greatest elements by one scan, join and meet preservation from the
empty and binary bounds, the bounds of a subsheaf and its sup over each
open from bitset rows of the point order, the étale layer on points: the
sheaf locale from the germ walk, ordered and with meets and joins read from
germ masks, a section's agreement with its own restrictions, cross-sections
and local homeomorphisms through the point map of the join-irreducibles,
and the frame laws through Birkhoff masks (with the join-prime test and
binary joins naming a reject's witness) and the frame operations read from
those masks, with frame homs' joins read from the empty and binary ones;
and the bit-row FinitePoset, monotone maps, left adjoints, frame loading
and frame documents, and each posheaf order with verify_posheaf on it,
against a relation kept as a set of pairs; and each law decided once
against its readings decided apart: the internal subsheaf verdict read
off POS2 and POS3, the one-loop forms of order-preserving maps and of the
morphism order, and the restriction adjoints built with no monotonicity
check.

Verdicts, the Sub/Dow lists and generated subsheaves must agree on every
element order of the frame; witnesses and sheaf certificate entries must
agree exactly when the element order is a linear extension of the frame
order, as in every generated and fixture frame."""
from __future__ import annotations

import itertools
import json
import random
import sys

import pytest

import oracles
from posheaf.complete import (
    _finite_meets_gap,
    _lattice_gap,
    _left_adjoint,
    _least_preimages,
    _restriction_gap,
    bounds,
    check_finite_completeness,
    is_complete,
    is_frame_sheaf,
    sup_in_open,
)
from posheaf.fixtures import (
    FIXTURE_FRAMES,
    identity_locale,
    m3_posheaf,
    open_inclusion,
    posheaf_ab,
    sections_free_locale,
    sheaf_ab,
    three_chain_over_2,
)
from posheaf.frames import (
    NOT_A_FRAME,
    FiniteFrame,
    FinitePoset,
    FrameHom,
    MonotoneMap,
    build_frame,
    close_and_verify_frame,
    _bound_failure,
    _image,
    left_adjoint,
    verify_frame_hom,
)
from posheaf.generate import (
    GenConfig,
    _order_posets,
    _sampled_orders,
    gen_endomorphism,
    gen_frame,
    gen_frame_morphism,
    gen_posheaf,
    gen_sheaf,
    mutate,
)
from posheaf import jsonio, sheaves
from posheaf.locale_equiv import LocaleOverX, _point_map, _point_sections, cross_sections, etale_locale, is_local_homeomorphism, unit
from posheaf.orders import (
    PoSheaf,
    discrete,
    down_closure,
    down_power_sheaf,
    enumerate_downsheaves,
    morphism_leq,
    omega,
    power_sheaf,
    verify_order_preserving,
    verify_posheaf,
)
from posheaf.report import (
    Budget,
    BudgetMeter,
    MalformedInput,
    NotALattice,
    NotAPoset,
    NotDistributive,
    PosheafError,
    RepairFailed,
    ResourceLimit,
)
from posheaf.sheaves import (
    Presheaf,
    SheafMorphism,
    SubSheaf,
    enumerate_points,
    enumerate_subsheaves,
    generate_subsheaf,
    terminal,
    verify_sheaf,
    verify_subsheaf,
)

SIZES = ((4, 3), (6, 3), (7, 2))
SEEDS = range(16)


def _boolean_3() -> FiniteFrame:
    """The subsets of {a, b, c}: its top is a join of three atoms and of no
    two of them."""
    names = ["0", "a", "b", "c", "ab", "ac", "bc", "abc"]
    return build_frame(names, [(x, y) for x in names for y in names if set(x) - {"0"} <= set(y)])


def _non_distributive() -> tuple[FinitePoset, FinitePoset]:
    """The pentagon N5 and the diamond M3, lattices that are not frames."""
    n5 = FinitePoset(["0", "x", "y", "z", "1"], [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")])
    m3 = FinitePoset(["0", "p", "q", "r", "1"], [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")])
    return n5, m3


def _corpus() -> list[tuple[str, PoSheaf]]:
    out = [(f"omega({name})", omega(build())) for name, build in FIXTURE_FRAMES.items()]
    out += [("posheaf_ab", posheaf_ab()), ("m3", m3_posheaf())]
    boolean = omega(_boolean_3())
    out += [("omega(B3)", boolean)] + [(f"omega(B3)+{kind}", mutate(boolean, kind)) for kind in ("break-POS3", "remove-amalgamation")]
    for opens, carrier in SIZES:
        for seed in SEEDS:
            cfg = GenConfig(seed=seed, max_opens=opens, max_carrier=carrier)
            F = gen_posheaf(gen_frame(cfg), cfg)
            name = f"gen({opens},{carrier})[{seed}]"
            out.append((name, F))
            for kind in ("break-POS3", "remove-amalgamation"):
                try:
                    out.append((f"{name}+{kind}", mutate(F, kind, cfg)))
                except RepairFailed:
                    pass
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _shuffled_poset(poset: FinitePoset, rng: random.Random) -> FinitePoset:
    elements = list(poset.elements)
    rng.shuffle(elements)
    return FinitePoset(elements, poset.pairs(), closed=True)


def _shuffled_frame(frame: FiniteFrame, rng: random.Random) -> FiniteFrame:
    return FiniteFrame(_shuffled_poset(frame.poset, rng))


def _shuffled_presheaf(P: Presheaf, rng: random.Random) -> Presheaf:
    """P over the same frame with its element list in a random order."""
    frame = _shuffled_frame(P.frame, rng)
    res = {key: table for key, table in P.res.items() if key[0] != key[1]}
    return Presheaf(frame, P.carriers, res)


def _shuffled(F: PoSheaf, rng: random.Random) -> PoSheaf:
    """F over the same frame with its element list in a random order."""
    return PoSheaf(_shuffled_presheaf(F.sheaf, rng), F.orders)


def _is_linear_extension(frame) -> bool:
    return all(not frame.poset.lt(b, a) for i, a in enumerate(frame.elements) for b in frame.elements[i + 1:])


def _report(rep) -> tuple:
    return (rep.name, rep.passed, rep.witness, rep.details)


def _subreport(report, name):
    return next(r for r in report.subreports if r.name == name)


def _parts_or_limit(enumerate_) -> list | None:
    """The parts of the enumerated members, or None on ResourceLimit."""
    try:
        return [S.parts for S in enumerate_()]
    except ResourceLimit:
        return None


def _small_posheaves(corpus) -> list[tuple[str, PoSheaf]]:
    return [(name, F) for name, F in corpus if verify_posheaf(F).passed and sum(len(c) for c in F.carriers.values()) <= 14]


def test_position_tables_read_the_restriction_tables(corpus):
    # res_at, numbered once per presheaf, is the one stored table, and
    # restrict and the res view read it: on every generated presheaf and
    # mutant and the fixtures, each written as a document and loaded back,
    # and again with its frame's elements in a random order, both give the
    # document's tables, with the identity at every u -> u; at[u] inverts
    # carriers[u]
    rng = random.Random(3)
    sheaves = [(name, F.sheaf) for name, F in corpus] + [("sheaf_ab", sheaf_ab()), ("P(sheaf_ab)", power_sheaf(sheaf_ab()).sheaf)]
    for name, P in sheaves:
        doc = jsonio.dump_presheaf_doc(P)
        tables = {tuple(key.split("->")): table for key, table in doc["res"].items()}
        tables.update({(u, u): {x: x for x in xs} for u, xs in doc["carriers"].items()})
        loaded = jsonio.load_presheaf(doc)
        for Q in (loaded, _shuffled_presheaf(loaded, rng)):
            assert Q.res == tables, name
            assert all(Q.restrict(u, x, v) == y for (u, v), table in tables.items() for x, y in table.items()), name
            assert all(Q.carriers[u][i] == x for u in Q.frame.elements for x, i in Q.at[u].items()), name
            assert all(len(Q.at[u]) == len(Q.carriers[u]) for u in Q.frame.elements), name


def test_binary_covers_are_the_prefix_of_all_covers(corpus):
    frames = [build() for build in FIXTURE_FRAMES.values()] + [F.frame for _, F in corpus]
    for frame in frames:
        for u in frame.elements:
            every = oracles.covers(frame, u)
            binary = frame.binary_covers(u)
            assert binary == every[: len(binary)]
            assert binary == tuple(c for c in every if len(c) <= 2)


def test_corpus_frames_are_linear_extensions(corpus):
    assert len(corpus) >= 80
    assert all(_is_linear_extension(F.frame) for _, F in corpus)


def test_sheaf_certificates_match_the_exhaustive_check(corpus):
    verdicts = set()
    for name, F in corpus:
        cert = verify_sheaf(F.sheaf)
        passed, entries, witness = oracles.verify_sheaf(F.sheaf)
        assert (cert.passed, cert.witness) == (passed, witness), name
        assert cert.entries == [e for e in entries if len(e["cover"]) <= 2], name
        verdicts.add(passed)
    assert verdicts == {True, False}


def test_pos3_and_subsheaf_witnesses_match_the_exhaustive_checks(corpus):
    verdicts = set()
    for name, F in corpus:
        if not verify_sheaf(F.sheaf).passed:
            continue
        report = verify_posheaf(F)
        assert _report(_subreport(report, "posheaf.POS3")) == _report(oracles.pos3(F)), name
        _, rel = oracles.order_subsheaf(F)
        assert _report(verify_subsheaf(rel)) == _report(oracles.verify_subsheaf(rel)), name
        verdicts.add(report.passed)
    assert verdicts == {True, False}


def test_verdicts_match_on_shuffled_element_orders(corpus):
    rng = random.Random(7)
    for name, F in corpus:
        G = _shuffled(F, rng)
        sheaf = verify_sheaf(G.sheaf).passed
        assert sheaf == oracles.verify_sheaf(G.sheaf)[0], name
        if not sheaf:
            continue
        report = verify_posheaf(G)
        assert _subreport(report, "posheaf.POS3").passed == oracles.pos3(G).passed, name
        _, rel = oracles.order_subsheaf(G)
        assert verify_subsheaf(rel).passed == oracles.verify_subsheaf(rel).passed, name
        assert report.passed == verify_posheaf(F).passed, name


def test_subsheaf_verdicts_on_every_choice_of_parts(SAB):
    # every per-open subset family of sheaf_ab, in the given and in a
    # non-linear element order
    for P in (SAB, _shuffled(PoSheaf(SAB, {}), random.Random(1)).sheaf):
        per_open = [
            [set(c) for r in range(len(P.carriers[u]) + 1) for c in itertools.combinations(P.carriers[u], r)]
            for u in P.frame.elements
        ]
        for parts in itertools.product(*per_open):
            S = SubSheaf(P, parts)
            fast, slow = verify_subsheaf(S), oracles.verify_subsheaf(S)
            assert fast.passed == slow.passed
            if _is_linear_extension(P.frame):
                assert _report(fast) == _report(slow)


GLUING_SIZES = ((4, 2), (5, 2), (6, 3), (8, 2))


def _gluing_corpus() -> list[tuple[str, Presheaf]]:
    """gen_sheaf at GLUING_SIZES, seeds 0-299, with the remove-amalgamation
    mutants. gen_posheaf orders the gen_sheaf of its config, and the mutant
    of a posheaf has the mutant of its sheaf as its sheaf, so these are the
    sheaves of the generated posheaves and their mutants too."""
    out = []
    for opens, carrier in GLUING_SIZES:
        for seed in range(300):
            cfg = GenConfig(seed=seed, max_opens=opens, max_carrier=carrier)
            P = gen_sheaf(gen_frame(cfg), cfg)
            name = f"sheaf({opens},{carrier})[{seed}]"
            out.append((name, P))
            try:
                out.append((f"{name}+remove-amalgamation", mutate(P, "remove-amalgamation", cfg)))
            except RepairFailed:
                pass
    return out


def test_gluing_certificates_match_the_binary_cover_scan():
    # the verdict comes from one square per open, the entries and witness
    # from the binary covers: all three must be the scan's, in every order
    rng = random.Random(11)
    corpus = _gluing_corpus()
    assert len(corpus) >= 1500
    assert sum(not verify_sheaf(P).passed for _, P in corpus) >= 300
    for name, P in corpus:
        for Q in (P, _shuffled_presheaf(P, rng)):
            cert, scan = verify_sheaf(Q), oracles.binary_cover_gluing(Q)
            assert (cert.passed, cert.entries, cert.witness) == (scan.passed, scan.entries, scan.witness), name


def _restriction_closed_part(P: Presheaf, rng: random.Random) -> SubSheaf:
    """Random sections of P with all their restrictions: closed under
    restriction, and often not under amalgamation."""
    parts = {u: set() for u in P.frame.elements}
    for u in P.frame.elements:
        for x in P.carriers[u]:
            if rng.random() < 0.4:
                for v in P.frame.down(u):
                    parts[v].add(P.restrict(u, x, v))
    return SubSheaf(P, parts)


def test_subsheaf_closure_matches_the_binary_cover_scan(corpus):
    # every member of Sub(F), which passes, and seeded parts that fail
    # restriction or amalgamation closure
    rng = random.Random(17)
    reasons = []
    for name, F in _small_posheaves(corpus):
        for G in (F, _shuffled(F, rng)):
            P = G.sheaf
            parts = enumerate_subsheaves(P, budget=Budget(subsheaves=400))
            parts += [_restriction_closed_part(P, rng) for _ in range(6)]
            parts += [
                SubSheaf(P, {u: [x for x in P.carriers[u] if rng.random() < 0.5] for u in P.frame.elements})
                for _ in range(2)
            ]
            for S in parts:
                fast = verify_subsheaf(S)
                assert _report(fast) == _report(oracles.binary_cover_closure(S)), name
                reasons.append(fast.details.get("reason"))
    assert reasons.count(None) >= 1000
    assert reasons.count("amalgamation") >= 100 and reasons.count("restriction") >= 50


def test_square_verdicts_match_the_canonical_and_binary_cover_readings():
    # gluing and amalgamation closure are decided on one square per open:
    # both verdicts must be those of the family search over J↓u and of the
    # binary-cover scan, in the given and in a shuffled element order; the
    # closure report is the scan's, witness included
    rng = random.Random(23)
    corpus = _gluing_corpus()
    glued, closed = [], []
    for i, (name, P) in enumerate(corpus):
        for Q in (P, _shuffled_presheaf(P, rng)):
            passed = verify_sheaf(Q).passed
            assert passed == oracles.canonical_cover_gluing(Q) == oracles.binary_cover_gluing(Q).passed, name
            glued.append(passed)
            if i % 3:
                continue
            for _ in range(3):
                S = _restriction_closed_part(Q, rng)
                report = verify_subsheaf(S)
                assert _report(report) == _report(oracles.binary_cover_closure(S)), name
                assert report.passed == oracles.canonical_cover_closure(S), name
                closed.append(report.passed)
    assert len(corpus) >= 1500 and glued.count(False) >= 2 * 300
    assert len(closed) >= 3000 and closed.count(False) >= 1000


def _watch_family_searches(monkeypatch) -> list:
    """Record (name, cover) at each call of sheaves.compatible_families and
    sheaves._amalgamation_index; the cover is the last argument of both."""
    calls = []
    for name in ("compatible_families", "_amalgamation_index"):

        def watched(*args, name=name, f=getattr(sheaves, name)):
            calls.append((name, tuple(args[-1])))
            return f(*args)

        monkeypatch.setattr(sheaves, name, watched)
    return calls


def test_gluing_searches_families_only_on_the_witness_cover(monkeypatch, boolean_frame):
    # a passing verify_sheaf decides every square by counting; a reject
    # builds one amalgamation index and runs one family search, both on the
    # cover of its witness. Each instance is a fresh copy, since
    # verify_sheaf keeps its certificate and gen_sheaf and mutate have
    # checked theirs already
    rng = random.Random(29)
    calls = _watch_family_searches(monkeypatch)
    instances = _gluing_corpus() + [("omega(2^6)", omega(boolean_frame(6)).sheaf)]
    rejects = 0
    for name, P in instances:
        for Q in (Presheaf(P.frame, P.carriers, P.res), _shuffled_presheaf(P, rng)):
            calls.clear()
            cert = verify_sheaf(Q)
            if cert.passed:
                assert calls == [], name
                continue
            cover = tuple(cert.witness["cover"])
            assert sorted(calls) == [("_amalgamation_index", cover), ("compatible_families", cover)], name
            rejects += 1
    assert rejects >= 2 * 300


def test_internal_subsheaf_reading_matches_the_binary_cover_scan(corpus):
    # ≤ is a subsheaf of F×F iff POS2 and POS3 hold: on the small
    # posheaves, their opposites, their break-POS3 mutants and those
    # mutants' opposites, the top order reversed (mostly not POS2), and a
    # shuffle of each, the verdict decided apart at the germs is POS2 ∧
    # POS3, both subsheaf subreports are the ones read from F×F over the
    # binary covers, and the whole report is the pair-set reading's, whose
    # internal verdict is the germ one
    rng = random.Random(19)
    verdicts, laws = set(), []
    for name, F in _small_posheaves(corpus):
        top = F.frame.top
        family = [F, F.opposite(), PoSheaf(F.sheaf, {**F.orders, top: [(y, x) for x, y in F.orders[top]]})]
        try:
            broken = mutate(F, "break-POS3")
            family += [broken, broken.opposite()]
        except RepairFailed:
            pass
        for H in family:
            for G in (H, _shuffled(H, rng)):
                report = verify_posheaf(G)
                pos2, pos3 = (_subreport(report, f"posheaf.{law}").passed for law in ("POS2", "POS3"))
                internal = _subreport(report, "posheaf.internal_poset")
                assert oracles.order_closed_at_germs(G) == (pos2 and pos3) == internal.subreports[1].passed, name
                expected = oracles.order_subsheaf_report(G)
                assert [_report(r) for r in internal.subreports[:2]] == [_report(r) for r in expected], name
                pair_sets = oracles.posheaf_report(oracles.PairSetPoSheaf(G.sheaf, G.orders))
                assert report.to_json(include_timing=False) == pair_sets.to_json(include_timing=False), name
                verdicts.add(internal.subreports[1].passed)
                laws.append((pos2, pos3))
    assert verdicts == {True, False}
    assert len(laws) >= 288 and laws.count((False, True)) + laws.count((False, False)) >= 29 and laws.count((True, False)) >= 29


def test_a_passing_posheaf_scans_no_binary_cover_for_pos3(corpus, monkeypatch, boolean_frame):
    # POS3 is decided by pull-up at J↓u, and where it holds pull-up flags no
    # pair, so _patching_gap asks for no binary cover: on every passing
    # posheaf of the corpus and on Ω(2^6), each verified afresh. A break-POS3
    # mutant, one of them over a frame listed top first, still scans its
    # covers for the witness.
    callers = []
    binary_covers = FiniteFrame.binary_covers

    def counted(frame, u):
        callers.append(sys._getframe(1).f_code.co_name)
        return binary_covers(frame, u)

    monkeypatch.setattr(FiniteFrame, "binary_covers", counted)
    passing = [F for _, F in corpus if verify_posheaf(F).passed] + [omega(boolean_frame(6))]
    for F in passing:
        callers.clear()
        assert verify_posheaf(PoSheaf(F.sheaf, {u: F.poset(u) for u in F.frame.elements})).passed
        assert "_patching_gap" not in callers
    broken = [F for name, F in corpus + [_top_first_break_pos3()] if name.endswith("break-POS3")]
    for F in broken:
        callers.clear()
        assert not verify_posheaf(PoSheaf(F.sheaf, {u: F.poset(u) for u in F.frame.elements})).passed
        assert "_patching_gap" in callers
    assert len(passing) >= 50 and len(broken) >= 16


def _chain_4() -> FiniteFrame:
    return build_frame(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])


def _non_cover_cases() -> tuple[PoSheaf, Presheaf, PoSheaf]:
    """On the chain 0 < a < b < 1 (a is no lower cover of 1): a posheaf with
    s ≤ t at 1 and their restrictions incomparable at b and a, so the first
    failing POS2 square is (1, a); a presheaf whose restriction 1 → 0 alone
    disagrees with the chains through b and a, so the first failing chain
    is (1, a, 0); and, over frame_2, the 5-cycle a < b < c < d < e < a at
    the top, which is not transitive."""
    chain = _chain_4()
    carriers = {"0": ("*",), "a": ("p", "q"), "b": ("m", "n"), "1": ("s", "t")}
    res = {
        ("1", "b"): {"s": "m", "t": "n"},
        ("1", "a"): {"s": "p", "t": "q"},
        ("b", "a"): {"m": "p", "n": "q"},
    }
    res.update({(u, "0"): {x: "*" for x in carriers[u]} for u in ("a", "b", "1")})
    pos2 = PoSheaf(Presheaf(chain, carriers, res), {"1": [("s", "t")]})
    carriers = {"0": ("o", "o2"), "a": ("p",), "b": ("m",), "1": ("s",)}
    res = {
        ("1", "b"): {"s": "m"},
        ("1", "a"): {"s": "p"},
        ("b", "a"): {"m": "p"},
        ("a", "0"): {"p": "o"},
        ("b", "0"): {"m": "o"},
        ("1", "0"): {"s": "o2"},
    }
    composition = Presheaf(chain, carriers, res)
    xs = "abcde"
    cycle = PoSheaf(
        Presheaf(FIXTURE_FRAMES["FRAME_2"](), {"0": ("*",), "1": tuple(xs)}, {("1", "0"): {x: "*" for x in xs}}),
        {"1": [(xs[i], xs[(i + 1) % 5]) for i in range(5)]},
    )
    return pos2, composition, cycle


def _discrete_top_over_diamond() -> PoSheaf:
    """The 2-chains x1 < x2 over a and z1 < z2 over b of the diamond, their
    product over the top, listed backwards and ordered discretely: the
    cover (a, b) patches five pairs wrongly. POS3 names the first in
    carrier order, (x2z1, x2z2); the first family of ≤ over the cover in
    the search order of F×F restricts (x1z1, x1z2)."""
    top = ("x2z2", "x2z1", "x1z2", "x1z1")
    res = {("1", "a"): {s: s[:2] for s in top}, ("1", "b"): {s: s[2:] for s in top}}
    res.update({(u, "0"): {x: "*" for x in xs} for u, xs in (("a", ("x1", "x2")), ("b", ("z1", "z2")), ("1", top))})
    P = Presheaf(FIXTURE_FRAMES["FRAME_D"](), {"0": ("*",), "a": ("x1", "x2"), "b": ("z1", "z2"), "1": top}, res)
    return PoSheaf(P, {"a": [("x1", "x2")], "b": [("z1", "z2")]})


def test_lower_covers_are_the_covering_opens(corpus):
    rng = random.Random(29)
    frames = [G.frame for _, F in corpus for G in (F, _shuffled(F, rng))]
    for frame in frames:
        lt = frame.poset.lt
        for u in frame.elements:
            covered = [v for v in frame.elements if lt(v, u) and not any(lt(v, z) and lt(z, u) for z in frame.elements)]
            assert frame.lower_covers(u) == tuple(covered)


def test_first_failing_pair_reads_the_lower_covers_and_names_the_first_scanned_failure(boolean_frame):
    # on 2^3 in an element order that is no linear extension: a gap that
    # fails only beyond a lower cover passes, read at the lower covers
    # alone; a gap failing into one open v (a law that composes: the last
    # link of any chain down to v is a lower cover) names the first failing
    # pair of the scan over every pair, which is no lower cover
    rng = random.Random(5)
    frame = boolean_frame(3)
    while _is_linear_extension(frame):
        frame = _shuffled_frame(frame, rng)
    lower = [(u, v) for u in frame.elements for v in frame.lower_covers(u)]
    pairs = [(u, v) for u in frame.elements for v in frame.down(u) if v != u]
    calls = []

    def beyond(u, v):
        calls.append((u, v))
        return None if (u, v) in lower else "beyond"

    assert frame.first_failing_pair(beyond) is None
    assert calls == lower and len(lower) < len(pairs)

    def first_scanned(target):
        return next((u, v) for u, v in pairs if v == target)

    target = next(v for v in frame.elements if v != frame.top and first_scanned(v) not in lower)

    def into(u, v):
        calls.append((u, v))
        return ["into", v] if v == target else None

    calls.clear()
    scan = next((u, v, found) for u, v in pairs for found in [into(u, v)] if found is not None)
    calls.clear()
    assert frame.first_failing_pair(into) == scan == (*first_scanned(target), ["into", target])
    assert scan[:2] not in lower and calls[-1] == scan[:2]


def test_lower_cover_reductions_match_the_scans(corpus):
    # composition and POS2 are decided along lower covers, the internal
    # subsheaf witnesses from F's tables; each must give the scan's report,
    # on the corpus and on hand-built rejects through non-covers, in the
    # given and a shuffled element order
    rng = random.Random(23)
    pos2, composition, cycle = _non_cover_cases()
    assert "a" not in _chain_4().lower_covers("1")
    cases = [(name, H) for name, F in corpus for H in (F, _shuffled(F, rng))]
    patching = _discrete_top_over_diamond()
    hand_built = (("pos2", pos2), ("cycle", cycle), ("patching", patching))
    cases += [(name, H) for name, F in hand_built for H in (F, _shuffled(F, rng))]
    for name, G in cases:
        assert _report(G.sheaf.verify()) == _report(oracles.presheaf_composition(G.sheaf)), name
        if not verify_sheaf(G.sheaf).passed:
            continue
        report = verify_posheaf(G)
        assert _report(_subreport(report, "posheaf.POS2")) == _report(oracles.pos2_scan(G)), name
        internal = _subreport(report, "posheaf.internal_poset")
        assert [_report(r) for r in internal.subreports[:2]] == [_report(r) for r in oracles.order_subsheaf_report(G)], name
    for P in (composition, _shuffled_presheaf(composition, rng)):
        rep = P.verify()
        assert _report(rep) == _report(oracles.presheaf_composition(P))
        if _is_linear_extension(P.frame):
            assert rep.witness == {"triple": ["1", "a", "0"], "section": "s"}
    report = verify_posheaf(pos2)
    assert _subreport(report, "posheaf.POS2").witness == {"square": ["1", "a"], "pair": ["s", "t"]}
    internal = _subreport(report, "posheaf.internal_poset")
    assert internal.subreports[0].witness == {"open": "1", "section": "(s,t)", "at": "a"}
    report = verify_posheaf(patching)
    assert _subreport(report, "posheaf.POS3").witness["patched"] == ["x2z1", "x2z2"]
    internal = _subreport(report, "posheaf.internal_poset")
    assert internal.subreports[1].witness["amalgam_outside"] == ["(x1z1,x1z2)"]
    for G in (cycle, _shuffled(cycle, rng)):
        internal = _subreport(verify_posheaf(G), "posheaf.internal_poset")
        assert _subreport(internal, "internal.transitive").witness == {"open": "1", "chain": ["a", "b", "c"]}


def test_point_rows_after_pos2_match_both_readings(corpus):
    # under POS2 a row is the dom-then-value reading, and that reading is
    # the factoring one too: the oracle reads both pair by pair, on F and
    # on its opposite, and the rows are built on a copy never verified
    compared = 0
    for name, F in _small_posheaves(corpus):
        assert _subreport(verify_posheaf(F), "posheaf.POS2").passed, name
        fresh = PoSheaf(F.sheaf, F.orders)
        for G in (fresh, fresh.opposite()):
            pts = G.points()
            for i, p in enumerate(pts):
                readings = [oracles.point_leq(G, p, q) for q in pts]
                assert G.row(i) == sum(w.holds << k for k, w in enumerate(readings)), (name, i)
                assert G.row(i) == sum(w.factoring << k for k, w in enumerate(readings)), (name, i)
                compared += 1
    assert compared >= 500


def _maps_between(corpus) -> list[tuple[str, SheafMorphism, PoSheaf, PoSheaf]]:
    """(name, α, source, target): on each small posheaf and its opposite,
    the identity into itself, into its opposite and into a break-POS3
    mutant, the constant top map into Ω, and two generated endomorphisms,
    the first also into the opposite."""
    out = []
    for i, (name, F) in enumerate(_small_posheaves(corpus)):
        try:
            mutant = mutate(F, "break-POS3")
        except RepairFailed:
            mutant = None
        for H in (F, F.opposite()):
            ident = SheafMorphism.identity(H.sheaf)
            Om = omega(H.frame)
            top = SheafMorphism(H.sheaf, Om.sheaf, {u: {x: u for x in H.carrier(u)} for u in H.frame.elements})
            out += [(name, ident, H, H), (name, ident, H, H.opposite()), (name, top, H, Om)]
            endos = [gen_endomorphism(H, GenConfig(seed=seed)) for seed in (i, i + 1000)]
            out += [(name, endos[0], H, H.opposite())] + [(name, alpha, H, H) for alpha in endos]
            if mutant is not None:
                out.append((name, ident, H, mutant))
    return out


def test_order_preserving_forms_match_the_forms_decided_apart(corpus):
    # monotonicity at each open and factoring through the order subsheaf
    # are decided by one walk of the pairs; the report is the one whose
    # three forms are each decided apart (MonotoneMap.verify, the order
    # subsheaf of G×G, the point order pair by pair)
    verdicts = []
    for name, alpha, F, G in _maps_between(corpus):
        report = verify_order_preserving(alpha, F, G)
        assert report.to_json(include_timing=False) == oracles.order_preserving_forms(alpha, F, G).to_json(include_timing=False), name
        verdicts.append(report.details.get("verdict", report.passed))
    assert len(verdicts) >= 432 and verdicts.count(False) >= 136


def test_morphism_order_forms_match_the_forms_decided_apart(corpus):
    # the points, per-open and diagonal readings of α ≤ β are decided by
    # one walk of the points; verdict and report are those of the forms
    # decided apart, over every ordered pair of the endomorphisms of each
    # small posheaf and its opposite
    verdicts = []
    for i, (name, F) in enumerate(_small_posheaves(corpus)):
        for H in (F, F.opposite()):
            endos = [SheafMorphism.identity(H.sheaf)] + [gen_endomorphism(H, GenConfig(seed=seed)) for seed in range(i, i + 4)]
            for alpha, beta in itertools.product(endos, repeat=2):
                verdict, report = morphism_leq(alpha, beta, H, H)
                expected_verdict, expected = oracles.morphism_leq_forms(alpha, beta, H, H)
                assert (verdict, report.to_json(include_timing=False)) == (expected_verdict, expected.to_json(include_timing=False)), name
                verdicts.append(verdict)
    assert len(verdicts) >= 1296 and verdicts.count(False) >= 100


def test_restriction_left_adjoints_match_left_adjoint(corpus, diamond_over_chain):
    # on a posheaf that passed verify_posheaf the table of least candidates
    # is the left adjoint with no check of monotonicity or the adjunction:
    # each restriction's entry, built at a lower cover or composed, is the
    # table and report of frames.left_adjoint, which checks the restriction
    # monotone first, read by position (for each position in H(v), the
    # position in H(u) of its image), on every verified posheaf of the
    # corpus, the diamond over the 3-chain under every restriction, and
    # their opposites
    diamonds = [(images, diamond_over_chain(images)) for images in map("".join, itertools.product("st", repeat=4))]
    found = []
    for name, F in corpus + diamonds:
        if not verify_posheaf(F).passed:
            continue
        for H in (F, F.opposite()):
            for u in H.frame.elements:
                for v in H.frame.down(u):
                    if v == u:
                        continue
                    table, rep = _left_adjoint(H, u, v)
                    g, expected = left_adjoint(MonotoneMap(H.poset(u), H.poset(v), H.sheaf.res[u, v]))
                    read = None if g is None else tuple(H.sheaf.at[u][g.mapping[y]] for y in H.carrier(v))
                    assert (table, rep.to_json()) == (read, expected.to_json()), (name, u, v)
                    found.append(rep.passed)
    assert len(found) >= 436 and found.count(False) >= 20


def test_omega_of_2_to_the_5_glues_on_its_canonical_covers(boolean_frame):
    F = omega(boolean_frame(5))
    cert = verify_sheaf(F.sheaf)
    assert cert.passed and verify_posheaf(F).passed
    assert cert.entries == oracles.binary_cover_gluing(F.sheaf).entries
    assert all(e["families"] == len(F.carriers[e["open"]]) for e in cert.entries)


def test_sub_and_dow_lists_match_the_exhaustive_closures(corpus):
    # the oracle is next-closure over the exhaustive closures; the budget
    # must be exceeded on both sides or on neither
    budget = Budget(subsheaves=400)
    compared = 0
    rng = random.Random(3)
    for name, F in _small_posheaves(corpus):
        for G in (F, _shuffled(F, rng)):
            P = G.sheaf
            for u in G.frame.elements:
                sub = _parts_or_limit(lambda: enumerate_subsheaves(P, u, budget=budget))
                dow = _parts_or_limit(lambda: enumerate_downsheaves(G, u, budget=budget))
                sub_oracle = _parts_or_limit(
                    lambda: oracles.next_closure(P, u, lambda secs: oracles.close_to_subsheaf(P, secs), budget)
                )
                dow_oracle = _parts_or_limit(
                    lambda: oracles.next_closure(P, u, lambda secs: oracles.close_to_subsheaf(P, secs, G), budget)
                )
                assert sub == sub_oracle, (name, u)
                assert dow == dow_oracle, (name, u)
                compared += sub is not None
    assert compared >= 250


def test_generate_subsheaf_matches_the_exhaustive_closure(corpus):
    rng = random.Random(13)
    for name, F in corpus:
        if not verify_sheaf(F.sheaf).passed:
            continue
        for G in (F, _shuffled(F, rng)):
            P = G.sheaf
            seeds = [
                SubSheaf(P, {u: [x for x in P.carriers[u] if rng.random() < p] for u in P.frame.elements})
                for p in (0.1, 0.2, 0.3, 0.5)
            ]
            for B in seeds:
                assert generate_subsheaf(P, B, require_closed=False) == oracles.close_to_subsheaf(P, B.points()), name


def _random_parts(P, rng, p: float) -> dict:
    return {u: [x for x in P.carriers[u] if rng.random() < p] for u in P.frame.elements}


def test_bitset_subsheaves_agree_with_the_frozenset_parts_form(corpus):
    # a SubSheaf is one bitset over its parent's points; on arbitrary
    # part-sets of every generated presheaf and mutant, each with its
    # frame's elements also in a random order, every operation agrees with
    # the frozenset-parts form of the oracle
    rng = random.Random(31)
    for name, F in corpus:
        for P in (F.sheaf, _shuffled_presheaf(F.sheaf, rng)):
            given = [_random_parts(P, rng, p) for p in (0.0, 0.2, 0.5, 0.8, 1.0)]
            subs = [SubSheaf(P, parts) for parts in given]
            olds = [oracles.PartsSubSheaf(P, parts) for parts in given]
            for S, old in zip(subs, olds):
                assert S.parts == old.parts and S.key() == old.key(), name
                assert (S.size(), S.describe()) == (old.size(), old.describe()), name
                assert [S.sorted_part(u) for u in P.frame.elements] == [old.sorted_part(u) for u in P.frame.elements], name
                assert all(S.contains(u, x) == old.contains(u, x) for u in P.frame.elements for x in P.carriers[u]), name
                assert all(S.clip(v).parts == old.clip(v).parts for v in P.frame.elements), name
                assert S == SubSheaf(P, old.parts) and hash(S) == hash(SubSheaf(P, old.parts)), name
            for (S, old), (T, old_t) in itertools.product(zip(subs, olds), repeat=2):
                assert S.issubset(T) == old.issubset(old_t) and (S == T) == (old == old_t), name
            u = P.frame.elements[-1]
            outside = {u: [*P.carriers[u], "no-such-section"]}
            with pytest.raises(MalformedInput) as new_error:
                SubSheaf(P, outside)
            with pytest.raises(MalformedInput) as old_error:
                oracles.PartsSubSheaf(P, outside)
            assert str(new_error.value) == str(old_error.value), name


def test_subsheaf_lists_and_bounds_agree_with_the_frozenset_parts_form(corpus):
    # Sub and Dow in member order, the generated subsheaf, bounds and
    # sup_in_open, against the same computations on the frozenset-parts
    # form, whose point rows are looked up one section at a time
    rng = random.Random(37)
    compared = 0
    for name, F in _small_posheaves(corpus):
        for G in (F, _shuffled(F, rng)):
            P = G.sheaf
            for u in G.frame.elements:
                assert [S.parts for S in enumerate_subsheaves(P, u)] == [S.parts for S in oracles.parts_subsheaves(P, u)], (name, u)
                assert [S.parts for S in enumerate_downsheaves(G, u)] == [S.parts for S in oracles.parts_subsheaves(P, u, G.leq)], (name, u)
            for parts in (_random_parts(P, rng, p) for p in (0.1, 0.3)):
                old = oracles.PartsSubSheaf(P, parts)
                assert generate_subsheaf(P, SubSheaf(P, parts), require_closed=False).parts == oracles.parts_generate_subsheaf(P, old).parts, name
                b = bounds(G, SubSheaf(P, parts))
                assert (b.upper_bounds, b.sup, b.inf, b.sup_antichain, b.inf_antichain) == oracles.parts_bounds(G, old), name
            for S in enumerate_subsheaves(P):
                old = oracles.PartsSubSheaf(P, S.parts)
                b = bounds(G, S)
                assert (b.upper_bounds, b.sup, b.inf, b.sup_antichain, b.inf_antichain) == oracles.parts_bounds(G, old), name
                assert all(sup_in_open(G, S, u) == oracles.parts_sup_in_open(G, old.clip(u), u) for u in G.frame.elements), name
                compared += 1
    assert compared >= 200


def test_power_sheaves_agree_with_the_frozenset_parts_form(corpus):
    # ℙF and 𝔻F: each open's member labels in member order, the inclusion
    # order by position and each restriction (the clip) by position
    rng = random.Random(41)
    for name, F in _small_posheaves(corpus):
        for G in (F, _shuffled(F, rng)):
            for power, leq in ((power_sheaf(G.sheaf, verify=False), None), (down_power_sheaf(G, verify=False), G.leq)):
                for u, (labels, pairs, clips) in oracles.parts_power_tables(G.sheaf, leq).items():
                    members = power.carrier(u)
                    assert [power.label(u, s) for s in members] == labels, (name, u)
                    assert [(i, k) for i, s in enumerate(members) for k, t in enumerate(members) if power.leq(u, s, t)] == pairs, (name, u)
                    assert {v: list(power.sheaf.res_at[u, v]) for v in G.frame.down(u)} == clips, (name, u)


def test_budgets_count_members(corpus):
    # Budget(subsheaves=n) admits exactly n members, for one enumeration and
    # for the meter a power sheaf shares across its opens
    enumerations = {
        "Sub": lambda F, budget: enumerate_subsheaves(F.sheaf, budget=budget),
        "Dow": lambda F, budget: enumerate_downsheaves(F, budget=budget),
        "power": lambda F, budget: power_sheaf(F.sheaf, budget=budget, verify=False).carriers.values(),
        "down-power": lambda F, budget: down_power_sheaf(F, budget=budget, verify=False).carriers.values(),
    }
    for name, F in _small_posheaves(corpus):
        for kind, enumerate_ in enumerations.items():
            members = enumerate_(F, Budget())
            n = len(members) if kind in ("Sub", "Dow") else sum(len(c) for c in members)
            assert enumerate_(F, Budget(subsheaves=n)), (name, kind)
            with pytest.raises(ResourceLimit):
                enumerate_(F, Budget(subsheaves=n - 1))


def test_least_and_greatest_match_the_minimal_member_scan(corpus):
    n5, m3 = _non_distributive()
    posets = [build().poset for build in FIXTURE_FRAMES.values()] + [n5, m3]
    posets += [F.poset(u) for _, F in corpus for u in F.frame.elements]
    # reflexive relations that are not partial orders; the poset laws are
    # compared with their scans too
    rng = random.Random(17)
    for _ in range(40):
        pairs = [(x, y) for x in range(5) for y in range(5) if rng.random() < 0.3]
        posets.append(FinitePoset(range(5), pairs, closed=True))
    laws = set()
    for poset in posets:
        rep = poset.verify()
        assert _report(rep) == _report(oracles.poset_laws(poset))
        laws.add(rep.name)
        for r in range(len(poset) + 1):
            for subset in itertools.combinations(poset.elements, r):
                assert poset.least(subset) == oracles.least(poset, subset)
                assert poset.greatest(subset) == oracles.greatest(poset, subset)
    assert {"poset", "poset.antisymmetric", "poset.transitive"} <= laws


def _seeded_relations(rng: random.Random, count: int) -> list[tuple[list, list, bool]]:
    """(elements, pairs, closed) on up to 7 of 9 names in a random order:
    in turn a relation along the element order (often a lattice once
    closed), a random relation with some reflexive pairs, one with a cycle,
    and a path that is not transitive; each closed or not, and a few with
    a pair on an unknown element or a repeated element."""
    out = []
    for case in range(count):
        elements = rng.sample([f"x{i}" for i in range(9)], rng.randint(0, 7))
        n, shape = len(elements), case % 4
        if shape == 0:
            pairs = [(elements[i], elements[k]) for i in range(n) for k in range(i + 1, n) if rng.random() < 0.4]
        elif shape == 1:
            pairs = [(x, y) for x in elements for y in elements if rng.random() < 0.25]
        elif shape == 2:
            ring = rng.sample(elements, rng.randint(0, n))
            pairs = [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
            pairs += [(x, y) for x in elements for y in elements if rng.random() < 0.1]
        else:
            pairs = [(elements[i], elements[i + 1]) for i in range(n - 1)]
        rng.shuffle(pairs)
        if elements and rng.random() < 0.06:
            pairs.insert(rng.randint(0, len(pairs)), rng.choice([(elements[0], "zz"), ("zz", elements[-1])]))
        if elements and rng.random() < 0.03:
            elements.append(elements[0])
        out.append((elements, pairs, rng.random() < 0.5))
    return out


def test_the_row_poset_matches_the_set_based_relation():
    # 600 seeded relations, cyclic, not transitive or not reflexive before
    # closing, closed or not, and with unknown or repeated elements: every
    # operation of the bit-row FinitePoset, its verify report, its
    # opposite, its pairs and its up-sets and down-sets agree with the
    # relation kept as a set of pairs; leq on an element it does not hold
    # is False, and a malformed relation raises the same message
    rng = random.Random(61)
    seen = set()
    for elements, pairs, closed in _seeded_relations(rng, 600):
        try:
            oracle = oracles.SetPoset(elements, pairs, closed=closed)
        except MalformedInput as exc:
            with pytest.raises(MalformedInput) as raised:
                FinitePoset(elements, pairs, closed=closed)
            assert str(raised.value) == str(exc)
            seen.add(str(exc).split(":")[0])
            continue
        poset = FinitePoset(elements, pairs, closed=closed)
        for given, expected in ((poset, oracle), (poset.opposite(), oracle.opposite())):
            rep = given.verify()
            assert _report(rep) == _report(expected.verify()), (elements, pairs, closed)
            seen.add(rep.name)
            assert given.elements == expected.elements and len(given) == len(expected)
            assert given.pairs() == expected.pairs()
            for x in elements + ["zz"]:
                for y in elements + ["zz"]:
                    assert (given.leq(x, y), given.lt(x, y)) == (expected.leq(x, y), expected.lt(x, y))
            for x in elements:
                assert (given.up(x), given.down(x)) == (expected.up(x), expected.down(x))
                for y in elements:
                    assert (given.join(x, y), given.meet(x, y)) == (expected.join(x, y), expected.meet(x, y))
            assert (given.bottom, given.top) == (expected.bottom, expected.top)
            for _ in range(8):
                subset = rng.sample(elements, rng.randint(0, len(elements)))
                for op in ("least", "greatest", "minimal", "join_all", "meet_all", "sorted"):
                    assert getattr(given, op)(subset) == getattr(expected, op)(subset), (op, subset)
    assert {"poset", "poset.antisymmetric", "poset.transitive", "duplicate elements", "relation mentions unknown element"} <= seen


def test_maps_and_adjoints_match_the_pair_scans():
    # random maps between seeded relations, partial orders or not: the
    # monotonicity report walks the comparable pairs to the witness of the
    # scan over every pair, and left_adjoint, which skips its own checks
    # between partial orders, gives the table or report of the scan that
    # checks monotonicity and the adjunction on every pair
    rng = random.Random(71)
    relations = [
        FinitePoset(elements, pairs, closed=closed)
        for elements, pairs, closed in _seeded_relations(rng, 300)
        if elements and len(set(elements)) == len(elements) and all("zz" not in p for p in pairs)
    ]
    found = set()
    for _ in range(1500):
        source, target = rng.choice(relations), rng.choice(relations)
        f = MonotoneMap(source, target, {x: rng.choice(target.elements) for x in source.elements})
        mono = f.verify()
        assert _report(mono) == _report(oracles.monotone_scan(f))
        if not mono.passed:
            found.add("not monotone")
            continue
        g, rep = left_adjoint(f)
        table, expected = oracles.left_adjoint_scan(f)
        assert (None if g is None else g.mapping, _report(rep)) == (table, _report(expected))
        found.add((not source.broken_laws and not target.broken_laws, rep.passed, next(iter(rep.witness or {None: 0}))))
    assert "not monotone" in found
    found.discard("not monotone")
    assert {(True, True), (True, False), (False, True), (False, False)} <= {f[:2] for f in found}
    assert {"element", "not_monotone", "adjunction"} <= {f[2] for f in found}


def _closed_family(rng: random.Random) -> list[int]:
    """Distinct subsets of 4 bits closed under | and &."""
    family = set(rng.sample(range(16), rng.randint(1, 4)))
    while True:
        more = {a | b for a in family for b in family} | {a & b for a in family for b in family}
        if more <= family:
            return rng.sample(sorted(family), len(family))
        family |= more


def _bounded_relations(rng: random.Random, count: int) -> list[tuple[list, list]]:
    """(elements, pairs): a bottom below two or three elements, each of
    those below some of two or three more, and those below a top, with the
    elements in order or shuffled; often a poset with a bottom and a top
    in which some pair has two minimal upper bounds."""
    out = []
    for case in range(count):
        lows = [f"l{i}" for i in range(rng.randint(2, 3))]
        highs = [f"h{i}" for i in range(rng.randint(2, 3))]
        pairs = [("0", x) for x in lows] + [(y, "1") for y in highs]
        pairs += [(x, y) for x in lows for y in highs if rng.random() < 0.7]
        elements = ["0", *lows, *highs, "1"]
        if case % 2:
            rng.shuffle(elements)
        out.append((elements, pairs))
    return out


def test_frame_loading_matches_the_set_based_closure(boolean_frame):
    # close_and_verify_frame's report and dump_frame_doc's document on
    # every fixture frame, generated frame and break-distributivity mutant
    # (the relations tests/test_generate.py loads), N5, M3, seeded
    # relations and bounded posets that are not lattices agree with the
    # definitions on the set-based closure, whose lattice law scans every
    # ordered pair; and
    # frame_of_sets, on closed and open families with repeats, has the
    # inclusion pairs and first gap of the pair scan
    rng = random.Random(73)
    posets = [build().poset for build in FIXTURE_FRAMES.values()] + [boolean_frame(4).poset, *_non_distributive()]
    for seed in range(60):
        cfg = GenConfig(seed=seed, max_opens=4 + seed % 6)
        X = gen_frame(cfg)
        posets += [X.poset, mutate(X, "break-distributivity", cfg)]
    relations = [(list(p.elements), sorted(p.pairs(), key=str)) for p in posets]
    relations += [
        (elements, pairs)
        for elements, pairs, _ in _seeded_relations(rng, 200)
        if elements and len(set(elements)) == len(elements) and all("zz" not in p for p in pairs)
    ]
    relations += _bounded_relations(rng, 220)
    names, lattice_pairs = set(), 0
    for elements, pairs in relations:
        frame, rep = close_and_verify_frame(elements, pairs)
        assert _report(rep) == _report(oracles.frame_laws(oracles.set_frame(elements, pairs))), (elements, pairs)
        names.add(rep.name)
        lattice_pairs += rep.name == "frame.lattice" and "pair" in rep.witness
        closure = oracles.SetPoset(elements, pairs)
        expected = {"elements": elements, "leq": [[x, y] for x in elements for y in closure.sorted(closure.up(x)) if x != y]}
        doc = jsonio.dump_frame_doc(FinitePoset(elements, pairs) if frame is None else frame)
        assert json.dumps(doc) == json.dumps(expected)
    assert names == {"frame", "frame.poset", "frame.lattice", "frame.distributive"}
    assert lattice_pairs >= 91
    gaps = set()
    for case in range(300):
        sets = _closed_family(rng) if case % 2 else [rng.randrange(16) for _ in range(rng.randint(1, 7))]
        labels = [f"s{i}" for i in range(len(sets))]
        poset, _, gap = oracles.frame_of_sets(labels, sets)
        pairs, expected_gap = oracles.inclusion_pairs(labels, sets, dict(zip(sets, labels)))
        assert (poset.pairs(), gap) == (frozenset(pairs), expected_gap)
        gaps.add(gap if gap is None else gap[2])
    assert gaps == {None, "meet", "join"}


def test_down_closure_matches_the_cover_formula(corpus):
    rng = random.Random(11)
    for name, F in corpus:
        if not verify_sheaf(F.sheaf).passed:
            continue
        for G in (F, _shuffled(F, rng)):
            seeds = [SubSheaf(G.sheaf, {u: [x]}) for u in G.frame.elements for x in G.carriers[u]]
            seeds += [
                SubSheaf(G.sheaf, {u: [x for x in G.carriers[u] if rng.random() < 0.4] for u in G.frame.elements})
                for _ in range(4)
            ]
            for S in seeds:
                assert down_closure(G, S).parts == oracles.down_closure(G, S).parts, name


def test_down_closure_is_not_a_binary_cover_formula():
    # S holds the one section over each atom of B3 but is not a subsheaf:
    # only the cover of the top by all three atoms puts the top section in ↓S
    X = _boolean_3()
    assert X.verify().passed
    F = PoSheaf(terminal(X), {})
    S = SubSheaf(F.sheaf, {u: ["*"] for u in ("0", "a", "b", "c")})
    assert down_closure(F, S).parts == oracles.down_closure(F, S).parts
    assert down_closure(F, S).part("abc") == {"*"}
    assert down_closure(F, S).part("ab") == {"*"}


def test_order_closure_matches_the_exhaustive_pull_up(corpus):
    rng = random.Random(5)
    for name, F in corpus:
        if not verify_sheaf(F.sheaf).passed:
            continue
        sampled = {
            u: [(x, y) for x in F.carriers[u] for y in F.carriers[u] if rng.random() < 0.3]
            for u in F.frame.elements
        }
        closure = {u: set(p.pairs()) for u, p in _order_posets(F.sheaf, sampled).items()}
        assert closure == oracles.order_closure(F.sheaf, sampled), name


def test_order_closure_matches_on_every_attempt_of_the_generator():
    # the sampled orders gen_posheaf draws, attempt by attempt up to the one
    # it keeps, rejected ones with cycles among them
    cyclic = 0
    for opens, carrier in ((6, 3), (4, 2), (8, 4)):
        for seed in range(40):
            cfg = GenConfig(seed=seed, max_opens=opens, max_carrier=carrier)
            X = gen_frame(cfg)
            sheaf, kept = gen_sheaf(X, cfg), gen_posheaf(X, cfg).orders
            for attempt in range(30):
                sampled = _sampled_orders(sheaf, cfg, attempt)
                closure = {u: set(p.pairs()) for u, p in _order_posets(sheaf, sampled).items()}
                assert closure == oracles.order_closure(sheaf, sampled), (cfg, attempt)
                if closure == kept:
                    break
                cyclic += any(x != y and (y, x) in pairs for pairs in closure.values() for x, y in pairs)
            else:
                raise AssertionError(f"no attempt gives the kept orders: {cfg}")
    assert cyclic > 0


def test_heyting_equals_the_greatest_candidate():
    for frame in [build() for build in FIXTURE_FRAMES.values()]:
        for x in frame.elements:
            for y in frame.elements:
                assert frame.heyting(x, y) == oracles.heyting(frame, x, y)


def test_bounds_match_the_per_pair_scan(corpus):
    rng = random.Random(19)
    compared = 0
    found = set()
    for name, F in _small_posheaves(corpus):
        for G in (F, _shuffled(F, rng)):
            for S in enumerate_subsheaves(G.sheaf):
                b = bounds(G, S)
                expected = oracles.bounds(G, b.target)
                assert (b.upper_bounds, b.sup, b.inf, b.sup_antichain, b.inf_antichain) == expected, (name, S.describe())
                found.add((b.sup is None, b.inf is None))
                compared += 1
    assert compared >= 1000
    assert found == {(False, False), (True, False), (False, True), (True, True)}


def test_sup_in_open_matches_the_candidate_scan(corpus):
    rng = random.Random(29)
    compared = 0
    found = set()
    for name, F in _small_posheaves(corpus):
        for G in (F, _shuffled(F, rng)):
            for S in enumerate_subsheaves(G.sheaf):
                for u in G.frame.elements:
                    sup = sup_in_open(G, S, u)
                    assert sup == oracles.sup_scan(G, S, u), (name, S.describe(), u)
                    found.add(sup is None)
                    compared += 1
    assert compared >= 1000
    assert found == {True, False}


def _chain_posheaf(frame: FiniteFrame, carriers: dict, images: dict, orders: dict) -> PoSheaf:
    """A posheaf on a chain (every presheaf on a chain is a sheaf, and POS3
    holds over covers that hold their open) from the restrictions to each
    lower cover, composed down the chain."""
    below = sorted(frame.elements, key=lambda u: len(frame.down(u)))
    res = {}
    for i, u in enumerate(below[1:], 1):
        w = below[i - 1]
        step = images.get(u) or {x: carriers[w][0] for x in carriers[u]}
        res[u, w] = step
        for v in below[:i - 1]:
            res[u, v] = {x: res[w, v][y] for x, y in step.items()}
    return PoSheaf(Presheaf(frame, carriers, res), orders)


def _completeness_rejects() -> dict[str, PoSheaf]:
    """Posheaves that fail is_complete first in each way: on the chain
    0 < a < 1, a member {p, q} of Dow and Sub whose upper bounds r, t have
    no least one; the smallest member {0:*} with no least dominating element
    over a (s, t incomparable); and with least elements s and p over a and
    1 but p|_a = t, so no global point; on the chain 0 < a < b < 1, a
    restriction 1 → a that is not surjective, the first failing pair in
    frame order though a is no lower cover of 1. The lower cover 1 → b has
    no left adjoint, so left_adjoint decides 1 → a itself, while its right
    adjoint is a composite."""
    f3, chain = FIXTURE_FRAMES["FRAME_3"](), _chain_4()
    above = [("b", "p"), ("b", "q"), ("p", "r"), ("q", "r"), ("p", "t"), ("q", "t"), ("b", "r"), ("b", "t")]
    return {
        "no sup": _chain_posheaf(f3, {"0": ("*",), "a": ("s",), "1": ("b", "p", "q", "r", "t")}, {}, {"1": above}),
        "no least over a": _chain_posheaf(f3, {"0": ("*",), "a": ("s", "t"), "1": ("s", "t")}, {"1": {"s": "s", "t": "t"}}, {}),
        "no global point": _chain_posheaf(
            f3, {"0": ("*",), "a": ("s", "t"), "1": ("p", "q")}, {"1": {"p": "t", "q": "t"}}, {"a": [("s", "t")], "1": [("p", "q")]}
        ),
        "not surjective at a non-cover": _chain_posheaf(
            chain,
            {"0": ("*",), "a": ("s", "t"), "b": ("s", "t"), "1": ("p",)},
            {"b": {"s": "s", "t": "t"}, "1": {"p": "s"}},
            {"a": [("s", "t")], "b": [("s", "t")]},
        ),
    }


def _completeness_corpus() -> list[tuple[str, PoSheaf]]:
    """The fixture Ω, ℙ and 𝔻 instances, posheaf_ab, m3 and generated
    posheaves, each with its opposite."""
    out = [(f"omega({name})", omega(build())) for name, build in FIXTURE_FRAMES.items()]
    for name in ("FRAME_2", "FRAME_3", "FRAME_D"):
        one = terminal(FIXTURE_FRAMES[name]())
        out += [(f"power({name})", power_sheaf(one, verify=False)), (f"down_power({name})", down_power_sheaf(discrete(one), verify=False))]
    out += [("posheaf_ab", posheaf_ab()), ("m3", m3_posheaf())]
    for opens, carrier in ((4, 2), (5, 2), (6, 2), (6, 3), (8, 2)):
        for seed in range(40):
            cfg = GenConfig(seed=seed, max_opens=opens, max_carrier=carrier)
            out.append((f"gen({opens},{carrier})[{seed}]", gen_posheaf(gen_frame(cfg), cfg)))
    return out + [(f"{name}^op", PoSheaf(F.sheaf, {u: [(y, x) for x, y in rel] for u, rel in F.orders.items()})) for name, F in out]


def _ordered(value):
    """value with each dict replaced by its list of items, so that == also
    compares the order of every dict."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    return value


def _completeness(check) -> tuple:
    """(report JSON, ordered restriction data, members counted) of a
    completeness check returning (certificate, count), or its ResourceLimit."""
    try:
        cert, count = check()
    except ResourceLimit as exc:
        return ("limit", str(exc))
    return cert.report().to_json(include_timing=False), _ordered(cert.restriction_data), count


_RESTATED = {
    "complete.downsheaf_sups",
    "complete.subsheaf_sups",
    "complete.complete_surjections",
    "complete.opposite_per_open",
    "complete.adjoint_square",
}


def test_is_complete_matches_the_member_and_pair_scans():
    # on a reject, the sup-extension forms from germ masks, least points by
    # descent and the restriction laws along lower covers, with composite
    # adjoints, give the report, restriction data and member count of the
    # scans that build every member and every adjoint; on a pass the
    # restated forms hold by proof: the scans pass them too (the corpus
    # check of the proof), every verdict is the scans', the report differs
    # only in their counts, and nothing is enumerated, so a zero budget
    # gives the same report. On the corpus and on hand-built rejects in the
    # given and a shuffled element order
    rng = random.Random(37)
    rejects = _completeness_rejects()
    cases = _completeness_corpus() + [(name, H) for name, F in rejects.items() for H in (F, _shuffled(F, rng))]
    failed = proved = 0
    for name, F in cases:
        fresh = PoSheaf(F.sheaf, F.orders)
        got = _completeness(lambda: (is_complete(F), F._completeness[1]))
        want = _completeness(lambda: oracles.is_complete(fresh))
        if got[0] == "limit" or not got[0]["passed"]:
            assert got == want, name
            failed += got[0] != "limit"
            continue
        report, data, count = got
        assert count == 0 and data == want[1], name
        scanned = want[0]["subreports"]
        assert all(sub["passed"] for sub in scanned if sub["name"] in _RESTATED), name
        assert report == {**want[0], "subreports": [{**sub, "details": {}} if sub["name"] in _RESTATED else sub for sub in scanned]}, name
        G = PoSheaf(F.sheaf, F.orders)
        assert is_complete(G, budget=Budget(subsheaves=0)).report().to_json(include_timing=False) == report, name
        proved += 1
    assert failed >= 100 and proved >= 100
    first = {name: is_complete(F).report().witness for name, F in rejects.items()}
    assert first["no sup"] == {
        "first_failed": "complete.downsheaf_sups",
        "witness": {"subsheaf": "{0:*|a:s|1:b,p,q}", "missing": "sup", "minimal_upper_bounds": [["1", "r"], ["1", "t"]]},
    }
    assert first["no least over a"]["witness"] == {"subsheaf": "{0:*}", "open": "a", "missing": "least dominating element"}
    assert first["no global point"]["witness"] == {"subsheaf": "{0:*}", "missing": "global point extending the sup"}
    F = rejects["not surjective at a non-cover"]
    cert = is_complete(F)
    assert "a" not in F.frame.lower_covers("1")
    assert cert.per_open_form.witness == {"restriction": ["1", "a"], "surjective": False, "left_adjoint": False, "right_adjoint": True}
    assert cert.complete_surjections.witness == {"restriction": ["1", "a"], "not": "surjective"}


def test_a_zero_budget_binds_only_on_the_frame_sheaf_reject_scan():
    # on the complete posheaves of the corpus the completeness check ticks
    # nothing; a frame sheaf's check ticks nothing either and gives the same
    # report under a zero budget, while a reject scan builds ℙF on the power
    # meter, so a zero budget names that meter
    outcomes = set()
    for name, F in _completeness_corpus():
        if not is_complete(F).passed:
            continue
        report = is_frame_sheaf(F)
        G = PoSheaf(F.sheaf, F.orders)
        if report.passed:
            assert F._frame_sheaf[1] == 0, name
            assert is_frame_sheaf(G, budget=Budget(subsheaves=0)).to_json(False) == report.to_json(False), name
        else:
            with pytest.raises(ResourceLimit) as exc:
                is_frame_sheaf(G, budget=Budget(subsheaves=0))
            assert exc.value.what == "power sheaf subsheaves" and F._frame_sheaf[1] > 0, name
        outcomes.add(report.passed)
    assert outcomes == {True, False}


def test_restriction_laws_at_lower_covers_match_every_pair(diamond_over_chain):
    # surjective, monotone, join- and meet-preserving restrictions compose
    # on any reflexive orders, so the lower covers decide; the scan over
    # every pair names the same first failure, on generated sheaves with
    # random relations, mostly not partial orders, on the diamond over the
    # 3-chain with restrictions that break each law, and on their opposites
    rng = random.Random(41)
    cases = [diamond_over_chain(images) for images in ("ssss", "ssst", "sttt", "stst", "tsst")]
    for seed in range(100):
        cfg = GenConfig(seed=seed, max_opens=rng.choice([3, 4, 5, 6]), max_carrier=rng.choice([2, 3]))
        P = gen_sheaf(gen_frame(cfg), cfg)
        for p in (rng.random() for _ in range(10)):
            cases.append(PoSheaf(P, {u: [(x, y) for x in P.carriers[u] for y in P.carriers[u] if rng.random() < p] for u in P.frame.elements}))
    outcomes = set()
    for G in (H for F in cases for H in (F, F.opposite())):
        failure = G.frame.first_failing_pair(lambda u, v: _restriction_gap(G, u, v))
        assert failure == oracles.restriction_scan(G), G.orders
        outcomes.add(None if failure is None else failure[2])
    assert outcomes == {None, "surjective", "monotone", "sup-preserving", "inf-preserving"}


def test_preserves_all_joins_and_meets_match_every_subset(corpus):
    # restriction and identity maps of the corpus (incomplete posheaves and
    # mutants included), the fixture frames, N5, M3 and random reflexive
    # relations, some not antisymmetric or not transitive
    n5, m3 = _non_distributive()
    maps = [MonotoneMap.identity(build().poset) for build in FIXTURE_FRAMES.values()]
    maps += [MonotoneMap.identity(n5), MonotoneMap.identity(m3)]
    for _, F in corpus:
        for u in F.frame.elements:
            maps.append(MonotoneMap.identity(F.poset(u)))
            for v in F.frame.down(u):
                if v != u:
                    maps.append(MonotoneMap(F.poset(u), F.poset(v), dict(F.sheaf.res[(u, v)])))
    rng = random.Random(23)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        source = FinitePoset(range(n), [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.4], closed=True)
        target = FinitePoset(range(m), [(x, y) for x in range(m) for y in range(m) if rng.random() < 0.4], closed=True)
        maps.append(MonotoneMap(source, target, {x: rng.randrange(m) for x in range(n)}))
    verdicts = set()
    for f in maps:
        joins, meets = (_bound_failure(f.source, f.target, _image(f), kind) is None for kind in ("join", "meet"))
        assert joins == oracles.preserves_all_joins(f)
        assert meets == oracles.preserves_all_meets(f)
        verdicts.add((joins, meets))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_bound_witnesses_match_every_ordered_pair(corpus, diamond_over_chain):
    # the posheaves of the corpus and the diamond over the 3-chain, and
    # their opposites, with the identity and two generated endomorphisms:
    # the lattice law, finite sup-completeness per open, a morphism's finite
    # meets and its greatest preimages read the empty bound and the pairs x
    # before y, with the witnesses of the scans over every ordered pair
    diamonds = [(images, diamond_over_chain(images)) for images in ("sstt", "ssst", "tttt")]
    found = set()
    for i, (name, F) in enumerate(corpus + diamonds):
        if not verify_posheaf(F).passed:
            continue
        for H in (F, F.opposite()):
            for u in H.frame.elements:
                for meets in (True, False):
                    assert _lattice_gap(H, u, meets=meets) == oracles.lattice_gap(H, u, meets), (name, u)
            rep = check_finite_completeness(H, mode="sup")
            per_open = _subreport(rep.subreports[0], "finite_sup_complete.per_open_form").witness
            assert per_open == oracles.finite_sup_per_open(H), name
            found.add(tuple(per_open or ()))
            endos = [gen_endomorphism(H, GenConfig(seed=seed)) for seed in (i, i + 1000)]
            for alpha in [SheafMorphism.identity(H.sheaf)] + endos:
                meets_gap = next(filter(None, (_finite_meets_gap(alpha, H, H, u) for u in H.frame.elements)), None)
                assert meets_gap == oracles.frame_morphism_meets(alpha, H, H), name
                found.add(tuple(meets_gap or ()))
                beta, gap = _least_preimages(alpha, H.opposite(), H.opposite())
                maps, witness = oracles.greatest_preimages(alpha, H, H)
                assert (None if beta is None else beta.maps, None if gap is None else {**gap, "missing": "greatest preimage"}) == (maps, witness), name
                found.add(gap is None)
    assert {("open", "missing"), ("open", "pair", "missing"), ("restriction", "not"), ("restriction", "pair")} <= found
    assert {("open", "not"), ("open", "pair", "alpha_of_meet", "meet_of_alphas"), True, False} <= found


def _frame_sheaf_corpus(diamond_over_chain) -> list[tuple[str, PoSheaf]]:
    """The complete posheaves of: posheaf_ab, Ω of the fixture frames, m3,
    the diamond over the 3-chain under every restriction, ℙ and 𝔻 over
    FRAME_2 and FRAME_3 (of the terminal sheaf) and FRAME_D (of sheaf_ab and
    posheaf_ab), as in the acceptance suite's criterion 2, and gen posheaf
    seeds 0-29; with the opposites of all of them."""
    out = [("posheaf_ab", posheaf_ab()), ("m3", m3_posheaf())]
    out += [(f"omega({name})", omega(build())) for name, build in FIXTURE_FRAMES.items()]
    out += [(f"diamond[{''.join(images)}]", diamond_over_chain(images)) for images in itertools.product("st", repeat=4)]
    for name in ("FRAME_2", "FRAME_3"):
        F = discrete(terminal(FIXTURE_FRAMES[name]()))
        out += [(f"power({name})", power_sheaf(F.sheaf)), (f"down_power({name})", down_power_sheaf(F))]
    out += [("power(sheaf_ab)", power_sheaf(sheaf_ab())), ("down_power(posheaf_ab)", down_power_sheaf(posheaf_ab()))]
    for seed in range(30):
        cfg = GenConfig(seed=seed)
        out.append((f"gen[{seed}]", gen_posheaf(gen_frame(cfg), cfg)))
    out += [(f"{name}^op", F.opposite()) for name, F in out]
    return [(name, F) for name, F in out if verify_posheaf(F).passed and is_complete(F).passed]


def test_frame_sheaf_square_matches_frobenius(diamond_over_chain):
    # the Frobenius form decides the defining square on a complete posheaf,
    # and a reject names the exhaustive square's own witness
    rejects = 0
    for name, F in _frame_sheaf_corpus(diamond_over_chain):
        rep = is_frame_sheaf(F)
        witness = oracles.definition_square(F)
        assert rep.passed == (witness is None), name
        assert _subreport(rep, "frame_sheaf.definition_square").witness == witness, name
        assert _subreport(rep, "frame_sheaf.agreement").passed, name
        rejects += not rep.passed
    assert rejects >= 5


def _etale_presheaves() -> list[tuple[str, Presheaf]]:
    """The fixture sheaves, gen_sheaf seeds 0-39 and their first five
    remove-amalgamation mutants (presheaves that are not sheaves)."""
    out = [(f"terminal({name})", terminal(build())) for name, build in FIXTURE_FRAMES.items()]
    out += [(f"omega({name})", omega(build()).sheaf) for name, build in FIXTURE_FRAMES.items()]
    out.append(("sheaf_ab", sheaf_ab()))
    mutants = []
    for seed in range(40):
        cfg = GenConfig(seed=seed, max_opens=6, max_carrier=2)
        P = gen_sheaf(gen_frame(cfg), cfg)
        out.append((f"gen_sheaf[{seed}]", P))
        if len(mutants) < 5:
            try:
                mutants.append((f"gen_sheaf[{seed}]+remove-amalgamation", mutate(P, "remove-amalgamation", cfg)))
            except RepairFailed:
                pass
    return out + mutants


def _random_locale(seed: int) -> LocaleOverX | None:
    """A frame hom between two generated frames, from a random monotone map
    of the target's join-irreducibles to the source's; None when the map
    search gets stuck."""
    rng = random.Random(seed)
    X = gen_frame(GenConfig(seed=seed, max_opens=rng.randint(3, 7)))
    Y = gen_frame(GenConfig(seed=seed + 1000, max_opens=rng.randint(3, 8)))
    p: dict = {}
    for y in Y.join_irreducibles_by_height():
        lower = [p[z] for z in p if Y.poset.lt(z, y)]
        candidates = [j for j in X.join_irreducibles() if all(X.leq(k, j) for k in lower)]
        if not candidates:
            return None
        p[y] = rng.choice(candidates)
    fstar = {x: Y.join_all(y for y in p if X.leq(p[y], x)) for x in X.elements}
    return LocaleOverX(OY=Y, fstar=FrameHom(X, Y, fstar))


@pytest.fixture(scope="module")
def etale_presheaves():
    return _etale_presheaves()


@pytest.fixture(scope="module")
def locales(etale_presheaves):
    """Fixture locales, every open inclusion of the fixture frames, the sheaf
    locales of the presheaves above with at most 40 opens, and random frame
    homs."""
    out = [("identity(FRAME_D)", identity_locale(FIXTURE_FRAMES["FRAME_D"]()))]
    out += [("three_chain_over_2", three_chain_over_2()), ("sections_free", sections_free_locale())]
    for name, build in FIXTURE_FRAMES.items():
        X = build()
        out += [(f"open_inclusion({name},{a})", open_inclusion(X, a)) for a in X.elements]
    for name, P in etale_presheaves:
        E = etale_locale(P)
        if len(E.frame) <= 40:
            out.append((f"lambda({name})", E.locale))
    for seed in range(60):
        f = _random_locale(seed)
        if f is not None:
            out.append((f"random_hom[{seed}]", f))
    return out


def _shuffled_locale(f: LocaleOverX, rng: random.Random) -> LocaleOverX:
    X, Y = _shuffled_frame(f.base, rng), _shuffled_frame(f.OY, rng)
    return LocaleOverX(OY=Y, fstar=FrameHom(X, Y, f.fstar.mapping))


def test_sheaf_locale_matches_the_filtered_product(etale_presheaves):
    # the assignment lists agree in the given and in a shuffled element
    # order, and Budget(lambda_elements=n) admits exactly the n members on
    # both sides
    rng = random.Random(29)
    sizes = set()
    for name, P in etale_presheaves:
        for Q in (P, _shuffled(PoSheaf(P, {}), rng).sheaf):
            E = etale_locale(Q)
            assert E.report.passed, name
            assert sorted(E.assignments) == sorted(oracles.lambda_assignments(Q, budget=Budget())), name
            n = len(E.assignments)
            assert oracles.lambda_assignments(Q, budget=Budget(lambda_elements=n))
            for build in (etale_locale, oracles.lambda_assignments):
                with pytest.raises(ResourceLimit) as exc:
                    build(Q, budget=Budget(lambda_elements=n - 1))
                assert exc.value.what == "sheaf-locale elements"
            sizes.add(n)
    assert len(etale_presheaves) == 54
    assert max(sizes) >= 30


@pytest.fixture(scope="module")
def pointwise_corpus(etale_presheaves):
    """(name, presheaf, its sheaf locale): the étale presheaves, generated
    sheaves and their remove-amalgamation mutants, each in the given and a
    shuffled element order."""
    rng = random.Random(41)
    presheaves = list(etale_presheaves)
    for opens, carrier in ((4, 2), (5, 2), (6, 3), (7, 3)):
        for seed in range(3):
            cfg = GenConfig(seed=seed, max_opens=opens, max_carrier=carrier)
            P = gen_sheaf(gen_frame(cfg), cfg)
            presheaves.append((f"gen_sheaf{(opens, carrier, seed)}", P))
            try:
                presheaves.append((f"gen_sheaf{(opens, carrier, seed)}+remove-amalgamation", mutate(P, "remove-amalgamation", cfg)))
            except RepairFailed:
                pass
    return [(name, Q, etale_locale(Q)) for name, P in presheaves for Q in (P, _shuffled(PoSheaf(P, {}), rng).sheaf)]


def test_sheaf_locale_order_matches_the_pointwise_order(pointwise_corpus):
    # the order read from germ masks is the pointwise order of the
    # assignments, on sheaves and non-sheaves, in given and shuffled element
    # orders
    for name, Q, E in pointwise_corpus:
        pointwise = oracles.pointwise_order(Q.frame, E.assignments, E.frame.elements)
        assert E.frame.poset.pairs() == frozenset(pointwise), name
    assert len(pointwise_corpus) >= 100
    assert sum(not verify_sheaf(Q).passed for _, Q, _ in pointwise_corpus) >= 10


def test_sheaf_locale_lattice_matches_the_pointwise_lattice(pointwise_corpus):
    # the pointwise-lattice subreport is the definition's on every sheaf
    # locale; on families of sets, closed or not, frame_of_sets names the
    # pair that the loop over the inclusion frame's order-derived ops names,
    # and its frame has the verdict of the same relation verified afresh
    for name, Q, E in pointwise_corpus:
        sub = next(r for r in E.report.subreports if r.name == "sheaf_locale.pointwise_lattice")
        oracle = oracles.pointwise_lattice(Q.frame, E.assignments, E.frame)
        assert (sub.passed, sub.witness) == (oracle.passed, oracle.witness) == (True, None), name
    rng = random.Random(53)
    missing = set()
    for i in range(300):
        bits = rng.randint(1, 5)
        sets = set(rng.sample(range(1 << bits), rng.randint(1, min(10, 1 << bits))))
        while i % 2 and any(a & b not in sets or a | b not in sets for a in sets for b in sets):
            sets |= {op(a, b) for a in sets for b in sets for op in (int.__and__, int.__or__)}
        sets = rng.sample(sorted(sets), len(sets))
        labels = [f"s{k}" for k in range(len(sets))]
        poset, frame, gap = oracles.frame_of_sets(labels, sets)
        expected = oracles.mask_lattice(poset, sets)
        assert (gap is None) == expected.passed, sets
        if gap is not None:
            assert expected.witness == {"pair": [gap[0], gap[1]], "closed_under": gap[2]}, sets
            missing.add(gap[2])
        fresh = _frame_report(poset)
        assert (frame is not None) == fresh.passed and (fresh.passed or gap is not None), sets
        if frame is not None:
            assert _report(frame.verify()) == _report(fresh), sets
        if gap is None:
            # the masks read from the least sets answer as the poset does
            oracle = oracles.frame_ops(poset)
            for x, y in rng.sample([(x, y) for x in labels for y in labels], min(30, len(labels) ** 2)):
                for op in ("leq", "join", "meet", "heyting"):
                    assert getattr(frame, op)(x, y) == getattr(oracle, op)(x, y), (sets, op, x, y)
            assert [frame.canonical_cover(u) for u in labels] == [oracle.canonical_cover(u) for u in labels], sets
    assert missing == {"meet", "join"}


def test_sheaf_locale_frame_matches_the_pair_list_construction(pointwise_corpus):
    # Λ's frame, read from its germ masks, has the element order, the order
    # relation and both subreports of the pair list closed to a poset, with
    # the pointwise-lattice loop over the pairs
    for name, Q, E in pointwise_corpus:
        assignments, frame, frame_rep, lattice_rep = oracles.sheaf_locale_frame(E)
        assert E.assignments == assignments and E.frame.elements == frame.elements, name
        assert E.frame.poset.pairs() == frame.poset.pairs(), name
        subs = {r.name: _report(r) for r in E.report.subreports}
        assert subs["frame"] == _report(frame_rep) and subs["sheaf_locale.pointwise_lattice"] == _report(lattice_rep), name


def test_omega_of_2_to_the_5_has_a_sheaf_locale_of_1024_opens(boolean_frame):
    E = etale_locale(omega(boolean_frame(5)).sheaf)
    assert E.report.passed and len(E.frame) == 1024
    assignments, frame, frame_rep, lattice_rep = oracles.sheaf_locale_frame(E)
    assert E.assignments == assignments and E.frame.poset.pairs() == frame.poset.pairs()
    assert [_report(r) for r in E.report.subreports[:2]] == [_report(frame_rep), _report(lattice_rep)]


def test_sheaf_locale_rows_match_the_pair_pass(pointwise_corpus, boolean_frame):
    # Λ's frame is the down-set lattice of the germs, its order's rows read
    # from the germ columns (frames.downset_frame): on the pointwise corpus
    # and Λ(Ω(2^5)) they are the rows of the pair pass over the germ
    # down-sets, which finds no gap, and its Birkhoff masks and points are
    # the pair pass's
    instances = [(name, E) for name, _, E in pointwise_corpus]
    instances.append(("omega(2^5)", etale_locale(omega(boolean_frame(5)).sheaf)))
    for name, E in instances:
        labels, masks = E.frame.elements, oracles.germ_masks(E, E.assignments)
        pairs, gap = oracles.inclusion_pairs(labels, masks, dict(zip(masks, labels)))
        assert gap is None and E.frame.poset.pairs() == frozenset(pairs), name
        _, ref, _ = oracles.frame_of_sets(labels, masks)
        assert (E.frame.poset.up_rows, E.frame.poset.down_rows) == (ref.poset.up_rows, ref.poset.down_rows), name
        assert E.frame.join_irreducibles() == ref.join_irreducibles() and E.frame.masks == ref.masks, name


# (instance, sheaf-locale elements of Λ(P), section search nodes of Γ(Λ(P)),
# sheaf-locale elements of Λ(Γ(Λ(P)))), as the meters counted them when Λ
# ran a pair pass over its opens and Γ met value tables: the germ walk and
# the point search are the same, so the counts are too
METER_COUNTS = [
    ("omega(2^4)", 256, 146, 256),
    ("omega(2^5)", 1024, 454, 1024),
    ("omega(FRAME_3)", 15, 10, 15),
    ("omega(FRAME_6)", 60, 33, 60),
    ("omega(FRAME_D)", 16, 14, 16),
    ("sheaf_ab", 8, 11, 8),
    ("gen_sheaf(6, 3, 1)", 32, 17, 32),
    ("gen_sheaf(6, 3, 1)+remove-amalgamation", 32, 17, 32),
    ("gen_sheaf(6, 3, 2)", 12, 19, 12),
    ("gen_sheaf(6, 3, 2)+remove-amalgamation", 12, 19, 12),
    ("gen_sheaf(7, 3, 1)", 16, 14, 16),
    ("gen_sheaf(7, 3, 1)+remove-amalgamation", 16, 14, 16),
]


def _meter_instance(name: str, boolean_frame) -> Presheaf:
    """The presheaf a METER_COUNTS row names."""
    if name.startswith("omega(2^"):
        return omega(boolean_frame(int(name[8]))).sheaf
    if name.startswith("omega("):
        return omega(FIXTURE_FRAMES[name[6:-1]]()).sheaf
    if name == "sheaf_ab":
        return sheaf_ab()
    opens, carrier, seed = map(int, name[len("gen_sheaf("):name.index(")")].split(", "))
    cfg = GenConfig(seed=seed, max_opens=opens, max_carrier=carrier)
    P = gen_sheaf(gen_frame(cfg), cfg)
    return mutate(P, "remove-amalgamation", cfg) if name.endswith("+remove-amalgamation") else P


def _binds_at(build, limit: str, n: int) -> None:
    """build(Budget(limit=n)) passes and build(Budget(limit=n - 1)) raises."""
    build(Budget(**{limit: n}))
    with pytest.raises(ResourceLimit):
        build(Budget(**{limit: n - 1}))


def test_lambda_and_gamma_meter_counts_are_pinned(boolean_frame):
    # Budget(lambda_elements=n) and Budget(section_nodes=n) bind where they
    # did: the meters count the same germ down-sets and search nodes
    for name, elements, nodes, elements_again in METER_COUNTS:
        P = _meter_instance(name, boolean_frame)
        f = etale_locale(P).locale
        G = cross_sections(f)
        _binds_at(lambda budget: etale_locale(P, budget=budget), "lambda_elements", elements)
        _binds_at(lambda budget: cross_sections(f, budget=budget), "section_nodes", nodes)
        _binds_at(lambda budget: etale_locale(G.sheaf, budget=budget), "lambda_elements", elements_again)


def test_a_section_agrees_with_its_restrictions(pointwise_corpus):
    # ε(P, [(u, s), (v, s|_v)]) = v on every presheaf, by the composition of
    # restrictions; unit records it as that precondition of Λ
    for name, Q, E in pointwise_corpus:
        assert oracles.restriction_agreement(Q), name
        _, rep = unit(Q, E, cross_sections(E.locale))
        assert next(r for r in rep.subreports if r.name == "unit.restriction_agreement").passed, name


def test_cross_sections_match_the_frame_hom_search(locales, boolean_frame):
    # Γ keys each section by its point map φ on J↓u. On the locale corpus,
    # the fixture locales among it, and the identity locale of 2^4, whose Γ
    # is Ω(2^4), in given and shuffled element orders: the carriers, their
    # order and their labels are the frame-hom search's; each restriction,
    # the section whose point map is φ on J↓v, is the value table met with
    # v; and each value table, one lift of O(Y)'s Birkhoff masks per open
    # of Y, is the join of the points below each open and the walk over the
    # up rows of the φ(j)
    rng = random.Random(31)
    counts = set()
    for name, f in locales + [("identity(2^4)", identity_locale(boolean_frame(4)))]:
        for g in (f, _shuffled_locale(f, rng)):
            G = cross_sections(g)
            assert G.report.passed, name
            X = g.base
            p = _point_map(g)
            fibres = {j: [y for y in p if p[y] == j] for j in X.join_irreducibles()}
            for u in X.elements:
                expected = oracles.sections_over(g, u, BudgetMeter("oracle", 10**7))
                assert list(G.sheaf.carriers[u]) == expected, (name, u)
                assert [G.sheaf.label(u, s) for s in expected] == [f"s{i}" for i in range(len(expected))], (name, u)
                for point, s in _point_sections(g, fibres, u, BudgetMeter("count", 10**7)):
                    assert s.values == oracles.point_value_table(g, u, point) == oracles.up_row_value_table(g, u, point), (name, u)
                for v in X.down(u):
                    for s in expected:
                        assert G.sheaf.restrict(u, s, v) == oracles.restrict_by_meet(X, s, v), (name, u, v)
            counts.add(sum(len(c) for c in G.sheaf.carriers.values()) > len(X))
    assert len(locales) >= 100
    assert counts == {True, False}


def test_value_tables_match_the_up_row_walk(etale_presheaves, boolean_frame):
    # each value table, one lift of O(Y)'s Birkhoff mask m_Y(y) ∩ image(φ)
    # per open of Y, is the walk over the up rows of the φ(j), on sheaf
    # locales the frame-hom search above leaves out: Λ of every étale
    # presheaf, those over 40 opens included, and Λ(Ω(2^5)), whose O(Y) has
    # 1024 opens
    instances = [(f"lambda({name})", etale_locale(P).locale) for name, P in etale_presheaves]
    instances.append(("lambda(omega(2^5))", etale_locale(omega(boolean_frame(5)).sheaf).locale))
    for name, f in instances:
        p = _point_map(f)
        fibres = {j: [y for y in p if p[y] == j] for j in f.base.join_irreducibles()}
        for u in f.base.elements:
            for point, s in _point_sections(f, fibres, u, BudgetMeter("count", 10**7)):
                assert s.values == oracles.up_row_value_table(f, u, point), (name, u)
    assert len(instances) == 55 and max(len(f.OY) for _, f in instances) == 1024


def test_section_budget_counts_point_search_nodes(locales):
    # Budget(section_nodes=n) admits exactly the n nodes of the point search
    for name, f in locales[::7]:
        p = _point_map(f)
        fibres = {j: [y for y in p if p[y] == j] for j in f.base.join_irreducibles()}
        meter = BudgetMeter("count", 10**7)
        for u in f.base.elements:
            _point_sections(f, fibres, u, meter)
        assert cross_sections(f, budget=Budget(section_nodes=meter.count)).report.passed, name
        with pytest.raises(ResourceLimit) as exc:
            cross_sections(f, budget=Budget(section_nodes=meter.count - 1))
        assert exc.value.what == "section search nodes"


def test_local_homeomorphism_matches_the_base_open_search(locales):
    rng = random.Random(37)
    verdicts = set()
    for name, f in locales:
        for g in (f, _shuffled_locale(f, rng)):
            rep = is_local_homeomorphism(g)
            assert _report(rep) == _report(oracles.local_homeomorphism(g)), name
            verdicts.add(rep.passed)
    assert verdicts == {True, False}


def _chain(n: int) -> FiniteFrame:
    names = [f"c{i}" for i in range(n)]
    return build_frame(names, list(zip(names, names[1:])))


def _random_relations(rng: random.Random) -> list[FinitePoset]:
    """200 relations on at most nine elements: raw reflexive relations (most
    are not posets), closures of random relations (cycles and missing
    bounds), and random orders between an added bottom and top (lattices,
    distributive or not, and bounded posets that are not lattices)."""
    out = []
    for i in range(200):
        n = rng.randint(1, 5)
        names = [str(k) for k in range(n)]
        if i % 3 == 0:
            pairs = [(x, y) for x in names for y in names if rng.random() < 0.4]
            out.append(FinitePoset(names, pairs, closed=True))
        elif i % 3 == 1:
            out.append(FinitePoset(names, [(x, y) for x in names for y in names if x != y and rng.random() < 0.3]))
        else:
            names = [str(k) for k in range(n + 2)]
            pairs = [(x, y) for a, x in enumerate(names) for y in names[a + 1:] if rng.random() < 0.5]
            pairs += [("bot", x) for x in names] + [(x, "top") for x in names]
            order = ["bot", *names, "top"]
            rng.shuffle(order)
            out.append(FinitePoset(order, pairs))
    return out


def _frame_corpus(etale_presheaves) -> list[tuple[str, FinitePoset]]:
    """The relations of frames and of relations that are not frames."""
    n5, m3 = _non_distributive()
    frames = [(name, build()) for name, build in FIXTURE_FRAMES.items()]
    frames += [("B3", _boolean_3())] + [(f"chain{n}", _chain(n)) for n in (1, 2, 5)]
    frames += [(f"lambda({name})", etale_locale(P).frame) for name, P in etale_presheaves]
    out = [(name, frame.poset) for name, frame in frames] + [("N5", n5), ("M3", m3)]
    out += [(f"relation[{i}]", poset) for i, poset in enumerate(_random_relations(random.Random(41)))]
    return out


def _frame_report(poset: FinitePoset):
    """The report of the frame built on the relation, or of its rejection."""
    try:
        return FiniteFrame(poset).verify()
    except NOT_A_FRAME as exc:
        return exc.report


def test_frame_verify_matches_the_exhaustive_laws(etale_presheaves):
    # name, verdict, witness and details agree in the given and in a shuffled
    # element order, the poset law that failed included; the Heyting law
    # never fails once distributivity holds. The laws read a frame's own
    # ops, and the definitions on the poset of a relation that is no frame
    rng = random.Random(43)
    names = set()
    missing = set()
    for name, poset in _frame_corpus(etale_presheaves):
        for given in (poset, _shuffled_poset(poset, rng)):
            rep = _frame_report(given)
            ops = FiniteFrame(given) if rep.passed else oracles.frame_ops(given)
            assert _report(rep) == _report(oracles.frame_laws(ops)), name
            names.add(rep.details.get("law", rep.name))
            if rep.name == "frame.lattice":
                missing.add(rep.witness["missing"])
    assert names == {"frame", "poset.antisymmetric", "poset.transitive", "frame.lattice", "frame.distributive"}
    assert missing == {"bottom", "top", "join", "meet"}


def test_a_relation_that_is_no_frame_builds_no_frame():
    # N5, M3, a 2-cycle and a relation without a bottom: FiniteFrame raises
    # the error build_frame raises, with close_and_verify_frame's report
    relations = {
        "N5": (["0", "x", "y", "z", "1"], [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")]),
        "M3": (["0", "p", "q", "r", "1"], [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")]),
        "cycle": (["p", "q"], [("p", "q"), ("q", "p")]),
        "bottomless": (["p", "q", "1"], [("p", "1"), ("q", "1")]),
    }
    expected = {"N5": NotDistributive, "M3": NotDistributive, "cycle": NotAPoset, "bottomless": NotALattice}
    for name, (elements, pairs) in relations.items():
        frame, report = close_and_verify_frame(elements, pairs)
        assert frame is None, name
        with pytest.raises(expected[name]) as built:
            build_frame(elements, pairs)
        with pytest.raises(expected[name]) as wrapped:
            FiniteFrame(FinitePoset(elements, pairs))
        for exc in (built.value, wrapped.value):
            assert str(exc) == report.name and exc.report.to_json(False) == report.to_json(False), name


def _outcome(op, *args):
    """op(*args), or the name of the PosheafError it raises."""
    try:
        return op(*args)
    except PosheafError as exc:
        return type(exc).__name__


def test_frame_ops_match_the_poset_definitions(etale_presheaves):
    # on frames the masks answer, and agree with the definitions on the
    # poset alone, in given and shuffled element orders; a relation that is
    # no frame builds none
    rng = random.Random(59)
    verdicts = set()
    for name, poset in _frame_corpus(etale_presheaves):
        for given in (poset, _shuffled_poset(poset, rng)):
            try:
                frame = FiniteFrame(given)
            except NOT_A_FRAME:
                verdicts.add(False)
                continue
            verdicts.add(True)
            oracle = oracles.frame_ops(given)
            elems = frame.elements
            pairs = [(x, y) for x in elems for y in elems]
            pairs = pairs if len(pairs) <= 150 else rng.sample(pairs, 150)
            for i, (x, y) in enumerate(pairs):
                for op in ("leq", "join", "meet", "heyting") if i < 40 else ("leq", "join", "meet"):
                    assert _outcome(getattr(frame, op), x, y) == _outcome(getattr(oracle, op), x, y), (name, op, x, y)
            for _ in range(20):
                xs = rng.sample(elems, rng.randint(0, min(4, len(elems))))
                for op in ("join_all", "meet_all"):
                    assert _outcome(getattr(frame, op), xs) == _outcome(getattr(oracle, op), xs), (name, op, xs)
            for u in elems:
                for op in ("down", "up", "canonical_cover", "binary_covers"):
                    assert _outcome(getattr(frame, op), u) == _outcome(getattr(oracle, op), u), (name, op, u)
    assert verdicts == {True, False}


def test_a_passing_frame_answers_from_its_masks(monkeypatch, boolean_frame):
    # loading a frame document that passes and building Λ read the order's
    # rows: no pair set, up-set or down-set is built and no least or
    # greatest scan runs; after verify, a passing frame's ops run no least
    # or greatest scan at all
    sheaves = []
    for seed in range(10):
        cfg = GenConfig(seed=seed, max_opens=6, max_carrier=2)
        sheaves.append(gen_sheaf(gen_frame(cfg), cfg))
    given = [build() for build in FIXTURE_FRAMES.values()] + [boolean_frame(4)]
    given += [gen_frame(GenConfig(seed=seed, max_opens=8)) for seed in range(10)]
    docs = [jsonio.dump_frame_doc(frame) for frame in given]
    calls = []

    def spy(names):
        for name in names:
            original = getattr(FinitePoset, name)
            monkeypatch.setattr(FinitePoset, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))

    spy(("pairs", "up", "down", "least", "greatest", "join", "meet", "join_all", "meet_all"))
    frames = [jsonio.load_frame(doc) for doc in docs]
    frames += [etale_locale(P).frame for P in sheaves]
    assert calls == []
    assert [jsonio.dump_frame_doc(frame) for frame in frames[: len(docs)]] == docs
    spy(("least_index", "greatest_index"))
    for frame in frames:
        assert frame.verify().passed
        calls.clear()
        elems = frame.elements
        for x in elems:
            for y in elems[:12]:
                frame.leq(x, y), frame.join(x, y), frame.meet(x, y), frame.heyting(x, y)
        frame.join_all(elems[:5]), frame.meet_all(elems[-5:]), frame.bottom, frame.top
        for u in elems:
            frame.canonical_cover(u), frame.binary_covers(u), frame.lower_covers(u), frame.up(u)
        assert calls == [], frame.elements


def _monotone_map(source: FiniteFrame, target: FiniteFrame, rng: random.Random) -> FrameHom:
    """A random monotone map, chosen along a linear extension of the source;
    most of them keep top, and bottom too, so that the binary joins decide."""
    mapping: dict = {}
    pinned = rng.random() < 0.8
    for x in sorted(source.elements, key=lambda x: len(source.poset.down(x))):
        floor = [mapping[v] for v in source.poset.down(x) if v != x]
        if pinned and x in (source.bottom, source.top):
            mapping[x] = target.bottom if x == source.bottom else target.top
        else:
            mapping[x] = rng.choice([t for t in target.elements if all(target.leq(f, t) for f in floor)])
    return FrameHom(source, target, mapping)


def test_frame_hom_joins_match_every_subset(locales):
    # random monotone maps between the fixture frames, B3 and chains, and
    # the frame homs of the locale corpus, in given and shuffled orders: the
    # finite meets have the every-pair oracle's verdict and witness, and a
    # hom whose finite meets hold has the oracle's join verdict and witness
    rng = random.Random(47)
    frames = [build() for build in FIXTURE_FRAMES.values()] + [_boolean_3(), _chain(3), _chain(4)]
    homs = [f.fstar for _, f in locales]
    homs += [_monotone_map(rng.choice(frames), rng.choice(frames), rng) for _ in range(300)]
    homs += [FrameHom(_shuffled_frame(h.source, rng), _shuffled_frame(h.target, rng), h.mapping) for h in homs[::3]]
    names = []
    sizes = set()
    for h in homs:
        rep = verify_frame_hom(h)
        names.append(rep.name)
        meets = oracles.frame_hom_meets(h)
        if rep.name == "frame_hom.finite_meets":
            assert (rep.passed, rep.witness) == (meets.passed, meets.witness), h.mapping
        else:
            assert meets.passed
            expected = oracles.frame_hom_joins(h)
            assert (rep.passed, rep.witness) == (expected.passed, expected.witness), h.mapping
        if rep.name == "frame_hom.joins":
            sizes.add(len(rep.witness["subset"]))
    assert max(len(h.source) for h in homs) <= 12
    assert {"frame_hom", "frame_hom.finite_meets", "frame_hom.joins"} == set(names)
    # some first failing subsets are triples, past the failing pairs
    assert {0, 2, 3} <= sizes


def test_frame_hom_join_verdicts_on_sources_past_the_subset_scan(etale_presheaves):
    # past 12 source opens the witness is the first failing empty or binary
    # join, and the verdict still matches every subset: the characters
    # x ↦ [a ≤ x] into the two-element chain keep every meet, and keep every
    # join iff a is join-irreducible
    two = _chain(2)
    sources = [E.frame for E in (etale_locale(P) for _, P in etale_presheaves) if len(E.frame) > 12]
    source = min(sources, key=len)
    verdicts = []
    for a in source.elements:
        h = FrameHom(source, two, {x: "c1" if source.leq(a, x) else "c0" for x in source.elements})
        rep = verify_frame_hom(h)
        assert rep.passed == oracles.frame_hom_joins(h).passed == (a in source.join_irreducibles())
        if not rep.passed:
            subset = rep.witness["subset"]
            assert len(subset) <= 2 and h(source.join_all(subset)) == rep.witness["got"] != rep.witness["expected"]
        verdicts.append(rep.passed)
    assert len(source) > 12 and set(verdicts) == {True, False}


def _top_first_break_pos3() -> tuple[str, PoSheaf]:
    """A break-POS3 mutant of Ω(B3) with B3 listed top first, outside every
    linear extension of its order (the corpus frames all list one)."""
    frame = _boolean_3()
    top_first = FiniteFrame(FinitePoset(frame.elements[::-1], frame.poset.pairs(), closed=True))
    return "omega(B3 top first)+break-POS3", mutate(omega(top_first), "break-POS3")


def _order_cases(corpus) -> list[tuple[str, object, dict]]:
    """(name, sheaf, order pairs per open): the corpus (fixtures, Ω of the
    fixture frames, generated posheaves and their break-POS3 and
    remove-amalgamation mutants), a break-POS3 mutant over a frame listed
    top first, ℙ and 𝔻 of the fixtures, and 600
    random reflexive relations on generated sheaves: dense ones, subsets of
    a ranking (antisymmetric, maybe not transitive) and a ranking in full
    (a total order per open, maybe not restriction-monotone)."""
    cases = [(name, F.sheaf, {u: list(rel) for u, rel in F.orders.items()}) for name, F in corpus + [_top_first_break_pos3()]]
    powers = [("power(sheaf_ab)", power_sheaf(sheaf_ab(), verify=False)), ("down_power(posheaf_ab)", down_power_sheaf(posheaf_ab(), verify=False))]
    for name in ("FRAME_2", "FRAME_3", "FRAME_D"):
        one = terminal(FIXTURE_FRAMES[name]())
        powers += [(f"power({name})", power_sheaf(one, verify=False)), (f"down_power({name})", down_power_sheaf(discrete(one), verify=False))]
    cases += [(name, F.sheaf, {u: list(rel) for u, rel in F.orders.items()}) for name, F in powers]
    rng = random.Random(43)
    sheaves = (gen_sheaf(gen_frame(cfg), cfg) for cfg in (GenConfig(seed=seed, max_opens=6, max_carrier=3) for seed in itertools.count()))
    for seed, P in enumerate(itertools.islice((P for P in sheaves if sum(map(len, P.carriers.values())) >= 8), 60)):
        for k in range(10):
            orders = {}
            for u in P.frame.elements:
                xs = list(P.carriers[u])
                rng.shuffle(xs)
                rank = {x: i for i, x in enumerate(xs)}
                pairs = [(x, y) for x in xs for y in xs]
                if k % 3 == 0:
                    orders[u] = [p for p in pairs if rng.random() < 0.4]
                else:
                    orders[u] = [(x, y) for x, y in pairs if rank[x] <= rank[y] and (k % 3 == 2 or rng.random() < 0.6)]
            cases.append((f"random[{seed}.{k}]", P, orders))
    return cases


def test_posheaf_rows_match_the_pair_sets(corpus):
    # PoSheaf keeps each order as the rows of one FinitePoset per open; the
    # pair-set reading must give the same orders, comparisons, sorted
    # pairs, opposite, verify_posheaf report and malformed-pair message,
    # for each case and its opposite
    broken = {"posheaf.POS1": 0, "posheaf.POS2": 0, "internal.antisymmetric": 0, "internal.transitive": 0}
    randoms = 0
    for name, sheaf, orders in _order_cases(corpus):
        F, O = PoSheaf(sheaf, orders), oracles.PairSetPoSheaf(sheaf, orders)
        found = set()
        for G, H in ((F, O), (F.opposite(), O.opposite())):
            assert G.orders == H.orders, name
            for u in sheaf.frame.elements:
                xs = sheaf.carriers[u] + ("?",)
                assert [G.leq(u, x, y) for x in xs for y in xs] == [H.leq(u, x, y) for x in xs for y in xs], name
                assert G.sorted_pairs(u) == H.sorted_pairs(u), name
            report = verify_posheaf(G).to_json(include_timing=False)
            assert report == oracles.posheaf_report(H).to_json(include_timing=False), name
            found |= {r["name"] for r in _failed_reports(report)}
        for law in broken:
            broken[law] += law in found
        randoms += name.startswith("random") and "posheaf" in found
        u = next(u for u in reversed(sheaf.frame.elements) if sheaf.carriers[u])
        bad = {**orders, u: list(orders.get(u, ())) + [(sheaf.carriers[u][0], "?")]}
        messages = []
        for build in (PoSheaf, oracles.PairSetPoSheaf):
            with pytest.raises(MalformedInput) as exc:
                build(sheaf, bad)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], name
    assert randoms >= 500
    assert min(broken.values()) >= 50, broken


def _failed_reports(report: dict):
    """The failed reports of a report JSON, depth first."""
    if not report["passed"]:
        yield report
    for sub in report.get("subreports", ()):
        yield from _failed_reports(sub)


def test_a_passing_posheaf_builds_no_pair_set(monkeypatch, boolean_frame):
    # verify_posheaf, is_complete and enumerate_downsheaves read the rows:
    # a passing run computes no FinitePoset.pairs() and no sorted pair
    # list, and the opposite swaps the rows and passes no pairs
    instances = [posheaf_ab(), m3_posheaf(), omega(boolean_frame(4))] + [omega(build()) for build in FIXTURE_FRAMES.values()]
    for seed in range(10):
        cfg = GenConfig(seed=seed, max_opens=6, max_carrier=2)
        instances.append(gen_posheaf(gen_frame(cfg), cfg))
    calls = []
    for cls, name in ((FinitePoset, "pairs"), (PoSheaf, "sorted_pairs")):
        original = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    init = PoSheaf.__init__
    monkeypatch.setattr(PoSheaf, "__init__", lambda self, sheaf, orders: calls.append(dict(orders)) or init(self, sheaf, orders))
    completed = 0
    for F in instances:
        assert verify_posheaf(F).passed
        completed += is_complete(F).passed
        assert enumerate_downsheaves(F)
        assert verify_posheaf(F.opposite()).passed and F.opposite().opposite() is F
        assert all(call == {} for call in calls), calls
    assert completed >= 5


def _morphism_corpus() -> list[SheafMorphism]:
    """The endomorphisms of generated posheaves (seeds 0-79, at most 4, 6
    and 8 opens) and their break-naturality mutants, the identities of Ω of the same
    frames and their break-meet-square mutants, and three random per-open
    maps of each of those sheaves."""
    rng, out = random.Random(35), []
    for seed in range(80):
        for opens in (4, 6, 8):
            cfg = GenConfig(seed=seed, max_opens=opens)
            X = gen_frame(cfg)
            F = gen_posheaf(X, cfg)
            alpha = gen_endomorphism(F, cfg)
            Om, ident = gen_frame_morphism(X, cfg)
            out += [alpha, ident]
            for kind, instance in (("break-naturality", (F, alpha)), ("break-meet-square", (Om, ident))):
                try:
                    mutant = mutate(instance, kind, cfg)
                except RepairFailed:
                    continue
                out.append(mutant[1] if isinstance(mutant, tuple) else mutant)
            for P in (F.sheaf, Om.sheaf):
                out += [SheafMorphism(P, P, {u: {x: rng.choice(xs) for x in xs} for u, xs in P.carriers.items()}) for _ in range(3)]
    return out


def _uncomposed_chain() -> Presheaf:
    """On the 3-chain 0 < a < 1, two sections at each open, and a
    restriction 1 -> 0 that is not the composite of 1 -> a -> 0."""
    res = {("1", "a"): {"x": "s", "y": "t"}, ("a", "0"): {"s": "p", "t": "q"}, ("1", "0"): {"x": "q", "y": "p"}}
    return Presheaf(FIXTURE_FRAMES["FRAME_3"](), {"0": ("p", "q"), "a": ("s", "t"), "1": ("x", "y")}, res)


def test_position_naturality_names_the_element_scans_witness():
    # SheafMorphism.verify scans every v < u on positions; its report is the
    # element scan's. It needs no law of either presheaf: on one whose
    # restrictions do not compose, a map natural at the lower covers can
    # still fail
    P = _uncomposed_chain()
    assert not P.verify().passed
    tables = [[dict(zip(xs, images)) for images in itertools.product(xs, repeat=len(xs))] for xs in P.carriers.values()]
    chain = [SheafMorphism(P, P, dict(zip(P.carriers, choice))) for choice in itertools.product(*tables)]
    squares = []
    for alpha in _morphism_corpus() + chain:
        report = alpha.verify()
        assert report.to_json(include_timing=False) == oracles.naturality_scan(alpha).to_json(include_timing=False)
        squares.append(None if report.passed else tuple(report.witness["square"]))
    constant = SheafMorphism(P, P, {u: {x: xs[0] for x in xs} for u, xs in P.carriers.items()})
    assert constant.verify().witness["square"] == ["1", "0"]
    assert len(squares) > 1400 and None in squares and len(set(squares)) >= 8


def test_point_image_and_compose_read_the_source_order_not_the_tables_order():
    # from_tables keeps its dict as given; a dict built in another order
    # (gen_endomorphism's chosen tables are built in height order) names the
    # same point image and the same composites
    for alpha in _morphism_corpus()[:60]:
        shuffled = SheafMorphism.from_tables(alpha.source, alpha.target, dict(reversed(alpha.at.items())))
        points = enumerate_points(alpha.source)
        assert shuffled.point_image == tuple(alpha.target.position(p.dom, alpha(*p)) for p in points)
        if alpha.source is alpha.target:
            twice = shuffled.compose(shuffled)
            assert list(twice.at) == list(alpha.source.carriers)
            assert twice.maps == alpha.compose(alpha).maps


def test_position_bound_and_galois_kernels_match_the_element_scans():
    # the bound kernel and the Galois row test read positions; the scans of
    # each pair through the posets' (frames') own join, meet and leq on
    # elements are the oracles. Random maps and monotone maps between the
    # posets of the fixture frames, N5, M3, generated stalks and Ω, the
    # restrictions of those posheaves with their left adjoints, and random
    # monotone maps between frames
    from posheaf.frames import galois_gap

    rng = random.Random(35)
    n5, m3 = _non_distributive()
    posets = [build().poset for build in FIXTURE_FRAMES.values()] + [n5, m3]
    pairs = []
    for seed in range(8):
        cfg = GenConfig(seed=seed, max_opens=6)
        X = gen_frame(cfg)
        for F in (gen_posheaf(X, cfg), omega(X)):
            posets += [F.poset(u) for u in F.frame.elements if F.carrier(u)]
            for u, v in ((u, v) for u in F.frame.elements for v in F.frame.down(u) if v != u):
                r = MonotoneMap(F.poset(u), F.poset(v), F.sheaf.res[u, v])
                if r.verify().passed:
                    g, _ = left_adjoint(r)
                    pairs += [(r, r)] if g is None else [(g, r), (r, g)]
    for _ in range(3000):
        A, B = rng.choice(posets), rng.choice(posets)
        f = MonotoneMap(A, B, {x: rng.choice(B.elements) for x in A.elements})
        pairs.append((f, MonotoneMap(B, A, {y: rng.choice(A.elements) for y in B.elements})))
    frames = [build() for build in FIXTURE_FRAMES.values()] + [_boolean_3(), _chain(3)]
    homs = [_monotone_map(rng.choice(frames), rng.choice(frames), rng) for _ in range(300)]
    found = set()
    for f in [f for pair in pairs for f in pair] + homs:
        image = _image(f)
        src, tgt = getattr(f.source, "poset", f.source), getattr(f.target, "poset", f.target)
        for kind in ("join", "meet"):
            got = _bound_failure(src, tgt, image, kind)
            assert got == oracles.bound_failure(f, kind), (kind, f.mapping)
            found.add(None if got is None else len(got["subset"]))
    for left, right in pairs:
        got = galois_gap(right.source, left.source, _image(left), _image(right))
        assert got == oracles.galois_scan(left, right).witness
        found.add(got is None)
    assert found == {None, 0, 2, True, False}
