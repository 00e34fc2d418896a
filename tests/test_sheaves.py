"""Presheaf/sheaf layer: gluing, subsheaf generation, points, epsilon,
subterminals, morphisms."""
from __future__ import annotations

import itertools
import json

import pytest

from posheaf import jsonio
from posheaf.cli import run
from posheaf.report import MalformedInput, MissingRestriction, NotRestrictionClosed, SectionNotInCarrier
from posheaf.sheaves import (
    Presheaf,
    SheafMorphism,
    SubSheaf,
    compatible_families,
    enumerate_points,
    enumerate_subsheaves,
    epsilon,
    full_subsheaf,
    generate_subsheaf,
    product_sheaf,
    sheaf_iso,
    subterminal,
    terminal,
    verify_morphism,
    verify_presheaf,
    verify_restriction_closed,
    verify_sheaf,
    verify_subsheaf,
)

from oracles import agreement_meet_diagnostic, covers, order_subsheaf, sheaf_on_down


def brute_force_subsheaves(F):
    """Oracle: scan every per-open subset family for the subsheaf laws."""
    frame = F.frame
    opens = frame.elements
    out = []
    subsets_per_open = [
        [frozenset(c) for r in range(len(F.carriers[u]) + 1) for c in itertools.combinations(F.carriers[u], r)]
        for u in opens
    ]
    for combo in itertools.product(*subsets_per_open):
        cand = SubSheaf(F, combo)
        if verify_subsheaf(cand).passed:
            out.append(cand)
    return sorted(out, key=lambda s: s.key())


def test_terminal_presheaf_passes(FD):
    assert verify_presheaf(terminal(FD)).passed


def test_sheaf_ab_is_a_sheaf(SAB):
    assert verify_presheaf(SAB).passed
    cert = verify_sheaf(SAB)
    assert cert.passed
    # the cover 1 = a∨b gives F(1) ≅ F(a) × F(b) since a∧b = 0
    families = list(compatible_families(SAB, ("a", "b")))
    assert len(families) == len(SAB.carriers["a"]) * len(SAB.carriers["b"]) == 2
    assert len(families) == len(SAB.carriers["1"])


def test_broken_composition_names_exact_triple(FD):
    carriers = {"0": ("*",), "a": ("x", "y"), "b": ("z",), "1": ("xz", "yz")}
    res = {
        ("a", "0"): {"x": "*", "y": "*"},
        ("b", "0"): {"z": "*"},
        ("1", "0"): {"xz": "*", "yz": "*"},
        ("1", "a"): {"xz": "y", "yz": "y"},  # redirected
        ("1", "b"): {"xz": "z", "yz": "z"},
    }
    P = Presheaf(FD, carriers, res)
    # tables still compose (all chains land at *), so the presheaf law holds
    assert verify_presheaf(P).passed
    # but the sheaf axiom now fails: (x@a, z@b) has no amalgamation
    cert = verify_sheaf(P)
    assert not cert.passed
    assert cert.witness["amalgamations"] == 0


def test_presheaf_of_builds_the_tables_and_rejects_a_restriction_leaving_the_carrier(SAB):
    assert Presheaf.of(SAB.frame, SAB.carriers, SAB.restrict).res == SAB.res
    with pytest.raises(MalformedInput, match="outside the carrier"):
        Presheaf.of(SAB.frame, SAB.carriers, lambda u, x, v: "nowhere")


def _bad_tables(SAB) -> dict:
    """SAB's tables with 1 -> a broken: yz missing; yz sent outside F(a);
    xz sent outside with yz missing, where xz, first in carrier order, is
    the first bad section; and an entry for zz, which is not in F(1)."""
    good = {key: table for key, table in SAB.res.items() if key[0] != key[1]}
    return {
        "missing": {**good, ("1", "a"): {"xz": "x"}},
        "outside": {**good, ("1", "a"): {"xz": "x", "yz": "nowhere"}},
        "outside_then_missing": {**good, ("1", "a"): {"xz": "nowhere"}},
        "extra": {**good, ("1", "a"): {"xz": "x", "yz": "y", "zz": "x"}},
    }


def test_a_bad_restriction_table_names_its_first_bad_section(SAB):
    # the position tables are built in the pass that validates res, in
    # carrier order, so the first section missing from a table, or sent
    # outside the carrier, is the one named
    assert SAB.carriers["1"] == ("xz", "yz")
    bad = _bad_tables(SAB)
    with pytest.raises(MissingRestriction, match="restriction '1' -> 'a' missing 'yz'"):
        Presheaf(SAB.frame, SAB.carriers, bad["missing"])
    with pytest.raises(MalformedInput, match="restriction '1' -> 'a' sends 'yz' outside the carrier"):
        Presheaf(SAB.frame, SAB.carriers, bad["outside"])
    with pytest.raises(MalformedInput, match="restriction '1' -> 'a' sends 'xz' outside the carrier"):
        Presheaf(SAB.frame, SAB.carriers, bad["outside_then_missing"])
    with pytest.raises(MalformedInput, match="restriction '1' -> 'a' has an entry for 'zz', outside the carrier at '1'"):
        Presheaf(SAB.frame, SAB.carriers, bad["extra"])


def test_a_bad_restriction_table_in_a_document_exits_2(SAB, tmp_path, capsys):
    doc = jsonio.dump_presheaf_doc(SAB)
    first = {"missing": "missing 'yz'", "outside": "sends 'yz' outside", "outside_then_missing": "sends 'xz' outside", "extra": "entry for 'zz'"}
    for name, res in _bad_tables(SAB).items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, "res": {**doc["res"], "1->a": res["1", "a"]}}))
        assert run(["check", "presheaf", str(path)]) == 2, name
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed" and first[name] in out["message"], name


def test_missing_f1_section_fails_with_zero_amalgamations(FD):
    carriers = {"0": ("*",), "a": ("x", "y"), "b": ("z",), "1": ("xz",)}
    res = {
        ("a", "0"): {"x": "*", "y": "*"},
        ("b", "0"): {"z": "*"},
        ("1", "0"): {"xz": "*"},
        ("1", "a"): {"xz": "x"},
        ("1", "b"): {"xz": "z"},
    }
    P = Presheaf(FD, carriers, res)
    cert = verify_sheaf(P)
    assert not cert.passed
    assert cert.witness["open"] == "1"
    assert cert.witness["family"] == ["y", "z"]
    assert cert.witness["amalgamations"] == 0


def test_doubled_bottom_fails_on_empty_cover(F2):
    carriers = {"0": ("p", "q"), "1": ("s",)}
    res = {("1", "0"): {"s": "p"}}
    P = Presheaf(F2, carriers, res)
    cert = verify_sheaf(P)
    assert not cert.passed
    assert cert.witness == {"open": "0", "cover": [], "family": [], "amalgamations": 2}


def test_generate_subsheaf_closes_updward(SAB):
    B = SubSheaf(SAB, {"0": ["*"], "a": ["x"], "b": ["z"]})
    S = generate_subsheaf(SAB, B)
    assert S.part("1") == frozenset({"xz"})
    assert S.part("0") == frozenset({"*"})
    # idempotence on the full subsheaf
    full = full_subsheaf(SAB)
    assert generate_subsheaf(SAB, full) == full
    # empty-above-bottom seed closes to the least subsheaf
    least = generate_subsheaf(SAB, SubSheaf(SAB, {"0": ["*"]}))
    assert least.parts == SubSheaf(SAB, {"0": ["*"]}).parts


def test_generate_subsheaf_requires_restriction_closed(SAB):
    with pytest.raises(NotRestrictionClosed):
        generate_subsheaf(SAB, SubSheaf(SAB, {"a": ["x"]}))


def test_point_counts(FD, SAB):
    assert len(enumerate_points(terminal(FD))) == 4
    assert len(enumerate_points(SAB)) == 6
    sub = subterminal(FD, "a")
    pts = enumerate_points(sub)
    assert [(p.dom) for p in pts] == ["0", "a"]


def test_epsilon_terminal_is_meet(FD):
    T = terminal(FD)
    for u in FD.elements:
        for v in FD.elements:
            assert epsilon(T, [(u, "*"), (v, "*")]) == FD.meet(u, v)


def test_epsilon_examples(SAB, FD):
    assert epsilon(SAB, [("a", "x"), ("a", "y")]) == "0"
    for u, x in SAB.sections():
        assert epsilon(SAB, [(u, x)]) == u
    with pytest.raises(SectionNotInCarrier):
        epsilon(SAB, [("a", "zzz")])


def test_epsilon_refinement_inequality(SAB, FD):
    # joint agreement is below the meet of separate agreements, exhaustively
    secs = SAB.sections()
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for left in itertools.combinations_with_replacement(secs, n):
            for right in itertools.combinations_with_replacement(secs, m):
                joint = epsilon(SAB, list(left) + list(right))
                apart = FD.meet(epsilon(SAB, list(left)), epsilon(SAB, list(right)))
                assert FD.leq(joint, apart)


def test_epsilon_of_sheaf_join_is_member(SAB, FD):
    # for a sheaf the defining join is itself an agreement open
    secs = SAB.sections()
    for pair in itertools.combinations(secs, 2):
        e = epsilon(SAB, list(pair))
        images = {SAB.restrict(u, x, e) for u, x in pair if FD.leq(e, u)}
        assert len(images) == 1


def test_subterminal_conventions(FD):
    top_sub = subterminal(FD, "1")
    assert top_sub.carriers == terminal(FD).carriers
    sub_a = subterminal(FD, "a")
    assert [len(sub_a.carriers[u]) for u in FD.elements] == [1, 1, 0, 0]
    assert verify_sheaf(sub_a).passed
    # order-preserving bijection with opens
    for u in FD.elements:
        for v in FD.elements:
            inc = all(
                set(subterminal(FD, u).carriers[w]) <= set(subterminal(FD, v).carriers[w])
                for w in FD.elements
            )
            assert inc == FD.leq(u, v)


def test_morphism_checks(SAB, FD):
    T = terminal(FD)
    bang = SheafMorphism(SAB, T, {u: {x: "*" for x in SAB.carriers[u]} for u in FD.elements})
    assert verify_morphism(bang).passed
    assert verify_morphism(SheafMorphism.identity(SAB)).passed
    swap = SheafMorphism(
        SAB,
        SAB,
        {
            "0": {"*": "*"},
            "a": {"x": "y", "y": "x"},
            "b": {"z": "z"},
            "1": {"xz": "xz", "yz": "yz"},
        },
    )
    rep = verify_morphism(swap)
    assert not rep.passed
    assert rep.witness["square"] == ["1", "a"]


def test_enumerate_subsheaves_matches_bruteforce(SAB, FD):
    fast = enumerate_subsheaves(SAB)
    slow = brute_force_subsheaves(SAB)
    assert [s.parts for s in fast] == [s.parts for s in slow]
    assert len(fast) == 8  # determined by S(a) ⊆ {x,y}, S(b) ⊆ {z}
    sub_t = enumerate_subsheaves(terminal(FD))
    # subsheaves of the terminal sheaf = subterminals = opens
    assert len(sub_t) == 4


def test_subsheaf_clip_and_full(SAB, FD):
    full = full_subsheaf(SAB)
    assert verify_subsheaf(full).passed
    clipped = full.clip("a")
    assert clipped.part("1") == frozenset()
    assert clipped.part("a") == frozenset({"x", "y"})
    assert verify_subsheaf(clipped).passed
    assert full_subsheaf(SAB, "a") == clipped


def test_sheaf_on_down_realization(SAB):
    Fa = sheaf_on_down(SAB, "a")
    assert tuple(Fa.frame.elements) == ("0", "a")
    assert verify_sheaf(Fa).passed
    assert Fa.carriers["a"] == ("x", "y")


def test_not_a_subsheaf_witness(SAB):
    S = SubSheaf(SAB, {"0": ["*"], "a": ["x"], "b": ["z"]})
    assert verify_restriction_closed(S).passed
    rep = verify_subsheaf(S)
    assert not rep.passed
    assert rep.details["reason"] == "amalgamation"


def test_product_sheaf(SAB, FD):
    FF = product_sheaf(SAB, SAB)
    assert verify_sheaf(FF).passed
    assert len(FF.carriers["a"]) == 4


def test_sheaf_iso_finds_relabeling(SAB, FD):
    carriers = {"0": ("o",), "a": ("p", "q"), "b": ("r",), "1": ("pr", "qr")}
    res = {
        ("a", "0"): {"p": "o", "q": "o"},
        ("b", "0"): {"r": "o"},
        ("1", "0"): {"pr": "o", "qr": "o"},
        ("1", "a"): {"pr": "p", "qr": "q"},
        ("1", "b"): {"pr": "r", "qr": "r"},
    }
    G = Presheaf(FD, carriers, res)
    iso = sheaf_iso(SAB, G)
    assert iso is not None
    assert sheaf_iso(SAB, terminal(FD)) is None


def test_agreement_meet_diagnostic(SAB, FD):
    assert agreement_meet_diagnostic(terminal(FD)) == {
        "equality_for_all_tuples": True,
        "is_terminal": True,
        "biconditional_holds": True,
        "witness": None,
    }
    d = agreement_meet_diagnostic(SAB)
    assert not d["equality_for_all_tuples"] and not d["is_terminal"] and d["biconditional_holds"]
    # frozen counterexample to the stated biconditional: empty above bottom
    empty_above = subterminal(FD, "0")
    d2 = agreement_meet_diagnostic(empty_above)
    assert d2["equality_for_all_tuples"] and not d2["is_terminal"]
    assert not d2["biconditional_holds"]


def test_composition_failure_names_exact_triple(F3):
    carriers = {"0": ("m", "n"), "a": ("p", "q"), "1": ("s",)}
    res = {
        ("a", "0"): {"p": "m", "q": "n"},
        ("1", "a"): {"s": "p"},
        ("1", "0"): {"s": "n"},  # disagrees with the route through a
    }
    P = Presheaf(F3, carriers, res)
    rep = verify_presheaf(P)
    assert not rep.passed
    assert rep.name == "presheaf.composition"
    assert rep.witness == {"triple": ["1", "a", "0"], "section": "s"}


def test_generate_subsheaf_is_a_closure_operator(SAB):
    seeds = [
        SubSheaf(SAB, {"0": ["*"]}),
        SubSheaf(SAB, {"0": ["*"], "a": ["x"]}),
        SubSheaf(SAB, {"0": ["*"], "a": ["x"], "b": ["z"]}),
        SubSheaf(SAB, {"0": ["*"], "a": ["x", "y"], "b": ["z"]}),
    ]
    closed = [generate_subsheaf(SAB, s) for s in seeds]
    for s, c in zip(seeds, closed):
        assert s.issubset(c)  # extensive
        assert generate_subsheaf(SAB, c).parts == c.parts  # idempotent
    for s1, c1 in zip(seeds, closed):
        for s2, c2 in zip(seeds, closed):
            if s1.issubset(s2):
                assert c1.issubset(c2)  # monotone


def _all_parts(P):
    """Every choice of one subset per open, in frame order."""
    per_open = [
        [set(c) for r in range(len(P.carriers[u]) + 1) for c in itertools.combinations(P.carriers[u], r)]
        for u in P.frame.elements
    ]
    return [list(choice) for choice in itertools.product(*per_open)]


def test_families_in_parts_match_filtered_families(SAB, PAB):
    # oracle: the restricted search equals the unrestricted one filtered to
    # the parts, in the same order, on every cover; for the order subsheaf of
    # posheaf_ab the parts are its pairs in the square F×F
    square, rel = order_subsheaf(PAB)
    cases = [(SAB, parts) for parts in _all_parts(SAB)] + [(square, rel.parts)]
    for P, parts in cases:
        for u in P.frame.elements:
            for cover in covers(P.frame, u):
                expected = [
                    fam
                    for fam in compatible_families(P, cover)
                    if all(x in parts[P.frame.index[ui]] for ui, x in zip(cover, fam))
                ]
                assert list(compatible_families(P, cover, parts)) == expected
