"""CLI surface: subcommands, exit codes, JSON round-trips, determinism."""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posheaf import jsonio
from posheaf.cli import run
from posheaf.fixtures import frame_2, frame_d, identity_locale, posheaf_ab, sheaf_ab
from posheaf.generate import MUTATION_KINDS, GenConfig, gen_frame, gen_posheaf, mutate
from posheaf.orders import PoSheaf, omega, power_sheaf
from posheaf.report import Budget, MalformedInput
from posheaf.sheaves import Presheaf


# lattices that are not frames (not distributive)
N5 = {"elements": ["0", "x", "y", "z", "1"], "leq": [["0", "x"], ["x", "z"], ["z", "1"], ["0", "y"], ["y", "1"]]}
M3 = {"elements": ["0", "a", "b", "c", "1"], "leq": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)


def test_check_posheaf_omega(tmp_path, capsys):
    Om = omega(frame_d())
    path = write(tmp_path, "omega_d.json", jsonio.dump_posheaf_doc(Om))
    assert run(["check", "posheaf", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_check_sheaf_mutated_fails_with_witness(tmp_path, capsys):
    cfg = GenConfig(seed=2, max_opens=6, max_carrier=3)
    F = gen_posheaf(gen_frame(cfg), cfg)
    broken = mutate(F, "remove-amalgamation", cfg)
    path = write(tmp_path, "broken.json", jsonio.dump_posheaf_doc(broken))
    assert run(["check", "sheaf", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witness"]["amalgamations"] == 0


def test_verify_sup_preserving_rejects_a_non_sheaf_source(tmp_path, capsys):
    # the powersheaf of the source is only defined for a sheaf: the posheaf
    # laws are checked first and their sheaf witness is reported
    from posheaf.sheaves import SheafMorphism

    cfg = GenConfig(seed=2, max_opens=6, max_carrier=3)
    broken = mutate(gen_posheaf(gen_frame(cfg), cfg), "remove-amalgamation", cfg)
    ident = SheafMorphism.identity(broken.sheaf)
    path = write(tmp_path, "id.json", jsonio.dump_morphism_doc(ident, broken, broken))
    for kind in ("sup-preserving", "frame-morphism"):
        assert run(["verify", kind, path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "property"
        assert out["report"]["name"] == "posheaf"
        assert out["report"]["witness"]["precondition"]["amalgamations"] == 0


def test_verify_sup_preserving_reports_a_missing_sup(tmp_path, capsys):
    # the identity on a posheaf that is not complete: a downsheaf without a
    # sup fails the defining square, with a report and no traceback
    from posheaf.sheaves import SheafMorphism

    cfg = GenConfig(seed=9, max_opens=4, max_carrier=2)
    F = gen_posheaf(gen_frame(cfg), cfg)
    path = write(tmp_path, "id.json", jsonio.dump_morphism_doc(SheafMorphism.identity(F.sheaf), F, F))
    assert run(["verify", "sup-preserving", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["name"] == "sup_preserving"
    square = out["subreports"][0]
    assert square["name"] == "sup_preserving.square" and not square["passed"]
    assert set(square["witness"]) == {"open", "subsheaf", "missing"}
    assert out["witness"] == square["witness"]
    assert run(["verify", "frame-morphism", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["name"] == "frame_morphism" and not out["passed"]
    assert out["subreports"][0]["witness"] == square["witness"]


def test_check_frame_pentagon_exit_1(tmp_path, capsys):
    doc = {
        "elements": ["0", "x", "y", "z", "1"],
        "leq": [["0", "x"], ["x", "z"], ["z", "1"], ["0", "y"], ["y", "1"]],
    }
    path = write(tmp_path, "n5.json", doc)
    assert run(["check", "frame", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["name"] == "frame.distributive"


def test_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["check", "frame", str(path)]) == 2
    capsys.readouterr()
    doc = {"frame": {"elements": ["0", "1"], "leq": [["0", "1"]]}, "carriers": {"0": ["*"], "1": ["s"]}}
    # missing restriction table 1 -> 0
    path2 = write(tmp_path, "nores.json", doc)
    assert run(["check", "presheaf", path2]) == 2
    capsys.readouterr()
    # shape errors and unknown names in otherwise valid documents
    good = jsonio.dump_posheaf_doc(posheaf_ab())
    locale = jsonio.dump_locale_doc(identity_locale(frame_d()))
    bad_docs = {
        "res_unknown_open": ("sheaf", {**good, "res": {**good["res"], "1->q": {"xz": "xz", "yz": "yz"}}}),
        "res_not_below": ("sheaf", {**good, "res": {**good["res"], "a->b": {"x": "z", "y": "z"}}}),
        "leq_not_pair": ("sheaf", {**good, "frame": {**good["frame"], "leq": [["0", "a", "1"]]}}),
        "carriers_list": ("sheaf", {**good, "carriers": [["*"], ["x", "y"]]}),
        "res_table_list": ("sheaf", {**good, "res": {**good["res"], "a->0": ["*", "*"]}}),
        "res_self_not_identity": ("presheaf", {**good, "res": {**good["res"], "a->a": {"x": "y", "y": "x"}}}),
        "order_not_pair": ("posheaf", {**good, "order": {**good["order"], "a": [["x"]]}}),
        "order_unknown_open": ("posheaf", {**good, "order": {**good["order"], "q": []}}),
        "frame_leq_not_pair": ("frame", {**good["frame"], "leq": [["0"]]}),
        "fstar_list": ("lh", {**locale, "fstar": ["0", "a", "b", "1"]}),
        "section_order_not_pair": ("posl", {**locale, "section_orders": {"1": [["s0"]]}}),
    }
    # nested bases that are lattices but not frames: the report is attached
    not_frames = {
        "n5_presheaf": ("presheaf", {"frame": N5, "carriers": {u: ["*"] for u in N5["elements"]}, "res": {}}),
        "m3_sheaf": ("sheaf", {"frame": M3, "carriers": {u: ["*"] for u in M3["elements"]}, "res": {}}),
        "n5_posheaf": ("posheaf", {"frame": N5, "carriers": {u: ["*"] for u in N5["elements"]}, "res": {}}),
        "m3_locale_base": ("lh", {**locale, "OX": M3}),
        "n5_locale_top": ("lh", {**locale, "OY": N5}),
    }
    bad_docs.update(not_frames)
    for name, (kind, bad) in bad_docs.items():
        assert run(["check", kind, write(tmp_path, f"{name}.json", bad)]) == 2, name
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed", name
        if name in not_frames:
            assert out["report"]["name"] == "frame.distributive", name


def test_lambda_roundtrips_to_frame_check(tmp_path, capsys):
    from posheaf.sheaves import terminal

    FD = frame_d()
    path = write(tmp_path, "terminal_d.json", jsonio.dump_presheaf_doc(terminal(FD)))
    out_path = tmp_path / "lam.json"
    assert run(["lambda", path, "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["check", "frame", str(out_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    lam_doc = json.loads(out_path.read_text())
    assert len(lam_doc["elements"]) == len(FD.elements)


def test_gamma_of_lambda(tmp_path, capsys):
    path = write(tmp_path, "sab.json", jsonio.dump_presheaf_doc(sheaf_ab()))
    lam_path = tmp_path / "lam.json"
    assert run(["lambda", path, "-o", str(lam_path)]) == 0
    capsys.readouterr()
    gam_path = tmp_path / "gam.json"
    assert run(["gamma", str(lam_path), "-o", str(gam_path)]) == 0
    capsys.readouterr()
    assert run(["check", "sheaf", str(gam_path)]) == 0


def test_a_power_sheaf_dumps_by_its_labels_and_reloads_to_the_same_bytes():
    # ℙ(sheaf_ab)'s sections are SubSheaf objects, written by their labels
    P = power_sheaf(sheaf_ab())
    first = json.dumps(jsonio.dump_posheaf_doc(P), sort_keys=True)
    again = json.dumps(jsonio.dump_posheaf_doc(jsonio.load_posheaf(json.loads(first))), sort_keys=True)
    assert first == again
    assert "object at" not in first
    assert json.loads(first)["carriers"]["a"] == [P.label("a", s) for s in P.carriers["a"]]


def test_two_sections_with_one_label_are_malformed():
    P = sheaf_ab()
    res = {key: table for key, table in P.res.items() if key[0] != key[1]}
    Q = Presheaf(P.frame, P.carriers, res, labeler=lambda u, x: "same")
    with pytest.raises(MalformedInput):
        jsonio.dump_presheaf_doc(Q)
    with pytest.raises(MalformedInput):
        jsonio.dump_posheaf_doc(PoSheaf(Q, {}))


def test_phi_psi_roundtrip(tmp_path, capsys):
    FD = frame_d()
    doc = {
        "source": jsonio.dump_frame_doc(FD),
        "target": jsonio.dump_frame_doc(FD.subframe("a")),
        "map": {x: FD.meet(x, "a") for x in FD.elements},
    }
    h_path = write(tmp_path, "h.json", doc)
    phi_path = tmp_path / "phi.json"
    assert run(["phi", h_path, "-o", str(phi_path)]) == 0
    capsys.readouterr()
    assert run(["check", "frame-sheaf", str(phi_path)]) == 0
    capsys.readouterr()
    psi_path = tmp_path / "psi.json"
    assert run(["psi", str(phi_path), "-o", str(psi_path)]) == 0
    capsys.readouterr()
    back = json.loads(psi_path.read_text())
    assert back["map"] == doc["map"]
    assert run(["verify", "frame-equivalence", h_path]) == 0


def test_verify_galois_cli(tmp_path, capsys):
    Om = omega(frame_d())
    from posheaf.sheaves import SheafMorphism

    ident = SheafMorphism.identity(Om.sheaf)
    m_path = write(tmp_path, "id.json", jsonio.dump_morphism_doc(ident, Om, Om))
    assert run(["verify", "galois", m_path, m_path]) == 0


def test_a_restriction_entry_outside_the_source_carrier_is_malformed(tmp_path, capsys):
    # x is in the carrier at 1 but zz is not: the table is rejected when
    # loaded, naming zz, by check presheaf and by verify galois alike,
    # which would otherwise write the loaded posheaves back out
    doc = {
        "frame": {"elements": ["0", "1"], "leq": [["0", "1"]]},
        "carriers": {"0": ["a"], "1": ["x"]},
        "res": {"1->0": {"x": "a", "zz": "a"}},
    }
    side = {**doc, "order": {}}
    morphism = {"source": side, "target": side, "maps": {"0": {"a": "a"}, "1": {"x": "x"}}}
    paths = [write(tmp_path, "extra.json", doc), write(tmp_path, "m.json", morphism)]
    for argv in (["check", "presheaf", paths[0]], ["verify", "galois", paths[1], paths[1]]):
        assert run(argv) == 2, argv
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed" and "'zz'" in out["message"], argv
    doc["res"]["1->0"].pop("zz")
    assert run(["check", "presheaf", write(tmp_path, "fixed.json", doc)]) == 0


def test_a_stray_morphism_entry_is_malformed(tmp_path, capsys):
    # a maps entry for a section outside the source carrier, or a key naming
    # no open, is rejected when the morphism is built, as a stray
    # restriction entry is: exit 2 from every verify kind, not a verdict
    assert run(["gen", "morphism", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    top = doc["source"]["frame"]["elements"][-1]
    strays = {"zz": copy.deepcopy(doc), "nowhere": copy.deepcopy(doc)}
    strays["zz"]["maps"][top]["zz"] = next(iter(doc["maps"][top].values()))
    strays["nowhere"]["maps"]["nowhere"] = {}
    for kind in ("sup-preserving", "frame-morphism", "galois"):
        path = write(tmp_path, "m.json", doc)
        assert run(["verify", kind] + [path] * (2 if kind == "galois" else 1)) in (0, 1), kind
        capsys.readouterr()
        for name, stray in strays.items():
            path = write(tmp_path, f"{name}.json", stray)
            assert run(["verify", kind] + [path] * (2 if kind == "galois" else 1)) == 2, (kind, name)
            out = json.loads(capsys.readouterr().out)
            assert out["error"] == "malformed" and f"'{name}'" in out["message"], (kind, out)


def test_verify_reads_exactly_its_documents(tmp_path, capsys):
    # galois takes two morphism documents and every other kind one; a wrong
    # count is malformed input, not a traceback
    from posheaf.sheaves import SheafMorphism

    Om = omega(frame_d())
    m_path = write(tmp_path, "id.json", jsonio.dump_morphism_doc(SheafMorphism.identity(Om.sheaf), Om, Om))
    for argv in (["galois", m_path], ["galois", m_path, m_path, m_path], ["sup-preserving", m_path, m_path]):
        assert run(["verify", *argv]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed" and "document" in out["message"]


def test_verify_galois_needs_the_reverse_morphism(tmp_path, capsys):
    # the second morphism must run from the first one's target to its
    # source: the same frame, carriers, restrictions and orders
    from posheaf.sheaves import SheafMorphism

    Om, PAB = omega(frame_d()), posheaf_ab()
    om_path = write(tmp_path, "om.json", jsonio.dump_morphism_doc(SheafMorphism.identity(Om.sheaf), Om, Om))
    ab_path = write(tmp_path, "ab.json", jsonio.dump_morphism_doc(SheafMorphism.identity(PAB.sheaf), PAB, PAB))
    unordered = json.loads(Path(ab_path).read_text())
    unordered["target"]["order"] = {}
    un_path = write(tmp_path, "unordered.json", unordered)
    for first, second in ((om_path, ab_path), (ab_path, om_path), (ab_path, un_path)):
        assert run(["verify", "galois", first, second]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed" and "target" in out["message"]
    assert run(["verify", "galois", ab_path, ab_path]) == 0


def test_verify_galois_checks_the_posheaf_laws_first(tmp_path, capsys):
    # xz ≤ yz at the top of sheaf_ab but x and y are incomparable over a:
    # POS2 fails, and galois exits 1 with the posheaf report, as
    # sup-preserving does
    from posheaf.sheaves import SheafMorphism

    F = PoSheaf(sheaf_ab(), {"1": [("xz", "yz")]})
    path = write(tmp_path, "m.json", jsonio.dump_morphism_doc(SheafMorphism.identity(F.sheaf), F, F))
    assert run(["verify", "galois", path, path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "property" and out["report"]["name"] == "posheaf"
    assert out["report"]["witness"] == {"first_failed": "posheaf.POS2", "witness": {"square": ["1", "a"], "pair": ["xz", "yz"]}}


def test_gen_mutate_of_every_kind_exits_without_a_traceback(capsys):
    # a mutation that does not apply to the generated instance is malformed
    # input naming what it applies to; an exception out of run() would be a
    # traceback
    applied = set()
    for kind in ("frame", "posheaf", "morphism"):
        for mutation in MUTATION_KINDS:
            code = run(["gen", kind, "--seed", "1", "--mutate", mutation])
            out = json.loads(capsys.readouterr().out)
            assert code in (0, 2), (kind, mutation)
            if code == 0:
                applied.add((kind, mutation))
            else:
                assert out["error"] == "malformed" and out["message"].startswith(f"{mutation} applies to "), out
    assert applied == {
        ("frame", "break-distributivity"),
        ("posheaf", "break-POS3"),
        ("posheaf", "remove-amalgamation"),
        ("morphism", "break-naturality"),
        ("morphism", "break-meet-square"),
    }


def test_a_non_integer_budget_variable_is_malformed(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ab.json", jsonio.dump_posheaf_doc(posheaf_ab()))
    monkeypatch.setenv("POSH_BUDGET", "abc")
    assert run(["check", "complete", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "malformed" and "POSH_BUDGET" in out["message"]


def test_a_negative_budget_is_malformed(tmp_path, capsys, monkeypatch):
    # from any flag or the variable, on either completeness check: a memo
    # replay ticks a count of 0, and on a negative limit that alone would
    # raise on one check and not on the other
    path = write(tmp_path, "ab.json", jsonio.dump_posheaf_doc(posheaf_ab()))
    runs = [(kind, flags) for kind in ("complete", "frame-sheaf") for flags in (["--budget", "-1"], ["--budget-subsheaves", "-1"], ["--budget-lambda", "-1"])]
    monkeypatch.setenv("POSH_BUDGET", "-1")
    runs += [("complete", []), ("frame-sheaf", []), ("complete", ["--budget", "5"])]
    for kind, flags in runs:
        assert run(["check", kind, path, *flags]) == 2, (kind, flags)
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed" and "must not be negative" in out["message"], out
    with pytest.raises(MalformedInput):
        Budget(section_nodes=-1)


def test_completeness_budgets_bind_only_on_members_that_are_built(tmp_path, capsys, boolean_frame):
    # a pass holds by proof and builds no member, so a zero budget gives the
    # verdict and Ω(2^6) passes the frame-sheaf check under the default
    # budget; the reject scan of an incomplete posheaf still binds
    small = write(tmp_path, "b4.json", jsonio.dump_posheaf_doc(omega(boolean_frame(4))))
    for kind in ("complete", "frame-sheaf"):
        assert run(["check", kind, small, "--budget", "0"]) == 0, kind
        capsys.readouterr()
    large = write(tmp_path, "b6.json", jsonio.dump_posheaf_doc(omega(boolean_frame(6))))
    assert run(["check", "frame-sheaf", large]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "frame_sheaf"
    cfg = GenConfig(seed=9, max_opens=4, max_carrier=2)
    incomplete = write(tmp_path, "incomplete.json", jsonio.dump_posheaf_doc(gen_posheaf(gen_frame(cfg), cfg)))
    assert run(["check", "complete", incomplete, "--budget", "0"]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": "budget", "what": "completeness enumeration", "limit": 0}


def test_gen_break_meet_square_emits_a_sup_preserving_mutant(tmp_path, capsys):
    # the mutation starts from Ω of the generated frame and its identity
    assert run(["gen", "morphism", "--seed", "1", "--mutate", "break-meet-square"]) == 0
    path = write(tmp_path, "m.json", json.loads(capsys.readouterr().out))
    assert run(["verify", "sup-preserving", path]) == 0
    capsys.readouterr()
    assert run(["verify", "frame-morphism", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in out["subreports"] if not s["passed"]][0] == "frame_morphism.finite_meets"


def test_check_lh_and_spatial(tmp_path, capsys):
    from posheaf.fixtures import three_chain_over_2, identity_locale

    f = three_chain_over_2()
    path = write(tmp_path, "chain.json", jsonio.dump_locale_doc(f))
    assert run(["check", "lh", path]) == 1
    capsys.readouterr()
    g = identity_locale(frame_d())
    path2 = write(tmp_path, "idloc.json", jsonio.dump_locale_doc(g))
    assert run(["check", "lh", path2]) == 0
    capsys.readouterr()
    assert run(["check", "spatial", path2]) == 0


def test_posl_requires_orders(tmp_path, capsys):
    from posheaf.fixtures import identity_locale

    g = identity_locale(frame_d())
    path = write(tmp_path, "idloc.json", jsonio.dump_locale_doc(g))
    assert run(["check", "posl", path]) == 2
    capsys.readouterr()
    doc = jsonio.dump_locale_doc(g)
    doc["section_orders"] = {u: [] for u in frame_d().elements}
    path2 = write(tmp_path, "ordered.json", doc)
    assert run(["check", "posl", path2]) == 0


def test_posl1_failure_reports_section_labels(tmp_path, capsys):
    # Ω(FD)'s orders transported to the cross-sections of its sheaf locale,
    # with s0 ≤ s3 dropped at the top: transitivity, hence POSL1, fails
    from posheaf.locale_equiv import cross_sections, etale_locale, unit

    FD = frame_d()
    Om = omega(FD)
    E = etale_locale(Om.sheaf)
    G = cross_sections(E.locale)
    eta, _ = unit(Om.sheaf, E, G)
    orders = {
        u: sorted([G.sheaf.label(u, eta(u, v)), G.sheaf.label(u, eta(u, w))] for (v, w) in Om.orders[u] if v != w)
        for u in FD.elements
    }
    orders["1"].remove(["s0", "s3"])
    doc = {**jsonio.dump_locale_doc(E.locale), "section_orders": orders}
    assert run(["check", "posl", write(tmp_path, "posl.json", doc)]) == 1
    out = json.loads(capsys.readouterr().out)
    posl1 = out["subreports"][0]
    assert posl1["name"] == "posl.POSL1" and not posl1["passed"]
    assert posl1["witness"]["open"] == "1"
    first, middle, last = posl1["witness"]["witness"]["chain"]
    assert [first, middle, last] == ["s0", "s1", "s3"]


def test_points_and_bounds(tmp_path, capsys):
    PAB = posheaf_ab()
    path = write(tmp_path, "pab.json", jsonio.dump_posheaf_doc(PAB))
    assert run(["points", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 6
    sub_path = write(tmp_path, "sub.json", {"parts": {"0": ["*"], "a": ["x"]}})
    assert run(["bounds", path, sub_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sup"] == {"dom": "a", "value": "x"}
    assert len(out["upper_bounds"]) == 4


def test_gen_deterministic_and_mutants(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["gen", "posheaf", "--seed", "5", "-o", str(a)]) == 0
    capsys.readouterr()
    assert run(["gen", "posheaf", "--seed", "5", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()
    m = tmp_path / "m.json"
    code = run(["gen", "morphism", "--seed", "3", "--mutate", "break-naturality", "-o", str(m)])
    capsys.readouterr()
    if code == 0:
        doc = json.loads(m.read_text())
        assert "maps" in doc


def test_gen_max_carrier_below_one_is_malformed(capsys):
    # the kinds that read --max-carrier refuse a value below 1, as
    # --max-opens 0 is refused; frames do not read it
    for kind in ("posheaf", "morphism"):
        for n in ("-2", "-1", "0"):
            assert run(["gen", kind, "--max-carrier", n]) == 2, (kind, n)
            out = json.loads(capsys.readouterr().out)
            assert out == {"error": "malformed", "message": "max_carrier must be at least 1"}, (kind, n)
    assert run(["gen", "frame", "--max-carrier", "0"]) == 0


def test_an_unwritable_output_path_is_malformed(tmp_path, capsys):
    # a verdict, and an error document of its own (here an exceeded
    # budget), that cannot be written exit 2 with the error on stdout
    cfg = GenConfig(seed=9, max_opens=4, max_carrier=2)
    incomplete = write(tmp_path, "incomplete.json", jsonio.dump_posheaf_doc(gen_posheaf(gen_frame(cfg), cfg)))
    for argv in (["check", "posheaf", incomplete], ["check", "complete", incomplete, "--budget", "0"]):
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            assert run([*argv, "-o", str(target)]) == 2, argv
            out = json.loads(capsys.readouterr().out)
            assert out["error"] == "malformed" and out["message"].startswith(f"cannot write the output file {str(target)!r}"), out
    assert not (tmp_path / "missing").exists()


def test_budget_exit_3(tmp_path, capsys):
    path = write(tmp_path, "sab.json", jsonio.dump_presheaf_doc(sheaf_ab()))
    assert run(["lambda", path, "--budget-lambda", "2"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "budget"


def test_human_format(tmp_path, capsys):
    Om = omega(frame_d())
    path = write(tmp_path, "omega_d.json", jsonio.dump_posheaf_doc(Om))
    assert run(["check", "posheaf", path, "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] posheaf")


def test_suite_cli_plumbing(monkeypatch, capsys):
    import posheaf.cli as cli

    monkeypatch.setattr(cli, "acceptance_suite", lambda seed, budget: {"seed": seed, "passed": True, "criteria": []})
    assert cli.run(["suite", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    monkeypatch.setattr(cli, "acceptance_suite", lambda seed, budget: {"seed": seed, "passed": False, "criteria": []})
    assert cli.run(["suite"]) == 1
    capsys.readouterr()


WRONG_VALUES = (0, "zz", [], {}, None, [["0", "a", "1"]], {"zz": "zz"})


@lru_cache(maxsize=None)
def _valid_documents() -> tuple:
    """(check kind, document) pairs that pass or fail a law but are well
    formed: generated posheaves, one mutant, and an ordered locale."""
    docs = []
    for seed in range(3):
        cfg = GenConfig(seed=seed, max_opens=5, max_carrier=2)
        F = gen_posheaf(gen_frame(cfg), cfg)
        docs.append(("posheaf", jsonio.dump_posheaf_doc(F)))
    cfg = GenConfig(seed=2, max_opens=6, max_carrier=3)
    broken = mutate(gen_posheaf(gen_frame(cfg), cfg), "remove-amalgamation", cfg)
    docs.append(("sheaf", jsonio.dump_posheaf_doc(broken)))
    docs.append(("frame", jsonio.dump_frame_doc(frame_d())))
    locale = jsonio.dump_locale_doc(identity_locale(frame_d()))
    docs.append(("lh", locale))
    docs.append(("posl", {**locale, "section_orders": {"1": [["s0", "s1"]]}}))
    return tuple(docs)


def _paths(doc, prefix=()):
    """Every key path in a document, depth first in document order, after
    the empty path of the whole document."""
    if not prefix:
        yield ()
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(doc, kind: str, pick: int, value):
    """The document with one defect: a dropped key or entry, a value of the
    wrong type, an unknown label, or a nested base that is not a frame. The
    flag says whether the base was swapped; a frame document has none."""
    doc = copy.deepcopy(doc)
    if kind == "base":
        bad = copy.deepcopy((N5, M3)[pick % 2])
        slots = [k for k in ("frame", "OX", "OY") if k in doc]
        if not slots:
            return bad, False
        doc[slots[pick % len(slots)]] = bad
        return doc, True
    paths = list(_paths(doc))
    path = paths[pick % len(paths)]
    if not path:
        return (value if kind == "type" else {}), False
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = value
    elif isinstance(parent, dict) and not isinstance(parent[key], str):
        parent["zz"] = parent.pop(key)
    else:
        parent[key] = "zz"
    return doc, False


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(min_value=0, max_value=6),
    kind=st.sampled_from(("drop", "type", "label", "base")),
    pick=st.integers(min_value=0, max_value=10_000),
    value=st.sampled_from(WRONG_VALUES),
)
def test_mutated_documents_never_crash(which, kind, pick, value):
    check, doc = _valid_documents()[which]
    bad, swapped = _mutated(doc, kind, pick, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(bad))
        code = run(["check", check, str(path)])
    assert code in (0, 1, 2, 3)
    if swapped:
        assert code == 2


def test_reject_witnesses_do_not_depend_on_the_hash_seed(tmp_path):
    # rejects whose witness is read from the order: check frame on a
    # 5-cycle, N5 and M3, and check posheaf on an antisymmetry reject and on
    # the 5-cycle a < b < c < d < e < a at the top of frame_2, which is not
    # transitive. The kernel reads bit rows in element or sorted order, so
    # stdout and the exit code are the same under every string hash seed
    xs = "abcde"
    cycle = [[xs[i], xs[(i + 1) % 5]] for i in range(5)]
    P = Presheaf(frame_2(), {"0": ("*",), "1": tuple(xs)}, {("1", "0"): {x: "*" for x in xs}})
    docs = [
        ("frame", {"elements": list(xs), "leq": cycle}),
        ("frame", N5),
        ("frame", M3),
        ("posheaf", jsonio.dump_posheaf_doc(PoSheaf(P, {"1": [("a", "b"), ("b", "a"), ("c", "d")]}))),
        ("posheaf", jsonio.dump_posheaf_doc(PoSheaf(P, {"1": [tuple(pair) for pair in cycle]}))),
    ]
    argvs = [["check", kind, write(tmp_path, f"doc{i}.json", doc)] for i, (kind, doc) in enumerate(docs)]
    script = (
        "import contextlib, io, json, sys\n"
        "from posheaf.cli import run\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = run(argv)\n"
        "    out.append([code, buf.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    src = str(Path(jsonio.__file__).resolve().parents[1])
    runs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        runs.add(done.stdout)
    assert len(runs) == 1
    results = json.loads(runs.pop())
    assert [code for code, _ in results] == [1] * len(docs)
    reports = [json.loads(stdout) for _, stdout in results]
    assert [r["name"] for r in reports[:3]] == ["frame.poset", "frame.distributive", "frame.distributive"]
    assert reports[0]["witness"] == {"cycle": ["a", "b"]}
    internal = {
        name: next(r for r in report["subreports"] if r["name"] == "posheaf.internal_poset")
        for name, report in zip(("antisymmetric", "transitive"), reports[3:])
    }
    antisymmetric = next(r for r in internal["antisymmetric"]["subreports"] if r["name"] == "internal.antisymmetric")
    assert antisymmetric["witness"] == {"open": "1", "pair": ["a", "b"]}
    transitive = next(r for r in internal["transitive"]["subreports"] if r["name"] == "internal.transitive")
    assert transitive["witness"] == {"open": "1", "chain": ["a", "b", "c"]}


# (seed, max-opens, max-carrier) where trimming a stalk once left a family
# whose restriction was no family, and gen posheaf ended in a KeyError
TRIMMED_STALK_SEEDS = ((51, 8, 6), (97, 8, 6), (69, 8, 5), (3, 7, 6), (72, 7, 5), (71, 6, 5), (95, 5, 6))


def _gen(kind: str, seed: int, opens: int, carrier: int, capsys) -> str:
    assert run(["gen", kind, "--seed", str(seed), "--max-opens", str(opens), "--max-carrier", str(carrier)]) == 0
    return capsys.readouterr().out


def test_gen_posheaf_after_a_trimmed_stalk_passes_check_posheaf(tmp_path, capsys):
    for seed, opens, carrier in TRIMMED_STALK_SEEDS:
        path = tmp_path / f"{seed}-{opens}-{carrier}.json"
        path.write_text(_gen("posheaf", seed, opens, carrier, capsys))
        assert run(["check", "posheaf", str(path)]) == 0, (seed, opens, carrier)
        assert json.loads(capsys.readouterr().out)["passed"] is True


def _mangled(text: str) -> list[str]:
    """A gen document as written, cut in half, with its first restriction
    dropped, and with a non-pair entry first in its last open's order; in a
    morphism document the last two change its source."""
    doc = json.loads(text)
    posheaf = doc.get("source", doc)
    out = [text, text[: len(text) // 2]]
    if posheaf["res"]:
        first = next(iter(posheaf["res"]))
        out.append({**posheaf, "res": {k: v for k, v in posheaf["res"].items() if k != first}})
    u = posheaf["frame"]["elements"][-1]
    out.append({**posheaf, "order": {**posheaf["order"], u: [["e0"]] + posheaf["order"][u]}})
    return out[:2] + [json.dumps({**doc, "source": bad} if "source" in doc else bad) for bad in out[2:]]


SWEEP_COMMANDS = {
    "posheaf": [["check", kind] for kind in ("frame", "presheaf", "sheaf", "posheaf", "complete", "frame-sheaf")]
    + [["verify", "frame-equivalence"], ["verify", "equivalence"]],
    "morphism": [["verify", "sup-preserving"], ["verify", "frame-morphism"], ["verify", "galois"]],
}


def test_gen_documents_and_their_mangled_forms_never_crash(tmp_path, capsys):
    # every gen document of a small grid up to (8, 6), and each one cut,
    # missing a restriction or holding a non-pair order entry, through check
    # and verify: an exception out of run() would be a traceback
    codes = set()
    for kind, commands in SWEEP_COMMANDS.items():
        for seed, opens, carrier in ((0, 4, 2), (5, 6, 3), (11, 8, 4), (3, 7, 6), (51, 8, 6), (97, 8, 6)):
            for n, text in enumerate(_mangled(_gen(kind, seed, opens, carrier, capsys))):
                path = tmp_path / f"{kind}-{seed}-{n}.json"
                path.write_text(text)
                for command in commands:
                    # verify galois reads the endomorphism as both maps
                    code = run(command + [str(path)] * (2 if command[-1] == "galois" else 1))
                    capsys.readouterr()
                    assert code in (0, 1, 2, 3), (command, seed, n)
                    codes.add(code)
    assert {0, 1, 2} <= codes
