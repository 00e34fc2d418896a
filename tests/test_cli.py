"""CLI surface: subcommands, exit codes, JSON round-trips, determinism."""
from __future__ import annotations

import json


from posheaf import jsonio
from posheaf.cli import run
from posheaf.fixtures import frame_d, identity_locale, posheaf_ab, sheaf_ab
from posheaf.generate import GenConfig, gen_frame, gen_posheaf, mutate
from posheaf.orders import omega


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
        "order_not_pair": ("posheaf", {**good, "order": {**good["order"], "a": [["x"]]}}),
        "order_unknown_open": ("posheaf", {**good, "order": {**good["order"], "q": []}}),
        "frame_leq_not_pair": ("frame", {**good["frame"], "leq": [["0"]]}),
        "fstar_list": ("lh", {**locale, "fstar": ["0", "a", "b", "1"]}),
        "section_order_not_pair": ("posl", {**locale, "section_orders": {"1": [["s0"]]}}),
    }
    for name, (kind, bad) in bad_docs.items():
        assert run(["check", kind, write(tmp_path, f"{name}.json", bad)]) == 2, name
        assert json.loads(capsys.readouterr().out)["error"] == "malformed", name


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
