"""Command-line surface: load instances, run any check or construction, emit
deterministic JSON reports (or a human rendering), and drive the acceptance
battery. Exit codes: 0 the property holds, 1 it fails (witness in the
report), 2 malformed input, 3 budget exceeded."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import jsonio
from .complete import is_complete, is_frame_sheaf, verify_frame_morphism, verify_sup_preserving
from .frames import close_and_verify_frame
from .frame_equiv import frame_hom_to_sheaf, sheaf_to_frame_hom, verify_frame_equivalence
from .generate import GenConfig, MUTATION_KINDS, gen_endomorphism, gen_frame, gen_frame_morphism, gen_posheaf, mutate
from .locale_equiv import (
    check_cposl,
    check_posl,
    cross_sections,
    etale_locale,
    is_local_homeomorphism,
    is_spatial,
    verify_sh_lh_equivalence,
)
from .orders import verify_galois, verify_posheaf
from .report import (
    Budget,
    CheckReport,
    DomainMismatch,
    MalformedInput,
    MissingRestriction,
    NotRestrictionClosed,
    OrderNotProvided,
    PosheafError,
    ResourceLimit,
    SectionNotInCarrier,
)
from .sheaves import enumerate_points, verify_presheaf, verify_sheaf
from .suite import acceptance_suite
from .complete import bounds as compute_bounds

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3


def _emit(doc: dict, args) -> None:
    if getattr(args, "format", "json") == "human":
        text = _render_human(doc)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "output", None)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise MalformedInput(f"cannot write the output file {out!r}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)


def _render_human(doc, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict) and "passed" in doc and "name" in doc:
        mark = "PASS" if doc["passed"] else "FAIL"
        lines.append(f"{pad}[{mark}] {doc['name']}")
        if doc.get("witness"):
            lines.append(f"{pad}  witness: {json.dumps(doc['witness'], sort_keys=True)}")
        for sub in doc.get("subreports", []):
            lines.append(_render_human(sub, indent + 1).rstrip("\n"))
        return "\n".join(lines) + "\n"
    if isinstance(doc, dict) and "criteria" in doc:
        lines.append(f"{pad}suite seed={doc.get('seed')} passed={doc.get('passed')}")
        for c in doc["criteria"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{pad}  [{mark}] criterion {c['id']}: {c['title']}")
        return "\n".join(lines) + "\n"
    return pad + json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _report_doc(report: CheckReport, include_timing: bool) -> dict:
    return report.to_json(include_timing=include_timing)


def _budget(args) -> Budget:
    base = Budget.from_env()
    if args.budget is not None:
        base = Budget(subsheaves=args.budget, lambda_elements=args.budget, section_nodes=args.budget)
    flags = {"subsheaves": args.budget_subsheaves, "lambda_elements": args.budget_lambda, "section_nodes": args.budget_sections}
    return replace(base, **{field: n for field, n in flags.items() if n is not None})


def _load_orders(args, doc, gamma):
    if getattr(args, "orders", None):
        order_doc = jsonio.read_json(args.orders)
    else:
        order_doc = doc.get("section_orders") if isinstance(doc, dict) else None
    if order_doc is None:
        raise OrderNotProvided("no per-open section orders given (use 'section_orders' or --orders)")
    return jsonio.section_orders_from_doc(gamma, order_doc)


def _cmd_check(args) -> int:
    budget = _budget(args)
    timing = args.format == "human"
    doc = jsonio.read_json(args.input)
    base = Path(args.input).parent
    kind = args.kind
    if kind == "frame":
        _, report = close_and_verify_frame(*jsonio.frame_relation(doc))
    elif kind == "presheaf":
        report = verify_presheaf(jsonio.load_presheaf(doc, base))
    elif kind == "sheaf":
        report = verify_sheaf(jsonio.load_presheaf(doc, base)).report()
    elif kind == "posheaf":
        report = verify_posheaf(jsonio.load_posheaf(doc, base))
    elif kind == "complete":
        report = is_complete(jsonio.load_posheaf(doc, base), budget=budget).report()
    elif kind == "frame-sheaf":
        F = jsonio.load_posheaf(doc, base)
        cert = is_complete(F, budget=budget)
        report = is_frame_sheaf(F, budget=budget) if cert.passed else cert.report()
    elif kind == "lh":
        report = is_local_homeomorphism(jsonio.load_locale(doc, base))
    elif kind == "spatial":
        report = is_spatial(jsonio.load_locale(doc, base), budget=budget)
    elif kind in ("posl", "cposl"):
        f = jsonio.load_locale(doc, base)
        gamma = cross_sections(f, budget=budget)
        orders = _load_orders(args, doc, gamma)
        check = check_posl if kind == "posl" else check_cposl
        report = check(f, orders, budget=budget)
    else:
        raise MalformedInput(f"unknown check kind {kind!r}")
    _emit(_report_doc(report, timing), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_points(args) -> int:
    doc = jsonio.read_json(args.input)
    P = jsonio.load_presheaf(doc, Path(args.input).parent)
    cert = verify_sheaf(P)
    if not cert.passed:
        _emit(_report_doc(cert.report(), args.format == "human"), args)
        return EXIT_FAIL
    pts = enumerate_points(P)
    _emit(
        {
            "count": len(pts),
            "points": [{"dom": p.dom, "value": P.label(p.dom, p.value)} for p in pts],
        },
        args,
    )
    return EXIT_PASS


def _cmd_bounds(args) -> int:
    doc = jsonio.read_json(args.input)
    F = jsonio.load_posheaf(doc, Path(args.input).parent)
    verify_posheaf(F).require()
    sub = jsonio.load_subsheaf(F.sheaf, jsonio.read_json(args.subsheaf), Path(args.subsheaf).parent)
    b = compute_bounds(F, sub)
    _emit(
        {
            "target": b.target.describe(),
            "upper_bounds": [{"dom": p.dom, "value": F.label(p.dom, p.value)} for p in b.upper_bounds],
            "sup": None if b.sup is None else {"dom": b.sup.dom, "value": F.label(b.sup.dom, b.sup.value)},
            "inf": None if b.inf is None else {"dom": b.inf.dom, "value": F.label(b.inf.dom, b.inf.value)},
            "sup_antichain": [{"dom": p.dom, "value": F.label(p.dom, p.value)} for p in b.sup_antichain],
        },
        args,
    )
    return EXIT_PASS


def _cmd_lambda(args) -> int:
    budget = _budget(args)
    doc = jsonio.read_json(args.input)
    P = jsonio.load_presheaf(doc, Path(args.input).parent)
    E = etale_locale(P, budget=budget)
    out = jsonio.dump_frame_doc(
        E.frame,
        base=jsonio.dump_frame_doc(P.frame),
        fstar={x: E.locale.fstar(x) for x in P.frame.elements},
        sections={E.section_label(k): list(a) for k, a in enumerate(zip(*E.assignments))} if E.assignments else {},
        report=_report_doc(E.report, args.format == "human"),
    )
    _emit(out, args)
    return EXIT_PASS if E.report.passed else EXIT_FAIL


def _cmd_gamma(args) -> int:
    budget = _budget(args)
    doc = jsonio.read_json(args.input)
    f = jsonio.load_locale(doc, Path(args.input).parent)
    G = cross_sections(f, budget=budget)
    sheaf_doc = jsonio.dump_presheaf_doc(G.sheaf)
    sheaf_doc["report"] = _report_doc(G.report, args.format == "human")
    _emit(sheaf_doc, args)
    return EXIT_PASS if G.report.passed else EXIT_FAIL


def _cmd_phi(args) -> int:
    doc = jsonio.read_json(args.input)
    h = jsonio.load_frame_under_x(doc, Path(args.input).parent)
    h.verify().require()
    F = frame_hom_to_sheaf(h)
    _emit(jsonio.dump_posheaf_doc(F), args)
    return EXIT_PASS


def _cmd_psi(args) -> int:
    budget = _budget(args)
    doc = jsonio.read_json(args.input)
    F = jsonio.load_posheaf(doc, Path(args.input).parent)
    h = sheaf_to_frame_hom(F, budget=budget)
    _emit(jsonio.dump_frame_under_x_doc(h), args)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    budget = _budget(args)
    timing = args.format == "human"
    kind = args.kind
    wanted = 2 if kind == "galois" else 1
    if len(args.inputs) != wanted:
        raise MalformedInput(f"verify {kind} takes {wanted} document(s), not {len(args.inputs)}")
    if kind == "galois":
        alpha, F, G = jsonio.load_morphism(jsonio.read_json(args.inputs[0]), Path(args.inputs[0]).parent)
        beta, G2, F2 = jsonio.load_morphism(jsonio.read_json(args.inputs[1]), Path(args.inputs[1]).parent)
        # the same frame, carriers, restrictions and orders dump the same
        if [jsonio.dump_posheaf_doc(H) for H in (G2, F2)] != [jsonio.dump_posheaf_doc(H) for H in (G, F)]:
            raise MalformedInput("the second morphism must run from the first one's target to its source")
        verify_posheaf(F).require()
        verify_posheaf(G).require()
        report = verify_galois(alpha, beta, F, G)
    elif kind == "sup-preserving":
        alpha, F, G = jsonio.load_morphism(jsonio.read_json(args.inputs[0]), Path(args.inputs[0]).parent)
        report = verify_sup_preserving(alpha, F, G, budget=budget)
    elif kind == "frame-morphism":
        alpha, F, G = jsonio.load_morphism(jsonio.read_json(args.inputs[0]), Path(args.inputs[0]).parent)
        report = verify_frame_morphism(alpha, F, G, budget=budget)
    elif kind == "frame-equivalence":
        doc = jsonio.read_json(args.inputs[0])
        base = Path(args.inputs[0]).parent
        if "map" in doc:
            instance = jsonio.load_frame_under_x(doc, base)
        else:
            instance = jsonio.load_posheaf(doc, base)
        report = verify_frame_equivalence(instance, budget=budget)
    elif kind == "equivalence":
        doc = jsonio.read_json(args.inputs[0])
        base = Path(args.inputs[0]).parent
        if "fstar" in doc or "OY" in doc:
            instance = jsonio.load_locale(doc, base)
        else:
            instance = jsonio.load_presheaf(doc, base)
        report = verify_sh_lh_equivalence(instance, budget=budget)
    else:
        raise MalformedInput(f"unknown verify kind {kind!r}")
    _emit(_report_doc(report, timing), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_gen(args) -> int:
    cfg = GenConfig(
        seed=args.seed, max_opens=args.max_opens, max_carrier=args.max_carrier, mutation=args.mutate
    )
    X = gen_frame(cfg)
    if args.kind == "frame":
        instance = X
        if args.mutate:
            instance = mutate(instance, args.mutate, cfg)
        out = jsonio.dump_frame_doc(instance)
    elif args.kind == "posheaf":
        F = gen_posheaf(X, cfg)
        if args.mutate:
            F = mutate(F, args.mutate, cfg)
        out = jsonio.dump_posheaf_doc(F)
    elif args.kind == "morphism":
        # the meet-square mutation applies to Ω and its identity
        if args.mutate == "break-meet-square":
            F, alpha = gen_frame_morphism(X, cfg)
        else:
            F = gen_posheaf(X, cfg)
            alpha = gen_endomorphism(F, cfg)
        if args.mutate:
            alpha = mutate((F, alpha), args.mutate, cfg)
            if isinstance(alpha, tuple):
                F, alpha = alpha
        out = jsonio.dump_morphism_doc(alpha, F, F)
    else:
        raise MalformedInput(f"unknown gen kind {args.kind!r}")
    _emit(out, args)
    return EXIT_PASS


def _cmd_suite(args) -> int:
    budget = _budget(args)
    report = acceptance_suite(seed=args.seed, budget=budget)
    _emit(report, args)
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posheaf",
        description="Computations and certified checks for partially ordered sheaves on finite locales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", help="also write the JSON/text to this file")
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--budget", type=int, help="global enumeration budget")
        p.add_argument("--budget-subsheaves", type=int, dest="budget_subsheaves")
        p.add_argument("--budget-lambda", type=int, dest="budget_lambda")
        p.add_argument("--budget-sections", type=int, dest="budget_sections")

    p = sub.add_parser("check", help="run a law check on an instance file")
    p.add_argument(
        "kind",
        choices=("frame", "presheaf", "sheaf", "posheaf", "complete", "frame-sheaf", "posl", "cposl", "lh", "spatial"),
    )
    p.add_argument("input")
    p.add_argument("--orders", help="JSON file with per-open section orders (posl/cposl)")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("points", help="enumerate the points of a sheaf")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("bounds", help="upper bounds, sup, and inf of a subsheaf")
    p.add_argument("input", help="posheaf document")
    p.add_argument("subsheaf", help="subsheaf parts document")
    common(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("lambda", help="the sheaf locale of a presheaf, as a frame document")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("gamma", help="the sheaf of cross-sections of a locale over the base")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("phi", help="frame hom under the base to frame sheaf")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("psi", help="frame sheaf to frame hom under the base")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("verify", help="verify a relation between instances")
    p.add_argument("kind", choices=("galois", "sup-preserving", "frame-morphism", "frame-equivalence", "equivalence"))
    p.add_argument("inputs", nargs="+")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="emit a generated instance (optionally mutated)")
    p.add_argument("kind", choices=("frame", "posheaf", "morphism"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-opens", type=int, default=6, dest="max_opens")
    p.add_argument("--max-carrier", type=int, default=3, dest="max_carrier")
    p.add_argument("--mutate", choices=MUTATION_KINDS)
    common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=42)
    common(p)
    p.set_defaults(fn=_cmd_suite)

    return parser


def _error_doc(kind: str, exc: PosheafError) -> dict:
    doc = {"error": kind, "message": str(exc)}
    if exc.report is not None:
        doc["report"] = exc.report.to_json(include_timing=False)
    return doc


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except MalformedInput as exc:
        # only _emit raises here, when the output file cannot be written:
        # the error document goes to stdout alone
        args.output = None
        _emit(_error_doc("malformed", exc), args)
        return EXIT_MALFORMED


def _run(args) -> int:
    """The command's exit code, each error caught and emitted as its
    document."""
    try:
        return args.fn(args)
    except ResourceLimit as exc:
        _emit({"error": "budget", "what": exc.what, "limit": exc.limit}, args)
        return EXIT_BUDGET
    except (
        MalformedInput,
        OrderNotProvided,
        MissingRestriction,
        DomainMismatch,
        SectionNotInCarrier,
        NotRestrictionClosed,
    ) as exc:
        _emit(_error_doc("malformed", exc), args)
        return EXIT_MALFORMED
    except PosheafError as exc:
        _emit(_error_doc("property", exc), args)
        return EXIT_FAIL
    except json.JSONDecodeError as exc:
        _emit({"error": "malformed", "message": str(exc)}, args)
        return EXIT_MALFORMED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
