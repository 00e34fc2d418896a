"""Source hygiene with the standard library's ast: no unused imports in the
package modules, no module-level private function and no method that
nothing uses, and no exhaustive cover enumeration, closure-fixpoint
enumeration, subset loop for join and meet preservation, product-space and
frame-hom-filter search of the étale layer, nested function that calls
itself, or broad exception handler in the package, no memo kept outside
report.once, no read of a posheaf's orders outside orders.PoSheaf, no
walk of a metered enumeration that only counts its members, no read of a
frame's lower covers outside frames.py and complete._left_adjoint, no
restriction table built outside Presheaf, jsonio and fixtures, no
restriction table stored by Presheaf but res_at, no cross-section built
outside Γ's point search, the unit and the oracles, no section-level
restriction or morphism map read in the law kernels that read positions,
no MonotoneMap built outside frames.py, no sheaf,
presheaf, frame-hom or morphism check in Λ, Γ or the unit of what they
build, no FiniteFrame method that answers from the poset's row operations,
and no functools.cached_property."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posheaf"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_no_unused_imports():
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _referenced_names() -> set:
    """Every name, attribute and imported name in src, tests and bench."""
    referenced = set()
    for path in (p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def test_no_unreferenced_private_functions():
    referenced = _referenced_names()
    dead = [
        f"{path.name}:{node.name}"
        for path in _modules()
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and node.name not in referenced
    ]
    assert dead == []


def test_no_unreferenced_methods():
    # a method of a package class that no code names is dead; dunder
    # methods are called by the language
    referenced = _referenced_names()
    dead = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]
    assert dead == []


def test_no_exhaustive_cover_enumeration():
    # the 2^|↓u| enumeration of every cover is a test oracle (tests/oracles.py);
    # package modules use FiniteFrame.binary_covers or a single join instead
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "covers")
        or (isinstance(node, ast.FunctionDef) and node.name == "covers")
    ]
    assert calls == []


def test_no_closure_fixpoint_enumeration():
    # Sub and Dow are down-sets of germs at the join-irreducibles; the
    # closure fixpoint and next-closure are test oracles (tests/oracles.py)
    names = {"_close_parts", "close_to_subsheaf", "enumerate_closed_subsheaves"}
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]
    assert defined == []


def test_no_subset_loop_for_join_and_meet_preservation():
    # preserving every join (meet) follows from the empty and the binary
    # ones; the 2^n subset loop is a test oracle (tests/oracles.py)
    names = {"_bound_failure"}

    def subset_loop(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "range"
            and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.LShift) for a in node.args)
        )

    functions = [
        (path.name, fn)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef) and fn.name in names
    ]
    assert names <= {fn.name for _, fn in functions}
    found = [f"{module}:{fn.name}:{node.lineno}" for module, fn in functions for node in ast.walk(fn) if subset_loop(node)]
    assert found == []


def _product_calls(node, scope="<module>"):
    """(innermost enclosing function, line) of each itertools.product."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(child, ast.Attribute) and child.attr == "product" and getattr(child.value, "id", None) == "itertools":
            yield scope, child.lineno
        yield from _product_calls(child, inner)


def test_no_product_space_or_frame_hom_filter_search():
    # Λ is read off the germ walk and Γ off the point map; the product
    # filter, the search over O(Y) and its is_section filter are test
    # oracles (tests/oracles.py). itertools.product stays only where a
    # product is the result: the product sheaf and the generator's stalks
    # and families
    names = {"_lambda_oracle", "_enumerate_lambda", "_sections_over", "is_section"}
    allowed = {("sheaves.py", "product_sheaf"), ("generate.py", "_stalks"), ("generate.py", "families")}
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]
    products = [
        (path.name, scope, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, line in _product_calls(ast.parse(path.read_text()))
    ]
    assert defined == []
    assert {(module, scope) for module, scope, _ in products} <= allowed
    assert products


def test_no_self_recursive_closures():
    # a nested function that calls itself by name holds a cell referring to
    # itself: a reference cycle that keeps all it closes over alive until
    # the cyclic collector runs. Recursion is module level or a stack
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [
        f"{path.name}:{outer.name}.{inner.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for outer in ast.walk(ast.parse(path.read_text()))
        if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if inner is not outer
        and isinstance(inner, functions)
        and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == inner.name for n in ast.walk(inner))
    ]
    assert found == []


def test_no_broad_except():
    # a handler for every exception hides the failures it was not written
    # for; the package names the errors it expects
    def broad(handler) -> bool:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(t is None or getattr(t, "id", None) in ("Exception", "BaseException") for t in types)

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and broad(node)
    ]
    assert found == []


def test_memos_are_kept_by_report_once_alone():
    # the compute-once policy (store, budget replay, weak references) lives
    # in report.once: no other module imports weakref, no code assigns a
    # memo slot but the None an __init__ starts it with, and no code reads
    # one, by getattr or as an attribute, outside report.py and __init__,
    # so no result depends on whether another check happened to run first
    slots = {"_sheaf_certificate", "_posheaf_report", "_completeness", "_frame_sheaf", "_etale", "_gamma", "_verified"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inits = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "__init__" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "report.py":
                if "weakref" in {getattr(node, "module", None), *(a.name for a in node.names)}:
                    found.append(f"{path.name}:{node.lineno} imports weakref")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
                if any(isinstance(a, ast.Constant) and a.value in slots for a in node.args):
                    found.append(f"{path.name}:{node.lineno} setattr of a memo slot")
            if path.name != "report.py" and id(node) not in inits:
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                    if any(isinstance(a, ast.Constant) and a.value in slots for a in node.args):
                        found.append(f"{path.name}:{node.lineno} getattr of a memo slot")
                if isinstance(node, ast.Attribute) and node.attr in slots and isinstance(node.ctx, ast.Load):
                    found.append(f"{path.name}:{node.lineno} reads a memo slot")
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                initialiser = id(node) in inits and isinstance(node.value, ast.Constant) and node.value.value is None
                for t in targets:
                    if any(isinstance(n, ast.Attribute) and n.attr in slots for n in ast.walk(t)) and not initialiser:
                        found.append(f"{path.name}:{node.lineno} assigns a memo slot")
    assert found == []


def test_lazy_attributes_are_frames_lazy():
    # a value computed on first read is a frames.lazy, which stores it with
    # setattr and takes no lock; functools.cached_property writes the
    # instance __dict__, which slows every later attribute read of the
    # object on CPython 3.11
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and "cached_property" in {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
    ]
    assert found == []


def test_only_posheaf_reads_its_orders_attribute():
    # a posheaf keeps each order as the rows of one FinitePoset per open;
    # other code reads them through leq, poset or sorted_pairs, so the
    # format stays behind orders.PoSheaf. The argparse args.orders is
    # another attribute
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        if path.name == "orders.py":
            inside = {id(n) for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "PoSheaf" for n in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "orders" and id(node) not in inside:
                if not (path.name == "cli.py" and getattr(node.value, "id", None) == "args"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


WALKERS = {"_germ_downsets", "enumerate_subsheaves", "enumerate_downsheaves", "_power_members"}


def _walks(node) -> bool:
    """node calls a metered enumeration, directly or through list, tuple,
    sorted or enumerate."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    if name in WALKERS:
        return True
    return name in ("list", "tuple", "sorted", "enumerate") and bool(node.args) and _walks(node.args[0])


def _count_only_walks(tree) -> list[int]:
    """The lines where an enumeration's members are dropped: a loop or a
    comprehension over it that never reads its target, a call of it whose
    value is discarded, or its len()."""
    found = []

    def reads(names, nodes) -> bool:
        return any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names for part in nodes for n in ast.walk(part))

    def bound(target) -> set:
        return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}

    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _walks(node.iter) and not reads(bound(node.target), node.body):
            found.append(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            body = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for i, gen in enumerate(node.generators):
                rest = body + [c for g in node.generators[i:] for c in g.ifs] + [g.iter for g in node.generators[i + 1:]]
                if _walks(gen.iter) and not reads(bound(gen.target), rest):
                    found.append(node.lineno)
        elif isinstance(node, ast.Expr) and _walks(node.value):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len" and node.args and _walks(node.args[0]):
            found.append(node.lineno)
    return sorted(found)


def test_no_count_only_walks():
    # a budget meter ticks only at members that are built or decided: no
    # package loop walks Sub, Dow, ℙF or the germ down-sets only to drop
    # what it walks, so a count-only walk cannot tick a meter for a verdict
    # that never reads the members. The patterns are caught as written
    bad = """
for _ in _germ_downsets(F, germs, meter):
    pass
n = sum(1 for _ in enumerate_subsheaves(F, u, meter=meter))
_power_members(F, meter)
m = len(list(enumerate_downsheaves(F, u)))
"""
    assert _count_only_walks(ast.parse(bad)) == [2, 4, 5, 6]
    good = "subs = [S.key() for S in enumerate_subsheaves(F)]\nfor i, d in enumerate(_germ_downsets(P, g, m)):\n    use(d)\n"
    assert _count_only_walks(ast.parse(good)) == []
    found = [f"{path.name}:{line}" for path in _modules() for line in _count_only_walks(ast.parse(path.read_text()))]
    assert found == []


def _lower_cover_readers(tree, filename: str) -> list[int]:
    """The lines that call lower_covers outside frames.py and
    complete._left_adjoint."""
    if filename == "frames.py":
        return []
    allowed = set()
    if filename == "complete.py":
        allowed = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_left_adjoint" for n in ast.walk(f)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "lower_covers" and id(node) not in allowed
    )


def test_lower_covers_are_read_by_the_kernel_alone():
    # a law that composes along chains is decided at the lower covers, and
    # its reject scan over every pair run, by FiniteFrame.first_failing_pair
    # alone; complete._left_adjoint reads them to compose adjoints through
    # the first lower cover. So no module keeps a decide-then-rescan loop of
    # its own. The patterns are caught as written
    bad = "def f(frame):\n    return all(g(u, v) for u in frame.elements for v in frame.lower_covers(u))\n"
    assert _lower_cover_readers(ast.parse(bad), "orders.py") == [2]
    assert _lower_cover_readers(ast.parse(bad), "complete.py") == [2]
    good = "def _left_adjoint(F, u, v):\n    return next(w for w in F.frame.lower_covers(u))\n"
    assert _lower_cover_readers(ast.parse(good), "complete.py") == []
    found = [f"{path.name}:{line}" for path in _modules() for line in _lower_cover_readers(ast.parse(path.read_text()), path.name)]
    assert found == []


def _presheaf_constructions(tree, filename: str) -> list[int]:
    """The lines that call Presheaf outside jsonio.py, fixtures.py and the
    Presheaf class itself."""
    if filename in ("jsonio.py", "fixtures.py"):
        return []
    allowed = set()
    if filename == "sheaves.py":
        allowed = {id(n) for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Presheaf" for n in ast.walk(c)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Presheaf"
        and id(node) not in allowed
    )


def test_restriction_tables_are_built_by_presheaf_of_alone():
    # a construction gives its restriction as a function, x ↦ x|_v, and
    # Presheaf.of builds the tables, so their format is known to the
    # builder, the document loader and the literal fixtures alone. The
    # patterns are caught as written
    bad = "def f(X, carriers, res):\n    return Presheaf(X, carriers, res)\n"
    assert _presheaf_constructions(ast.parse(bad), "orders.py") == [2]
    assert _presheaf_constructions(ast.parse(bad), "sheaves.py") == [2]
    assert _presheaf_constructions(ast.parse(bad), "jsonio.py") == []
    good = "class Presheaf:\n    def of(cls, frame, carriers, restrict):\n        return Presheaf(frame, carriers, {})\n"
    assert _presheaf_constructions(ast.parse(good), "sheaves.py") == []
    found = [f"{path.name}:{line}" for path in _modules() for line in _presheaf_constructions(ast.parse(path.read_text()), path.name)]
    assert found == []


def _res_stores(tree) -> list[int]:
    """The lines of Presheaf.__init__ that assign res, as an attribute or
    into it by key, and the line of class Presheaf when its res is not a
    frames.lazy view."""
    cls = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Presheaf")
    methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
    lines = [
        node.lineno
        for node in ast.walk(methods["__init__"])
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if any(isinstance(n, ast.Attribute) and n.attr == "res" for n in ast.walk(target))
    ]
    view = "res" in methods and any(getattr(d, "id", None) == "lazy" for d in methods["res"].decorator_list)
    return sorted(set(lines + ([] if view else [cls.lineno])))


def test_presheaf_stores_each_table_once():
    # res_at is the one stored form of a restriction and res a view built
    # from it on first read, so __init__ assigns no res, as an attribute or
    # by key. The patterns are caught as written
    bad = "class Presheaf:\n    def __init__(self, res):\n        self.res, self.res_at = {}, {}\n        self.res[u, v] = res[u, v]\n"
    assert _res_stores(ast.parse(bad)) == [1, 3, 4]
    good = "class Presheaf:\n    def __init__(self, res):\n        self.res_at = {}\n        table = res[u, v]\n    @lazy\n    def res(self):\n        return {}\n"
    assert _res_stores(ast.parse(good)) == []
    assert _res_stores(ast.parse((PACKAGE / "sheaves.py").read_text())) == []


def _section_constructions(tree, filename: str) -> list[int]:
    """The lines that call Section outside locale_equiv's _point_sections and
    unit and outside tests/oracles.py."""
    if filename == "oracles.py":
        return []
    allowed = set()
    if filename == "locale_equiv.py":
        allowed = {
            id(n)
            for f in tree.body
            if isinstance(f, ast.FunctionDef) and f.name in ("_point_sections", "unit")
            for n in ast.walk(f)
        }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Section"
        and id(node) not in allowed
    )


def test_sections_are_built_by_the_point_search_alone():
    # Γ's sections are built once, by the point search over φ, and its
    # restriction returns the carrier's own section for φ on J↓v; the unit
    # reads a section of Λ from its columns. So no path rebuilds a section
    # by meeting its value table with an open; the definitions that do are
    # oracles. The patterns are caught as written
    bad = "def restrict(u, s, v):\n    return Section(over=v, values=tuple(X.meet(x, v) for x in s.values))\n"
    assert _section_constructions(ast.parse(bad), "locale_equiv.py") == [2]
    assert _section_constructions(ast.parse(bad), "test_reductions.py") == [2]
    assert _section_constructions(ast.parse(bad), "oracles.py") == []
    good = "def unit(P, E, G):\n    return Section(over=u, values=columns[k])\n"
    assert _section_constructions(ast.parse(good), "locale_equiv.py") == []
    paths = [*_modules(), *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    found = [f"{path.name}:{line}" for path in paths for line in _section_constructions(ast.parse(path.read_text()), path.name)]
    assert found == []


# the kernels that read a presheaf's restrictions as positions (res_at),
# by module and by name, a method as Class.method
POSITION_KERNELS = {
    "sheaves.py": {
        "Presheaf._verify_fresh",
        "_glues",
        "_germ_table",
        "_germ_places",
        "_germ_downsets",
        "SheafMorphism.verify",
        "SheafMorphism.compose",
    },
    "orders.py": {"PoSheaf.row", "_pos2", "pull_up_sources", "_patching_gap", "verify_order_preserving", "morphism_leq"},
    "generate.py": {"_order_posets"},
    "complete.py": {
        "_per_open_form",
        "_left_adjoint",
        "_adjoint_square_check",
        "_adjoint_square_gap",
        "_restriction_gap",
        "_semilattice_gap",
        "_finite_meets_gap",
        "_least_preimages",
        "image_subsheaf",
    },
}


def _section_restrictions(tree, kernels: set) -> list[str]:
    """The kernels in kernels that read res[...], call restrict(...) or read
    a morphism's element maps (.maps), with the line of each read; a kernel
    missing from the module is reported too, so a rename cannot empty the
    test."""
    found, seen = [], set()
    named = [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body if isinstance(f, ast.FunctionDef)]
    named += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    for name, fn in named:
        if name not in kernels:
            continue
        seen.add(name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "res":
                found.append(f"{name}:{node.lineno} reads res")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "restrict":
                found.append(f"{name}:{node.lineno} calls restrict")
            if isinstance(node, ast.Attribute) and node.attr == "maps":
                found.append(f"{name}:{node.lineno} reads maps")
    return found + [f"{name} missing" for name in sorted(kernels - seen)]


def test_position_kernels_read_no_section_restriction():
    # every law kernel that compares restrictions reads res_at, positions
    # numbered once per presheaf, and every kernel that reads a morphism
    # reads its position tables (SheafMorphism.at), with no per-call
    # section -> position lookup; res, restrict and maps are left to
    # witnesses, labels and documents
    bad = (
        "class Presheaf:\n    def _verify_fresh(self):\n        return self.res[u, v][x]\n"
        "def _glues(P):\n    return P.restrict(u, x, v)\n"
        "def morphism_leq(alpha, beta):\n    return alpha.maps[u][x]\n"
    )
    assert _section_restrictions(ast.parse(bad), {"Presheaf._verify_fresh", "_glues", "morphism_leq", "_gone"}) == [
        "Presheaf._verify_fresh:3 reads res",
        "_glues:5 calls restrict",
        "morphism_leq:7 reads maps",
        "_gone missing",
    ]
    found = [
        f"{module}: {line}"
        for module, kernels in POSITION_KERNELS.items()
        for line in _section_restrictions(ast.parse((PACKAGE / module).read_text()), kernels)
    ]
    assert found == []


def _monotone_map_names(tree, filename: str) -> list[int]:
    """The lines that name MonotoneMap, by a call, an attribute or an
    import, outside frames.py."""
    if filename == "frames.py":
        return []
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if "MonotoneMap" in {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
        }
    )


def test_only_frames_builds_a_monotone_map():
    # the map kernels (monotone_gap, _bound_failure, galois_gap,
    # _hom_report) read an image tuple of positions, which a posheaf's
    # res_at and a morphism's at already are; MonotoneMap is the element
    # wrapper of frames.py alone, which its API converts once per call. The
    # patterns are caught as written
    bad = (
        "from .frames import MonotoneMap\n"
        "def gap(F, u, v):\n    return preserves_all_joins(MonotoneMap(F.poset(u), F.poset(v), F.sheaf.res[u, v]))\n"
        "def ident(F):\n    return frames.MonotoneMap.identity(F)\n"
    )
    assert _monotone_map_names(ast.parse(bad), "complete.py") == [1, 3, 5]
    assert _monotone_map_names(ast.parse(bad), "frames.py") == []
    found = [f"{path.name}:{line}" for path in _modules() for line in _monotone_map_names(ast.parse(path.read_text()), path.name)]
    assert found == []


# the kernels that read a SubSheaf as its bitset over the parent's points,
# by module and by name, a method as Class.method
BITSET_KERNELS = {
    "sheaves.py": {
        "SubSheaf.__eq__",
        "SubSheaf.__hash__",
        "SubSheaf.issubset",
        "SubSheaf.clip",
        "SubSheaf.contains",
        "SubSheaf.size",
        "SubSheaf.key",
        "_germ_subsheaf",
        "generate_subsheaf",
    },
    "complete.py": {"_upper_bound_mask"},
}


def _part_set_reads(tree, kernels: set) -> list[str]:
    """The kernels in kernels that build a frozenset or read .parts or
    .part(...), each finding once, sorted; a kernel missing from the module is
    reported too, so a rename cannot empty the test."""
    found, seen = [], set()
    named = [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body if isinstance(f, ast.FunctionDef)]
    named += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    for name, fn in named:
        if name not in kernels:
            continue
        seen.add(name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "frozenset":
                found.append(f"{name}:{node.lineno} builds a frozenset")
            if isinstance(node, ast.Attribute) and node.attr == "parts":
                found.append(f"{name}:{node.lineno} reads parts")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "part":
                found.append(f"{name}:{node.lineno} calls part")
    return sorted(set(found)) + [f"{name} missing" for name in sorted(kernels - seen)]


def test_subsheaf_kernels_read_the_bitset_alone():
    # equality, hashing, inclusion, clipping, membership, size, the sort
    # key, the germ walk's members, the generated subsheaf and the bound
    # rows all read a subsheaf's bits; the per-open frozensets are views
    # for documents, witnesses and labels
    bad = (
        "class SubSheaf:\n    def __eq__(self, other):\n        return self.parts == other.parts\n"
        "    def clip(self, v):\n        return frozenset(self.part(v))\n"
    )
    assert _part_set_reads(ast.parse(bad), {"SubSheaf.__eq__", "SubSheaf.clip", "_gone"}) == [
        "SubSheaf.__eq__:3 reads parts",
        "SubSheaf.clip:5 builds a frozenset",
        "SubSheaf.clip:5 calls part",
        "_gone missing",
    ]
    found = [
        f"{module}: {line}"
        for module, kernels in BITSET_KERNELS.items()
        for line in _part_set_reads(ast.parse((PACKAGE / module).read_text()), kernels)
    ]
    assert found == []


# the checks that Λ and Γ issue by proof for what they build, and the
# builders whose results they are
PROVED_CHECKS = {"verify_sheaf", "verify_presheaf", "verify_frame_hom", "verify_morphism"}
BUILDERS = {"Presheaf", "LocaleOverX", "of", "SheafMorphism"}


def _root(node):
    """The name an expression such as a.b[c].d is read from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return getattr(node, "id", None)


def _checks_of_built(tree, names: set) -> list[str]:
    """In each function of names, the calls of PROVED_CHECKS on anything but
    one of its parameters, and the .verify() calls on a name it binds to a
    Presheaf, Presheaf.of, LocaleOverX or SheafMorphism, with their lines,
    sorted; a
    function missing from the module is reported too, so a rename cannot
    empty the test."""
    found, seen = [], set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in names:
            continue
        seen.add(fn.name)
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        built = {
            t.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) in BUILDERS
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None)
            if name in PROVED_CHECKS and not (node.args and _root(node.args[0]) in params):
                found.append((node.lineno, f"{fn.name}:{node.lineno} {name}"))
            if getattr(node.func, "attr", None) == "verify" and _root(node.func.value) in built:
                found.append((node.lineno, f"{fn.name}:{node.lineno} verify"))
    return [text for _, text in sorted(found)] + [f"{name} missing" for name in sorted(names - seen)]


def test_lambda_and_gamma_check_nothing_they_build():
    # Γ is a sheaf whose restrictions compose, Λ's projection is a frame
    # hom and the unit η is natural, by proof: _etale_locale_fresh and
    # _cross_sections_fresh issue those reports through report.once, unit
    # issues η's, and none runs a check on what it builds. Their inputs are
    # still checked. The patterns are caught as written
    bad = (
        "def _etale_locale_fresh(P, meter):\n"
        "    verify_presheaf(P).require()\n"
        "    locale = LocaleOverX(OY=frame, fstar=FrameHom(X, frame, m))\n"
        "    rep = locale.verify()\n"
        "    hom = verify_frame_hom(FrameHom(X, frame, m))\n"
        "def _cross_sections_fresh(f, nodes):\n"
        "    f.verify().require()\n"
        "    sheaf = Presheaf.of(OX, carriers, restrict)\n"
        "    cert = verify_sheaf(sheaf)\n"
        "    pre = verify_presheaf(sheaf)\n"
        "def unit(P, E, G):\n"
        "    eta = SheafMorphism(P, G.sheaf, maps)\n"
        "    nat = eta.verify()\n"
        "    again = verify_morphism(eta)\n"
    )
    names = {"_etale_locale_fresh", "_cross_sections_fresh", "unit"}
    assert _checks_of_built(ast.parse(bad), names | {"_gone"}) == [
        "_etale_locale_fresh:4 verify",
        "_etale_locale_fresh:5 verify_frame_hom",
        "_cross_sections_fresh:9 verify_sheaf",
        "_cross_sections_fresh:10 verify_presheaf",
        "unit:13 verify",
        "unit:14 verify_morphism",
        "_gone missing",
    ]
    source = ast.parse((PACKAGE / "locale_equiv.py").read_text())
    assert _checks_of_built(source, names) == []


# the FinitePoset operations that answer from the rows, which a FiniteFrame
# answers from its Birkhoff masks instead
POSET_OPS = {"leq", "join", "meet", "join_all", "meet_all", "bottom", "top", "least_index", "greatest_index"}


def _poset_op_reads(tree) -> list[str]:
    """The reads of self.poset.<op>, for an op of POSET_OPS, in the methods
    of the FiniteFrame class, as method:line; a module without the class is
    reported, so a rename cannot empty the test."""
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "FiniteFrame"]
    if not classes:
        return ["FiniteFrame missing"]
    return [
        f"{fn.name}:{node.lineno}"
        for fn in classes[0].body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and node.attr in POSET_OPS
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "poset"
        and getattr(node.value.value, "id", None) == "self"
    ]


def test_frame_methods_answer_from_the_masks_alone():
    # a FiniteFrame is a frame: Birkhoff's test runs when it is built
    # (frames._birkhoff, outside the class), and a relation that fails it
    # builds none, so every method reads the masks and none answers from
    # the poset's rows. Reading the rows themselves (down_rows, members,
    # sorted, pairs) is no answer. The patterns are caught as written
    bad = (
        "class FiniteFrame:\n"
        "    def join(self, x, y):\n"
        "        return self.poset.join(x, y)\n"
        "    @lazy\n"
        "    def bottom(self):\n"
        "        return self.poset.bottom\n"
        "    def down(self, u):\n"
        "        return self.poset.members(self.poset.down_rows[self.index[u]])\n"
    )
    assert _poset_op_reads(ast.parse(bad)) == ["join:3", "bottom:6"]
    assert _poset_op_reads(ast.parse("class FiniteLattice:\n    pass\n")) == ["FiniteFrame missing"]
    assert _poset_op_reads(ast.parse((PACKAGE / "frames.py").read_text())) == []
