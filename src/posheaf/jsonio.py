"""JSON document formats for every external interface: frames, presheaves
and posheaves, morphisms, frame homs under the base, locales over the base,
and subsheaf parts. Loaders accept inline objects or relative paths."""
from __future__ import annotations

import json
from pathlib import Path

from .frames import FiniteFrame, FrameHom, close_and_verify_frame
from .locale_equiv import LocaleOverX
from .orders import PoSheaf
from .report import MalformedInput
from .sheaves import Presheaf, SheafMorphism, SubSheaf


def _as_doc(value, base_dir: Path | None):
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            return json.loads(path.read_text()), path.parent
        except OSError as exc:
            raise MalformedInput(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON in {path}: {exc}") from exc
    if isinstance(value, dict):
        return value, base_dir
    raise MalformedInput(f"expected an object or a path, got {type(value).__name__}")


def _table(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedInput(f"{what} must be an object, got {type(value).__name__}")
    return value


def _strings(value, what: str) -> list[str]:
    if not isinstance(value, (list, tuple)):
        raise MalformedInput(f"{what} must be a list, got {type(value).__name__}")
    return [str(x) for x in value]


def _pairs(value, what: str) -> list[tuple[str, str]]:
    """The [x, y] pairs of a list as string pairs, in one pass that keeps
    only the well-formed ones: any other item makes the list shorter."""
    if isinstance(value, (list, tuple)):
        pairs = [(str(p[0]), str(p[1])) for p in value if isinstance(p, (list, tuple)) and len(p) == 2]
        if len(pairs) == len(value):
            return pairs
    raise MalformedInput(f"{what} must be a list of [x, y] pairs")


def read_json(path) -> dict:
    doc, _ = _as_doc(str(path), None)
    return doc


def frame_relation(doc: dict) -> tuple[list[str], list[tuple[str, str]]]:
    """The elements and the generating order pairs of a frame document."""
    if not isinstance(doc, dict) or "elements" not in doc or "leq" not in doc:
        raise MalformedInput("frame document needs 'elements' and 'leq'")
    return _strings(doc["elements"], "'elements'"), _pairs(doc["leq"], "'leq'")


def load_frame(doc, base_dir: Path | None = None) -> FiniteFrame:
    """The frame a document describes, checked against the frame laws: a
    document that is not a frame is malformed input, with the frame report."""
    doc, _ = _as_doc(doc, base_dir)
    frame, report = close_and_verify_frame(*frame_relation(doc))
    if frame is None:
        raise MalformedInput(f"not a frame: {report.name}", report=report)
    return frame


def dump_frame_doc(frame: FiniteFrame, **extra) -> dict:
    """The frame as a document: its elements, and every pair x < y of its
    order, x-major in element order, read from the up rows."""
    poset = frame.poset
    pairs = [
        [x, y] for i, x in enumerate(frame.elements) for y in poset.members(poset.up_rows[i] & ~(1 << i))
    ]
    doc = {"elements": list(frame.elements), "leq": pairs}
    doc.update(extra)
    return doc


def load_presheaf(doc, base_dir: Path | None = None) -> Presheaf:
    doc, inner = _as_doc(doc, base_dir)
    if "frame" not in doc or "carriers" not in doc:
        raise MalformedInput("presheaf document needs 'frame' and 'carriers'")
    frame = load_frame(doc["frame"], inner)
    carriers = {
        str(u): tuple(_strings(xs, f"carrier {u!r}")) for u, xs in _table(doc["carriers"], "'carriers'").items()
    }
    unknown = set(carriers) - set(frame.elements)
    if unknown:
        raise MalformedInput(f"carriers mention unknown opens: {sorted(unknown)}")
    res = {}
    for key, table in _table(doc.get("res", {}), "'res'").items():
        if "->" not in key:
            raise MalformedInput(f"restriction key {key!r} is not of the form 'u->v'")
        u, v = (part.strip() for part in key.split("->", 1))
        if u not in frame or v not in frame:
            raise MalformedInput(f"restriction key {key!r} names an unknown open")
        if not frame.leq(v, u):
            raise MalformedInput(f"restriction key {key!r}: {v!r} is not below {u!r}")
        res[(u, v)] = {str(x): str(y) for x, y in _table(table, f"restriction table {key!r}").items()}
    return Presheaf(frame, carriers, res)


def load_posheaf(doc, base_dir: Path | None = None) -> PoSheaf:
    doc, inner = _as_doc(doc, base_dir)
    sheaf = load_presheaf(doc, inner)
    orders = {
        str(u): _pairs(pairs, f"order at {u!r}") for u, pairs in _table(doc.get("order", {}), "'order'").items()
    }
    unknown = set(orders) - set(sheaf.frame.elements)
    if unknown:
        raise MalformedInput(f"order mentions unknown opens: {sorted(unknown)}")
    return PoSheaf(sheaf, orders)


def _section_labels(P: Presheaf) -> dict:
    """u ↦ {x: P.label(u, x)} in carrier order, the names sections are
    written under; two sections with one label at an open would load back
    as one, so they are malformed."""
    out = {}
    for u in P.frame.elements:
        labels = {x: P.label(u, x) for x in P.carriers[u]}
        if len(set(labels.values())) != len(labels):
            raise MalformedInput(f"two sections at {u!r} have the same label")
        out[u] = labels
    return out


def _presheaf_doc(P: Presheaf, labels: dict) -> dict:
    """The document of P, each u->v table written from res_at[u, v] over
    the label lists in carrier order."""
    names = {u: list(labels[u].values()) for u in P.frame.elements}
    res = {
        f"{u}->{v}": dict(zip(names[u], map(names[v].__getitem__, table)))
        for (u, v), table in P.res_at.items()
        if u != v
    }
    return {"frame": dump_frame_doc(P.frame), "carriers": names, "res": res}


def dump_presheaf_doc(P: Presheaf, **extra) -> dict:
    """The document load_presheaf reads, with every section written as its
    label (P.label)."""
    doc = _presheaf_doc(P, _section_labels(P))
    doc.update(extra)
    return doc


def dump_posheaf_doc(F: PoSheaf, **extra) -> dict:
    """dump_presheaf_doc of the sheaf plus the strict order pairs at each
    open, sorted by the carrier positions of both ends."""
    labels = _section_labels(F.sheaf)
    doc = _presheaf_doc(F.sheaf, labels)
    doc["order"] = {
        u: [[labels[u][x], labels[u][y]] for x, y in F.sorted_pairs(u) if x != y] for u in F.frame.elements
    }
    doc.update(extra)
    return doc


def load_morphism(doc, base_dir: Path | None = None) -> tuple[SheafMorphism, PoSheaf, PoSheaf]:
    doc, inner = _as_doc(doc, base_dir)
    for key in ("source", "target", "maps"):
        if key not in doc:
            raise MalformedInput(f"morphism document needs {key!r}")
    source = load_posheaf(doc["source"], inner)
    target = load_posheaf(doc["target"], inner)
    maps = {
        str(u): {str(x): str(y) for x, y in _table(table, f"map at {u!r}").items()}
        for u, table in _table(doc["maps"], "'maps'").items()
    }
    return SheafMorphism(source.sheaf, target.sheaf, maps), source, target


def dump_morphism_doc(alpha: SheafMorphism, source: PoSheaf, target: PoSheaf) -> dict:
    return {
        "source": dump_posheaf_doc(source),
        "target": dump_posheaf_doc(target),
        "maps": {
            u: {alpha.source.label(u, x): alpha.target.label(u, alpha(u, x)) for x in alpha.source.carriers[u]}
            for u in alpha.source.frame.elements
        },
    }


def load_frame_under_x(doc, base_dir: Path | None = None):
    from .frame_equiv import FrameUnderX

    doc, inner = _as_doc(doc, base_dir)
    for key in ("source", "target", "map"):
        if key not in doc:
            raise MalformedInput(f"frame-hom document needs {key!r}")
    source = load_frame(doc["source"], inner)
    target = load_frame(doc["target"], inner)
    mapping = {str(x): str(y) for x, y in _table(doc["map"], "'map'").items()}
    missing = set(source.elements) - set(mapping)
    if missing:
        raise MalformedInput(f"frame-hom map missing {sorted(missing)}")
    return FrameUnderX(FrameHom(source, target, mapping))


def dump_frame_under_x_doc(h) -> dict:
    return {
        "source": dump_frame_doc(h.base),
        "target": dump_frame_doc(h.target),
        "map": {str(x): str(h.hom(x)) for x in h.base.elements},
    }


def load_locale(doc, base_dir: Path | None = None) -> LocaleOverX:
    doc, inner = _as_doc(doc, base_dir)
    if "OY" in doc:
        oy = load_frame(doc["OY"], inner)
        base_key = "OX" if "OX" in doc else "base"
        if base_key not in doc:
            raise MalformedInput("locale document needs a base frame ('OX')")
        ox = load_frame(doc[base_key], inner)
    elif "elements" in doc and "fstar" in doc:
        oy = load_frame(doc, inner)
        if "base" not in doc and "OX" not in doc:
            raise MalformedInput("flat locale document needs 'base'")
        ox = load_frame(doc.get("base", doc.get("OX")), inner)
    else:
        raise MalformedInput("locale document needs 'OY'+'fstar' (or a flat frame with 'fstar')")
    if "fstar" not in doc:
        raise MalformedInput("locale document needs 'fstar'")
    mapping = {str(x): str(y) for x, y in _table(doc["fstar"], "'fstar'").items()}
    missing = set(ox.elements) - set(mapping)
    if missing:
        raise MalformedInput(f"fstar missing {sorted(missing)}")
    return LocaleOverX(OY=oy, fstar=FrameHom(ox, oy, mapping))


def dump_locale_doc(f: LocaleOverX) -> dict:
    return {
        "OX": dump_frame_doc(f.fstar.source),
        "OY": dump_frame_doc(f.OY),
        "fstar": {str(x): str(f.fstar(x)) for x in f.fstar.source.elements},
    }


def load_subsheaf(F: Presheaf, doc, base_dir: Path | None = None) -> SubSheaf:
    doc, _ = _as_doc(doc, base_dir)
    if "parts" not in doc:
        raise MalformedInput("subsheaf document needs 'parts'")
    parts = {str(u): _strings(xs, f"part at {u!r}") for u, xs in _table(doc["parts"], "'parts'").items()}
    unknown = set(parts) - set(F.frame.elements)
    if unknown:
        raise MalformedInput(f"parts mention unknown opens: {sorted(unknown)}")
    return SubSheaf(F, parts)


def section_orders_from_doc(G, doc) -> dict:
    """Orders over section labels ('s0', 's1', ...) into Section-keyed pairs."""
    orders = {}
    for u, pairs in _table(doc, "section orders").items():
        if u not in G.sheaf.frame.elements:
            raise MalformedInput(f"section order mentions unknown open {u!r}")
        by_label = {G.sheaf.label(u, s): s for s in G.sheaf.carriers[u]}
        resolved = []
        for x, y in _pairs(pairs, f"section order at {u!r}"):
            if x not in by_label or y not in by_label:
                raise MalformedInput(f"unknown section label at {u!r}: {(x, y)!r}")
            resolved.append((by_label[x], by_label[y]))
        orders[u] = resolved
    for u in G.sheaf.frame.elements:
        orders.setdefault(u, [])
    return orders
