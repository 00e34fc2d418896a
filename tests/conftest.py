"""Shared fixtures, re-exported from the package's fixture catalog."""
from __future__ import annotations

import itertools

import pytest

from posheaf.fixtures import (
    FIXTURE_FRAMES,
    frame_2,
    frame_3,
    frame_6,
    frame_d,
    posheaf_ab,
    sheaf_ab,
)
from posheaf.frames import FiniteFrame, build_frame
from posheaf.orders import PoSheaf
from posheaf.sheaves import Presheaf

FIXTURE_FRAME_BUILDERS = FIXTURE_FRAMES


@pytest.fixture
def F2():
    return frame_2()


@pytest.fixture
def F3():
    return frame_3()


@pytest.fixture
def FD():
    return frame_d()


@pytest.fixture
def F6():
    return frame_6()


@pytest.fixture
def SAB(FD):
    return sheaf_ab(FD)


@pytest.fixture
def PAB(FD):
    return posheaf_ab(FD)


def _diamond_over_chain(images: str) -> PoSheaf:
    """On the 3-chain 0 < a < 1: the chain s < t over a and the diamond
    b < x, y < z over 1, whose restriction to a sends b, x, y, z to the
    letters of images. Every F(u) is a lattice, and every cover of an open
    holds it, so this is a posheaf whenever the restriction is monotone."""
    carriers = {"0": ("*",), "a": ("s", "t"), "1": ("b", "x", "y", "z")}
    res = {
        ("a", "0"): {"s": "*", "t": "*"},
        ("1", "0"): {c: "*" for c in carriers["1"]},
        ("1", "a"): dict(zip(carriers["1"], images)),
    }
    orders = {"a": [("s", "t")], "1": [("b", "x"), ("b", "y"), ("x", "z"), ("y", "z"), ("b", "z")]}
    return PoSheaf(Presheaf(frame_3(), carriers, res), orders)


@pytest.fixture
def diamond_over_chain():
    return _diamond_over_chain


def _boolean_frame(k: int) -> FiniteFrame:
    """2^k, the down-sets of the antichain a, b, c, ... of k points: each
    open is named by its points ("0" when empty) and listed by size, then
    alphabetically, which is a linear extension of inclusion."""
    points = "abcdefghijklmnopqrstuvwxyz"[:k]
    subsets = [c for n in range(k + 1) for c in itertools.combinations(points, n)]
    names = ["".join(c) or "0" for c in subsets]
    pairs = [(names[i], names[j]) for i, s in enumerate(subsets) for j, t in enumerate(subsets) if set(s) <= set(t)]
    return build_frame(names, pairs)


@pytest.fixture
def boolean_frame():
    return _boolean_frame
