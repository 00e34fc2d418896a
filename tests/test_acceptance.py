"""Acceptance battery: every criterion at its stated tolerance, one pass/fail
line per criterion. Criterion 12 (byte determinism) is computed inside the
suite by rerunning criteria 1-11 and comparing serialized reports."""
from __future__ import annotations

import hashlib
import json

import pytest

from posheaf.report import Budget
from posheaf.suite import CRITERIA_TITLES, acceptance_suite

_SUITE = {}


@pytest.fixture(scope="module")
def suite_report():
    if not _SUITE:
        _SUITE["report"] = acceptance_suite(seed=42, budget=Budget())
    return _SUITE["report"]


@pytest.mark.parametrize("criterion_id", sorted(CRITERIA_TITLES))
def test_criterion(suite_report, criterion_id, capsys):
    entry = next(c for c in suite_report["criteria"] if c["id"] == criterion_id)
    status = "PASS" if entry["passed"] else "FAIL"
    with capsys.disabled():
        print(f"criterion {criterion_id:2d}: {status} - {entry['title']}")
    if not entry["passed"]:
        print(json.dumps(entry["details"], indent=2, sort_keys=True, default=str)[:4000])
    assert entry["passed"], f"criterion {criterion_id} failed"


def test_corpus_quotas(suite_report):
    details = next(c for c in suite_report["criteria"] if c["id"] == 1)["details"]
    assert details["instances"] >= 200
    assert details["mutated_negatives"] >= 50
    assert details["disagreements"] == []


def test_suite_verdict_and_serialization(suite_report):
    assert suite_report["passed"] is True
    text = json.dumps(suite_report, indent=2, sort_keys=True)
    assert json.loads(text) == suite_report


def test_suite_report_bytes_are_pinned(suite_report):
    # criteria 1-11 as written, the bytes criterion 12 compares across runs;
    # a change that moves them must say so and pin the new digest
    text = json.dumps(suite_report["criteria"][:11], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "5de789ffaf406b8d1f1b83967b1489a5050e53f16b70cab97121386cf0dde6e5"
