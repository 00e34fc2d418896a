"""Check reports, budgets, and the error types shared by every layer."""
from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


class PosheafError(Exception):
    """Base class for structured failures; may carry the report with the witness."""

    def __init__(self, message: str, report: "CheckReport | None" = None):
        super().__init__(message)
        self.report = report


class MalformedInput(PosheafError):
    pass


class NotAPoset(PosheafError):
    pass


class NotALattice(PosheafError):
    pass


class NotDistributive(PosheafError):
    pass


class DomainMismatch(PosheafError):
    pass


class NotMonotone(PosheafError):
    pass


class MissingRestriction(PosheafError):
    pass


class NotRestrictionClosed(PosheafError):
    pass


class SectionNotInCarrier(PosheafError):
    pass


class NotComplete(PosheafError):
    pass


class NotFrameSheaf(PosheafError):
    pass


class IsoSearchFailed(PosheafError):
    pass


class OrderNotProvided(PosheafError):
    pass


class RepairFailed(PosheafError):
    pass


class ResourceLimit(PosheafError):
    """A configured enumeration budget was exceeded; never a silent truncation."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"budget exceeded: {what} (limit {limit})")
        self.what = what
        self.limit = limit


@dataclass
class CheckReport:
    """Verdict of one law check, with a witness on failure and optional sub-checks.

    Serialization uses a fixed field order and no unordered containers, so a
    report is byte-stable for fixed inputs.
    """

    name: str
    passed: bool
    witness: Any = None
    details: dict = field(default_factory=dict)
    subreports: list = field(default_factory=list)
    elapsed_ms: float | None = None

    @classmethod
    def ok(cls, name: str, **details) -> "CheckReport":
        return cls(name=name, passed=True, details=details)

    @classmethod
    def fail(cls, name: str, witness: Any, **details) -> "CheckReport":
        return cls(name=name, passed=False, witness=witness, details=details)

    @classmethod
    def combine(cls, name: str, subreports: Iterable["CheckReport"], **details) -> "CheckReport":
        subs = list(subreports)
        bad = next((r for r in subs if not r.passed), None)
        return cls(
            name=name,
            passed=bad is None,
            witness=None if bad is None else {"first_failed": bad.name, "witness": bad.witness},
            details=details,
            subreports=subs,
        )

    def require(self, exc: type = PosheafError) -> "CheckReport":
        if not self.passed:
            raise exc(f"{self.name}: {self.witness!r}", report=self)
        return self

    def first_failure(self) -> "CheckReport | None":
        if self.passed:
            return None
        for sub in self.subreports:
            deep = sub.first_failure()
            if deep is not None:
                return deep
        return self

    def to_json(self, include_timing: bool = True) -> dict:
        doc = {
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
            "details": self.details,
            "subreports": [r.to_json(include_timing) for r in self.subreports],
        }
        if include_timing and self.elapsed_ms is not None:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc


def timed(fn: Callable) -> Callable:
    """Stamp elapsed_ms onto the CheckReport-like result of a verify function."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        ms = (time.perf_counter() - t0) * 1000.0
        if isinstance(out, CheckReport):
            out.elapsed_ms = ms
        return out

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@dataclass(frozen=True)
class Budget:
    """Enumeration guards; exceeding one raises ResourceLimit, never truncates.
    A negative guard is malformed input."""

    subsheaves: int = 5000
    lambda_elements: int = 2000
    section_nodes: int = 500_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise MalformedInput(f"budget {name} must not be negative, not {value}")

    @classmethod
    def from_env(cls) -> "Budget":
        raw = os.environ.get("POSH_BUDGET")
        if raw is None:
            return cls()
        try:
            n = int(raw)
        except ValueError:
            raise MalformedInput(f"POSH_BUDGET must be an integer, not {raw!r}") from None
        return cls(subsheaves=n, lambda_elements=n, section_nodes=n)


class BudgetMeter:
    """Counts enumeration steps against a limit."""

    def __init__(self, what: str, limit: int):
        self.what = what
        self.limit = limit
        self.count = 0

    def tick(self, n: int = 1) -> None:
        self.count += n
        if self.count > self.limit:
            raise ResourceLimit(self.what, self.limit)


def once(obj, slot: str, meter: BudgetMeter | None, build: Callable, *, weak: bool = False):
    """build(meter), computed once per object and kept in obj.<slot> as
    (result, meter.count), the result through a weak reference if weak
    (for a result that refers back to obj). A later call ticks that count
    on the caller's own meter, so a budget too small for the build raises
    the same ResourceLimit a fresh build would, and returns the first
    result, elapsed_ms included. A build that raises stores nothing; a
    slot that is absent, None or holds a dead reference is built again.
    Without a meter the count is 0."""
    memo = getattr(obj, slot, None)
    result = None if memo is None else memo[0]() if weak else memo[0]
    if result is None:
        result = build(meter)
        count = 0 if meter is None else meter.count
        setattr(obj, slot, (weakref.ref(result) if weak else result, count))
    elif meter is not None:
        meter.tick(memo[1])
    return result
