"""Verification reports and the reproduction table.

A report aggregates the structural facts a researcher wants at a glance:
a sail witness if one exists, the degree profile, and the total
deficiency n*k - 3m.  It records no linearity flag, as every
LinearTripleSystem is linear by construction.  The role check certifies
an expected shape:

* extremal-3k+1: n = 3k+1, m = k^2+1, sail-free, max degree k and total
  deficiency k-3 (the structure forced at the extremal edge count);
* td: n = 3k, m = k^2, sail-free, every degree equal to k;
* truncated: n = 3k+2, m = k^2+k, sail-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import FORMULAS
from .core import MAX_VERTICES, LinearTripleSystem, deficiency
from .errors import RoleShapeMismatch
from .sails import SailWitness, find_sail_fast
from .search import SearchOptions, SearchReport, _remaining, max_sail_free, upper_bound

# role -> (its residue n - 3k, whose row of FORMULAS gives its edge count, and
# its own condition on (max degree, sorted degrees, k, total deficiency))
_SHAPES = {
    "extremal-3k+1": (1, lambda top, degs, k, d: top == k and d == k - 3),
    "td": (0, lambda top, degs, k, d: degs == [k] * len(degs)),
    "truncated": (2, lambda top, degs, k, d: True),
}
ROLES = tuple(_SHAPES)


@dataclass(frozen=True)
class VerificationReport:
    n: int
    m: int
    sail_witness: Optional[SailWitness]
    degree_sequence: tuple[int, ...]
    max_degree: int
    k: int
    deficiency_total: int
    role: Optional[str]
    role_pass: Optional[bool]

    @property
    def passed(self) -> bool:
        if self.role is not None:
            return bool(self.role_pass)
        return self.sail_witness is None


def _shape(role: str):
    if role not in _SHAPES:
        raise RoleShapeMismatch(f"unknown role {role!r}; expected one of {ROLES}")
    return _SHAPES[role]


def infer_k(n: int, role: Optional[str] = None) -> int:
    """k such that n = 3k+1, 3k or 3k+2, per role or from n alone."""
    if role is not None:
        r = _shape(role)[0]
        if n % 3 != r:
            raise RoleShapeMismatch(f"role {role} needs n = 3k+{r}, got n={n}")
    return n // 3


def verify_report(
    system: LinearTripleSystem,
    role: Optional[str] = None,
    k: Optional[int] = None,
) -> VerificationReport:
    shape = None if role is None else _shape(role)
    if k is None:
        k = infer_k(system.n, role)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    witness = find_sail_fast(system)
    degs = sorted(system.degrees())
    max_deg = degs[-1] if degs else 0
    def_total = deficiency(system, range(system.n), k)
    role_pass = None
    if shape is not None:
        residue, condition = shape
        role_pass = (
            system.n == 3 * k + residue
            and system.m == FORMULAS[residue][1](k)
            and witness is None
            and condition(max_deg, degs, k, def_total)
        )
    return VerificationReport(
        n=system.n,
        m=system.m,
        sail_witness=witness,
        degree_sequence=tuple(degs),
        max_degree=max_deg,
        k=k,
        deficiency_total=def_total,
        role=role,
        role_pass=role_pass,
    )


def formula_value(n: int) -> tuple[Optional[int], str]:
    """The closed-form maximum for n, with a label, from n's row of the
    residue table constructions.FORMULAS; None below the row's least k."""
    k, residue = divmod(n, 3)
    _, edge_count, label, least_k = FORMULAS[residue]
    if k < least_k:
        return None, f"formula out of range (k<{least_k})"
    return edge_count(k), f"{label} (k={k})"


@dataclass(frozen=True)
class TableRow:
    n: int
    max_edges: int
    exhausted: bool
    formula: Optional[int]
    formula_label: str
    verdict: str
    proof: str  # "bound", "search" or "-" (table's docstring)


def table(n_min: int, n_max: int, opts: SearchOptions = SearchOptions()) -> list[TableRow]:
    """One search per n with the applicable formula and a match verdict.

    Each row says how its value was proven: "bound" when it reaches
    upper_bound(n), so that counting alone proves it (the search module's
    docstring says at which n its start does), "search" when the search
    was exhausted below the bound, and "-" when it is not proven.  The
    node and time limits of opts cover all the searches: each row gets
    what the earlier rows left of them.
    """
    if not 4 <= n_min <= n_max <= MAX_VERTICES:
        raise ValueError(f"table needs 4 <= from <= to <= {MAX_VERTICES}, got {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        report: SearchReport = max_sail_free(n, opts)
        opts = _remaining(opts, report)
        value, label = formula_value(n)
        if value is None:
            verdict = "no formula"
        elif not report.exhausted:
            verdict = "not exhausted"
        elif report.max_edges == value:
            verdict = "match"
        else:
            verdict = "MISMATCH"
        if report.max_edges == upper_bound(n):
            proof = "bound"
        else:
            proof = "search" if report.exhausted else "-"
        rows.append(TableRow(n, report.max_edges, report.exhausted, value, label, verdict, proof))
    return rows
