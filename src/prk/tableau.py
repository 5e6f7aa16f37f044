"""Partitioned Runge-Kutta tableaus and their structural properties.

A partitioned (additive) tableau holds one coefficient matrix ``A_k`` and
one weight vector ``b_k`` per operator part, all sharing the abscissae
``c`` taken as the row sums of the last (most refined) part.  Coefficients
are stored as exact rationals so that order, stage-order, conservation and
internal-consistency checks are decided exactly; one float view, the
step plan, is derived on first use for the numerical kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

__all__ = [
    "PRKTableau",
    "TableauProperties",
    "builtin_tableau",
    "builtin_names",
    "check_order",
    "classical_order",
    "stage_order",
    "is_conservative",
    "is_internally_consistent",
    "tableau_properties",
    "tableau_to_text",
    "tableau_from_text",
]

# Absolute fallback tolerance for tableaus built from inexact floats;
# all builtin tableaus compare exactly in rational arithmetic.
FLOAT_TOL = 1e-14

MAX_ORDER_CONDITIONS = 3


def _close(x: Fraction, target: Fraction) -> bool:
    if x == target:
        return True
    return abs(float(x) - float(target)) <= FLOAT_TOL


@dataclass(frozen=True)
class PRKTableau:
    """Coefficients of an explicit partitioned Runge-Kutta method.

    Attributes
    ----------
    r : number of operator parts.
    s : number of stages.
    A : tuple of ``r`` matrices (``s x s`` nested tuples of Fraction).
    b : tuple of ``r`` weight vectors (length ``s``).
    c : abscissae, the row sums of ``A[-1]``.
    name : optional identifier.
    """

    r: int
    s: int
    A: tuple[tuple[tuple[Fraction, ...], ...], ...]
    b: tuple[tuple[Fraction, ...], ...]
    c: tuple[Fraction, ...]
    name: str = ""

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError("need r >= 1 parts and s >= 1 stages")
        if len(self.A) != self.r or len(self.b) != self.r:
            raise ValueError("A and b must both have r entries")
        for Ak in self.A:
            if len(Ak) != self.s or any(len(row) != self.s for row in Ak):
                raise ValueError("every A_k must be s x s")
            for i, row in enumerate(Ak):
                for j, a in enumerate(row):
                    if j >= i and a != 0:
                        raise ValueError(
                            f"tableau is not explicit: A entry ({i},{j}) nonzero"
                        )
        for bk in self.b:
            if len(bk) != self.s:
                raise ValueError("every b_k must have length s")
        if self.c != _row_sums(self.A[-1]):
            raise ValueError("c must equal the row sums of the last part")

    @classmethod
    def from_coeffs(cls, A: Sequence, b: Sequence, name: str = "") -> "PRKTableau":
        """Build a tableau from nested coefficient sequences.

        Entries may be ints, floats, Fractions or strings like ``"1/2"``.
        The abscissae are derived from the last matrix.
        """
        A_t = tuple(
            tuple(tuple(Fraction(a) for a in row) for row in Ak) for Ak in A
        )
        b_t = tuple(tuple(Fraction(x) for x in bk) for bk in b)
        c_t = _row_sums(A_t[-1])
        return cls(r=len(A_t), s=len(b_t[0]), A=A_t, b=b_t, c=c_t, name=name)

    @cached_property
    def plan(self) -> "_StepPlan":
        """The float step plan, built on first use and kept in the instance
        dict, not in a field: the tableau compares and hashes by its
        coefficients alone, and no step hashes a Fraction."""
        return _build_plan(self)

    def row_sums(self, k: int) -> tuple[Fraction, ...]:
        """Row sums of ``A_k`` (the per-part abscissae)."""
        return _row_sums(self.A[k])


@dataclass(frozen=True)
class _StepPlan:
    A: tuple
    b: tuple
    c: tuple
    # per stage i that evaluates any part: (i, c_i, needed, terms), where
    # needed[k] says whether part k is evaluated there and terms are the
    # nonzero couplings (j, k, a_ij^(k)) with j < i, in (k, j) order
    stages: tuple
    # nonzero weights (j, k, b_j^(k)), in (k, j) order
    update_terms: tuple


def _build_plan(tab: PRKTableau) -> _StepPlan:
    A = [[[float(a) for a in row] for row in Ak] for Ak in tab.A]
    b = [[float(x) for x in bk] for bk in tab.b]
    c = [float(x) for x in tab.c]
    r, s = tab.r, tab.s
    stages = []
    for i in range(s):
        needed = tuple(
            b[k][i] != 0.0 or any(A[k][l][i] != 0.0 for l in range(i + 1, s))
            for k in range(r)
        )
        terms = tuple(
            (j, k, A[k][i][j])
            for k in range(r)
            for j in range(i)
            if A[k][i][j] != 0.0
        )
        if any(needed):
            stages.append((i, c[i], needed, terms))
    update_terms = [
        (j, k, b[k][j]) for k in range(r) for j in range(s) if b[k][j] != 0.0
    ]
    return _StepPlan(
        A=tuple(map(tuple, (tuple(map(tuple, Ak)) for Ak in A))),
        b=tuple(map(tuple, b)),
        c=tuple(c),
        stages=tuple(stages),
        update_terms=tuple(update_terms),
    )


def _row_sums(Ak) -> tuple[Fraction, ...]:
    return tuple(sum(row, Fraction(0)) for row in Ak)


def _cpow(c: Sequence[Fraction], j: int) -> tuple[Fraction, ...]:
    # componentwise power, with c^0 = e
    return tuple(ci**j if j else Fraction(1) for ci in c)


def _matvec(M, v) -> tuple[Fraction, ...]:
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in M)


def _dot(u, v) -> Fraction:
    return sum((a * x for a, x in zip(u, v)), Fraction(0))


# ----------------------------------------------------------------------
# property checks
# ----------------------------------------------------------------------

def check_order(t: PRKTableau, p: int) -> bool:
    """Check the coupled order conditions for all levels ``1..p``.

    Conditions are known here up to ``p = 3``; higher values raise.
    The check also includes the necessary quadrature conditions
    ``b_k . c^j = 1/(j+1)`` for ``j <= p``.
    """
    if not 1 <= p <= MAX_ORDER_CONDITIONS:
        raise ValueError(f"order conditions available for p in 1..3, got {p}")
    parts = range(t.r)
    e = _cpow(t.c, 0)
    if p >= 1:
        if not all(_close(_dot(t.b[k], e), Fraction(1)) for k in parts):
            return False
    if p >= 2:
        for k in parts:
            for l in parts:
                if not _close(_dot(t.b[k], _matvec(t.A[l], e)), Fraction(1, 2)):
                    return False
    if p >= 3:
        rsums = [t.row_sums(l) for l in parts]
        for k in parts:
            for l1 in parts:
                for l2 in parts:
                    Al2e = _matvec(t.A[l2], e)
                    weighted = tuple(ci * vi for ci, vi in zip(rsums[l1], Al2e))
                    if not _close(_dot(t.b[k], weighted), Fraction(1, 3)):
                        return False
                    if not _close(
                        _dot(t.b[k], _matvec(t.A[l1], Al2e)), Fraction(1, 6)
                    ):
                        return False
    # quadrature conditions b_k . c^j = 1/(j+1); for order p these must
    # hold up to j = p - 1 (the next level is an order-(p+1) condition)
    for j in range(p):
        cj = _cpow(t.c, j)
        for k in parts:
            if not _close(_dot(t.b[k], cj), Fraction(1, j + 1)):
                return False
    return True


def classical_order(t: PRKTableau) -> int:
    """Largest order ``p <= 3`` for which all coupled conditions hold."""
    p = 0
    for cand in range(1, MAX_ORDER_CONDITIONS + 1):
        if check_order(t, cand):
            p = cand
        else:
            break
    return p


def stage_order(t: PRKTableau) -> int:
    """Largest ``q`` with ``A_k c^j = c^(j+1)/(j+1)`` for ``j < q``, all parts.

    An explicit method cannot exceed ``q = 1`` (only degenerate tableaus
    with vanishing abscissae satisfy the level-2 identity), so the result
    is 0 or 1.
    """
    ok = all(
        all(_close(a, b) for a, b in zip(t.row_sums(k), t.c))
        for k in range(t.r)
    )
    return 1 if ok else 0


def is_conservative(t: PRKTableau) -> bool:
    """True iff all weight vectors coincide, so linear invariants survive."""
    return all(t.b[k] == t.b[0] for k in range(1, t.r))


def is_internally_consistent(t: PRKTableau) -> bool:
    """True iff all parts share the same row sums ``A_k e``."""
    first = t.row_sums(0)
    return all(t.row_sums(k) == first for k in range(1, t.r))


@dataclass(frozen=True)
class TableauProperties:
    classical_order: int
    stage_order: int
    internally_consistent: bool
    conservative: bool


def tableau_properties(t: PRKTableau) -> TableauProperties:
    return TableauProperties(
        classical_order=classical_order(t),
        stage_order=stage_order(t),
        internally_consistent=is_internally_consistent(t),
        conservative=is_conservative(t),
    )


# ----------------------------------------------------------------------
# builtin schemes
# ----------------------------------------------------------------------

def _os1() -> PRKTableau:
    # Two-part forward-Euler multirate scheme; coarse step on part 1,
    # two half steps on part 2.  p=1, q=0, conservative.
    A1 = [[0, 0], [0, 0]]
    A2 = [[0, 0], ["1/2", 0]]
    b = ["1/2", "1/2"]
    return PRKTableau.from_coeffs([A1, A2], [b, b], name="OS1")


def _tw1() -> PRKTableau:
    # Forward-Euler based, internally consistent but b_1 != b_2.
    A = [[0, 0], ["1/2", 0]]
    return PRKTableau.from_coeffs([A, A], [[1, 0], ["1/2", "1/2"]], name="TW1")


def _tw2() -> PRKTableau:
    # Based on the explicit trapezoidal rule; p=2, q=1.
    A1 = [
        [0, 0, 0, 0],
        ["1/2", 0, 0, 0],
        ["1/4", "1/4", 0, 0],
        [1, 0, 0, 0],
    ]
    A2 = [
        [0, 0, 0, 0],
        ["1/2", 0, 0, 0],
        ["1/4", "1/4", 0, 0],
        ["1/4", "1/4", "1/2", 0],
    ]
    b1 = ["1/2", 0, 0, "1/2"]
    b2 = ["1/4", "1/4", "1/4", "1/4"]
    return PRKTableau.from_coeffs([A1, A2], [b1, b2], name="TW2")


def _cs2() -> PRKTableau:
    # Conservative (equal weights) but not internally consistent; p=2, q=0.
    A1 = [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
    ]
    A2 = [
        [0, 0, 0, 0],
        ["1/2", 0, 0, 0],
        ["1/4", "1/4", 0, 0],
        ["1/4", "1/4", "1/2", 0],
    ]
    b = ["1/4", "1/4", "1/4", "1/4"]
    return PRKTableau.from_coeffs([A1, A2], [b, b], name="CS2")


def _sh2() -> PRKTableau:
    # Five stages: one coarse trapezoidal step plus two refined half steps
    # fed by quadratic interpolation.  Only two part-1 and four part-2
    # evaluations are actually needed per step.
    A1 = [
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        ["3/8", "1/8", 0, 0, 0],
        ["3/8", "1/8", 0, 0, 0],
        ["1/2", "1/2", 0, 0, 0],
    ]
    A2 = [
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        ["1/2", 0, 0, 0, 0],
        ["1/4", 0, "1/4", 0, 0],
        ["1/4", 0, "1/4", "1/2", 0],
    ]
    b1 = ["1/2", "1/2", 0, 0, 0]
    b2 = ["1/4", 0, "1/4", "1/4", "1/4"]
    return PRKTableau.from_coeffs([A1, A2], [b1, b2], name="SH2")


def _fe1() -> PRKTableau:
    return PRKTableau.from_coeffs([[[0]]], [[1]], name="FE1")


def _etr2() -> PRKTableau:
    # Explicit trapezoidal rule (modified Euler).
    return PRKTableau.from_coeffs(
        [[[0, 0], [1, 0]]], [["1/2", "1/2"]], name="ETR2"
    )


_BUILTINS = {
    "OS1": _os1,
    "TW1": _tw1,
    "TW2": _tw2,
    "CS2": _cs2,
    "SH2": _sh2,
    "FE1": _fe1,
    "ETR2": _etr2,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


@lru_cache(maxsize=None)
def builtin_tableau(name: str) -> PRKTableau:
    """Return one of the builtin schemes by name (case-insensitive).

    Multirate two-part schemes: OS1, TW1 (forward-Euler based), TW2, CS2,
    SH2 (trapezoidal based).  Single-part base methods: FE1, ETR2.
    """
    key = name.strip().upper()
    if key not in _BUILTINS:
        raise KeyError(
            f"unknown tableau {name!r}; available: {', '.join(_BUILTINS)}"
        )
    return _BUILTINS[key]()


# ----------------------------------------------------------------------
# plain-text serialization
# ----------------------------------------------------------------------

def tableau_to_text(t: PRKTableau) -> str:
    """Serialize to the plain-text exchange format.

    One header line ``r s``, then ``r`` blocks of ``s`` rows for the
    ``A_k``, then ``r`` rows for the ``b_k``; entries are rationals like
    ``1/2``.  The abscissae are derived on load.
    """
    lines = [f"{t.r} {t.s}"]
    for Ak in t.A:
        for row in Ak:
            lines.append(" ".join(str(a) for a in row))
    for bk in t.b:
        lines.append(" ".join(str(x) for x in bk))
    return "\n".join(lines) + "\n"


def tableau_from_text(text: str, name: str = "") -> PRKTableau:
    """Parse the format written by :func:`tableau_to_text`.

    Blank lines and ``#`` comment lines (such as the properties line of
    ``prk tableau show``) are skipped.  A malformed file raises
    ``ValueError`` naming the 1-based line, and the entry within it where
    one is at fault.
    """
    rows = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1)
            if ln.strip() and not ln.lstrip().startswith("#")]
    header = "expected a header line 'r s' of positive integers"
    if not rows:
        raise ValueError(header)
    lineno, head = rows[0]
    try:
        r, s = (int(v) for v in head)
    except ValueError:  # not two integers, reported below
        r = s = 0
    if r < 1 or s < 1:
        raise ValueError(f"line {lineno}: {header}, got {' '.join(head)!r}")
    need = 1 + r * s + r
    if len(rows) != need:
        raise ValueError(f"expected {need} lines for r={r}, s={s}, got {len(rows)}")
    coeffs = []
    for lineno, entries in rows[1:]:
        if len(entries) != s:
            raise ValueError(f"line {lineno}: expected {s} entries, got {len(entries)}")
        row = []
        for col, entry in enumerate(entries, 1):
            try:
                row.append(Fraction(entry))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"line {lineno}, entry {col}: "
                                 f"{entry!r} is not a rational number") from None
        coeffs.append(row)
    A = [coeffs[k * s:(k + 1) * s] for k in range(r)]
    return PRKTableau.from_coeffs(A, coeffs[r * s:], name=name)
