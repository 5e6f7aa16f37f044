"""Partitioned Runge-Kutta tableaus and their structural properties.

A partitioned (additive) tableau holds one coefficient matrix ``A_k`` and
one weight vector ``b_k`` per operator part, all sharing the abscissae
``c`` taken as the row sums of the last (most refined) part.  Coefficients
are stored as exact rationals, and each scheme condition (order, stage
order, conservation, internal consistency, the simplifying conditions
behind the local error) is defined once here and decided in rational
arithmetic under one comparison rule; one float view, the step plan, is
derived on first use for the numerical kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

__all__ = [
    "PRKTableau",
    "builtin_tableau",
    "builtin_names",
    "check_order",
    "classical_order",
    "stage_order",
    "is_conservative",
    "simplifying_defects",
    "tableau_to_text",
    "tableau_from_text",
]

# Absolute fallback tolerance for tableaus built from inexact floats or
# rounded decimals; all builtin tableaus compare exactly.
FLOAT_TOL = 1e-14

MAX_ORDER_CONDITIONS = 3


def _close(x: Fraction, target: Fraction) -> bool:
    """The one comparison rule of every tableau condition."""
    if x == target:
        return True
    return abs(float(x) - float(target)) <= FLOAT_TOL


@dataclass(frozen=True)
class PRKTableau:
    """Coefficients of an explicit partitioned Runge-Kutta method.

    Attributes
    ----------
    A : tuple of ``r`` matrices (``s x s`` nested tuples of Fraction).
    b : tuple of ``r`` weight vectors (length ``s``).
    name : optional identifier.

    The part count ``r``, the stage count ``s`` and the abscissae ``c``
    (the row sums of ``A[-1]``) are derived from ``A``.
    """

    A: tuple[tuple[tuple[Fraction, ...], ...], ...]
    b: tuple[tuple[Fraction, ...], ...]
    name: str = ""

    def __post_init__(self):
        if not self.A or not self.A[0]:
            raise ValueError("need r >= 1 parts and s >= 1 stages")
        if len(self.b) != self.r:
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

    @classmethod
    def from_coeffs(cls, A: Sequence, b: Sequence, name: str = "") -> "PRKTableau":
        """Build a tableau from nested coefficient sequences.

        Entries may be ints, floats, Fractions or strings like ``"1/2"``.
        """
        A_t = tuple(tuple(tuple(map(Fraction, row)) for row in Ak) for Ak in A)
        return cls(A=A_t, b=tuple(tuple(map(Fraction, bk)) for bk in b), name=name)

    @property
    def r(self) -> int:
        return len(self.A)

    @property
    def s(self) -> int:
        return len(self.A[0])

    @cached_property
    def c(self) -> tuple[Fraction, ...]:
        return _matvec(self.A[-1], (Fraction(1),) * self.s)

    @cached_property
    def internally_consistent(self) -> bool:
        """True iff every part has the abscissae as row sums, ``A_k e = c``.

        This is C(1), which is also stage order 1; the exact verdict is
        formed once per tableau.
        """
        return all(_close(x, Fraction(0))
                   for _, defect in simplifying_defects(self, 1) for x in defect)

    @cached_property
    def plan(self) -> "_StepPlan":
        """The float step plan, built on first use and kept in the instance
        dict, not in a field: the tableau compares and hashes by its
        coefficients alone, and no step hashes a Fraction."""
        return _build_plan(self)


@dataclass(frozen=True)
class _StepPlan:
    A: tuple
    b: tuple
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
        stages=tuple(stages),
        update_terms=tuple(update_terms),
    )


def _matvec(M, v) -> tuple[Fraction, ...]:
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in M)


def _dot(u, v) -> Fraction:
    return sum((a * x for a, x in zip(u, v)), Fraction(0))


# ----------------------------------------------------------------------
# property checks
# ----------------------------------------------------------------------

def check_order(t: PRKTableau, p: int) -> bool:
    """Check the coupled order conditions for all levels ``1..p``.

    Conditions are known here up to ``p = 3``; higher values raise.  As
    ``c = A_r e``, the quadrature conditions ``b_k . c^j = 1/(j+1)`` for
    ``j < p`` are among them.
    """
    if not 1 <= p <= MAX_ORDER_CONDITIONS:
        raise ValueError(f"order conditions available for p in 1..3, got {p}")
    e = (Fraction(1),) * t.s
    Ae = [_matvec(Ak, e) for Ak in t.A]
    for bk in t.b:
        if not _close(_dot(bk, e), Fraction(1)):
            return False
        if p >= 2 and not all(_close(_dot(bk, v), Fraction(1, 2)) for v in Ae):
            return False
        if p >= 3:
            for A1, v1 in zip(t.A, Ae):
                for v2 in Ae:
                    weighted = tuple(x * y for x, y in zip(v1, v2))
                    if not (_close(_dot(bk, weighted), Fraction(1, 3))
                            and _close(_dot(bk, _matvec(A1, v2)), Fraction(1, 6))):
                        return False
    return True


def classical_order(t: PRKTableau) -> int:
    """Largest order ``p <= 3`` for which all coupled conditions hold."""
    p = 0
    while p < MAX_ORDER_CONDITIONS and check_order(t, p + 1):
        p += 1
    return p


def simplifying_defects(t: PRKTableau, j: int) -> tuple[tuple[Fraction, tuple], ...]:
    """Exact defects of the simplifying conditions B(j) and C(j), ``j >= 1``.

    One pair per part ``k``: ``1 - j b_k . c^(j-1)`` and the vector
    ``c^j - j A_k c^(j-1)``.  They are the coefficients of the local-error
    matrices ``d_{j,k}`` of :mod:`prk.analysis`.
    """
    cjm1 = tuple(ci ** (j - 1) for ci in t.c)
    return tuple(
        (1 - j * _dot(bk, cjm1),
         tuple(ci**j - j * v for ci, v in zip(t.c, _matvec(Ak, cjm1))))
        for Ak, bk in zip(t.A, t.b)
    )


def stage_order(t: PRKTableau) -> int:
    """Largest ``q`` with ``A_k c^j = c^(j+1)/(j+1)`` for ``j < q``, all parts.

    An explicit method cannot exceed ``q = 1`` (only degenerate tableaus
    with vanishing abscissae satisfy the level-2 identity), so the result
    is 1 for an internally consistent tableau and 0 otherwise.
    """
    return int(t.internally_consistent)


def is_conservative(t: PRKTableau) -> bool:
    """True iff all weight vectors coincide, so linear invariants survive."""
    return all(_close(x, y) for bk in t.b[1:] for x, y in zip(bk, t.b[0]))


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
