"""Structural property checks of the builtin partitioned tableaus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prk.tableau import (
    PRKTableau,
    builtin_names,
    builtin_tableau,
    check_order,
    classical_order,
    is_conservative,
    simplifying_defects,
    stage_order,
    tableau_from_text,
    tableau_to_text,
)

# (classical order, stage order, conservative, internally consistent)
KNOWN = {
    "OS1": (1, 0, True, False),
    "TW1": (1, 1, False, True),
    "TW2": (2, 1, False, True),
    "CS2": (2, 0, True, False),
    "SH2": (2, 1, False, True),
    "FE1": (1, 1, True, True),
    "ETR2": (2, 1, True, True),
}


def _properties(t):
    """The four property readers, in the order of ``KNOWN``."""
    return classical_order(t), stage_order(t), is_conservative(t), t.internally_consistent


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_builtin_properties(name):
    got = _properties(builtin_tableau(name))
    assert got == KNOWN[name], f"{name}: got {got}, want {KNOWN[name]}"


def test_os1_coefficients_exact():
    t = builtin_tableau("OS1")
    assert t.r == 2 and t.s == 2
    assert t.A[0] == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    assert t.A[1] == ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)))
    assert t.b[0] == t.b[1] == (Fraction(1, 2), Fraction(1, 2))
    assert t.c == (Fraction(0), Fraction(1, 2))


def test_sh2_shape_and_weights():
    t = builtin_tableau("SH2")
    assert t.r == 2 and t.s == 5
    assert t.c == (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert t.b[0] == (Fraction(1, 2), Fraction(1, 2), 0, 0, 0)
    assert t.b[1] == (Fraction(1, 4), 0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))


def test_check_order_examples():
    assert check_order(builtin_tableau("OS1"), 1)
    assert not check_order(builtin_tableau("OS1"), 2)
    assert check_order(builtin_tableau("CS2"), 2)
    assert check_order(builtin_tableau("FE1"), 1)
    assert not check_order(builtin_tableau("FE1"), 2)
    # every quadrature condition of order 3 holds, the tree b . A c = 1/6 does not
    b, A = ["1/6", "2/3", "1/6"], [[0, 0, 0], ["1/2", 0, 0], ["1/2", "1/2", 0]]
    assert classical_order(PRKTableau.from_coeffs([A], [b])) == 2
    assert classical_order(PRKTableau.from_coeffs([A, A], [b, b])) == 2


def test_check_order_rejects_out_of_range():
    t = builtin_tableau("TW2")
    with pytest.raises(ValueError):
        check_order(t, 4)
    with pytest.raises(ValueError):
        check_order(t, 0)


def test_stage_order_examples():
    assert stage_order(builtin_tableau("OS1")) == 0
    assert stage_order(builtin_tableau("TW2")) == 1
    assert stage_order(builtin_tableau("CS2")) == 0


def test_conservation_examples():
    assert is_conservative(builtin_tableau("OS1"))
    assert not is_conservative(builtin_tableau("TW1"))
    assert is_conservative(builtin_tableau("CS2"))


def test_internal_consistency_examples():
    assert builtin_tableau("TW1").internally_consistent
    assert not builtin_tableau("CS2").internally_consistent
    # single-part tableaus are vacuously consistent and conservative
    for name in ("FE1", "ETR2"):
        t = builtin_tableau(name)
        assert t.internally_consistent and is_conservative(t)


def test_stage_order_one_implies_internal_consistency():
    # internal consistency: every part's row sums are the abscissae, A_k e = c
    for name in builtin_names():
        t = builtin_tableau(name)
        if stage_order(t) >= 1:
            assert t.internally_consistent, name
            assert all(sum(row) == ci for Ak in t.A for row, ci in zip(Ak, t.c)), name


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        builtin_tableau("RK44")


def test_rejects_non_explicit():
    with pytest.raises(ValueError, match="explicit"):
        PRKTableau.from_coeffs([[[0, "1/2"], ["1/2", 0]]], [["1/2", "1/2"]])
    with pytest.raises(ValueError, match="explicit"):
        PRKTableau.from_coeffs([[["1/2"]]], [[1]])


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        PRKTableau.from_coeffs([[[0, 0], [1, 0]]], [[1]])


def test_text_round_trip_all_builtins():
    for name in builtin_names():
        t = builtin_tableau(name)
        back = tableau_from_text(tableau_to_text(t), name=name)
        assert back.A == t.A and back.b == t.b and back.c == t.c


def test_text_parse_errors():
    with pytest.raises(ValueError):
        tableau_from_text("")
    with pytest.raises(ValueError):
        tableau_from_text("2 2\n0 0\n1/2 0\n")  # truncated
    with pytest.raises(ValueError, match="line 1: expected a header"):
        tableau_from_text("0 2\n")  # no parts


def test_float_coefficients_still_check_exactly():
    # float literals for dyadic rationals convert exactly
    t = PRKTableau.from_coeffs(
        [[[0, 0], [0.5, 0]], [[0, 0], [0.5, 0]]],
        [[1.0, 0.0], [0.5, 0.5]],
    )
    assert classical_order(t) == 1
    assert stage_order(t) == 1
    assert not is_conservative(t)


coefficients = st.fractions(min_value=-2, max_value=2, max_denominator=12)


@st.composite
def explicit_tableaus(draw):
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    A = [[[draw(coefficients) if j < i else 0 for j in range(s)] for i in range(s)]
         for _ in range(r)]
    b = [[draw(coefficients) for _ in range(s)] for _ in range(r)]
    return PRKTableau.from_coeffs(A, b)


@settings(deadline=None, max_examples=150)
@given(explicit_tableaus())
def test_text_round_trip_keeps_the_tableau_and_its_properties(t):
    # comment lines, like the properties line of ``prk tableau show``, are skipped
    text = "# header comment\n" + tableau_to_text(t) + "  # order=?\n"
    back = tableau_from_text(text)
    assert back == t
    assert _properties(back) == _properties(t)


# ----------------------------------------------------------------------
# oracles: earlier, separate definitions of the same conditions
# ----------------------------------------------------------------------

def _oracle_close(x, target):
    return x == target or abs(float(x) - float(target)) <= 1e-14


def _oracle_sum(terms):
    return sum(terms, Fraction(0))


def _oracle_dot(u, v):
    return _oracle_sum(a * x for a, x in zip(u, v))


def _oracle_matvec(M, v):
    return tuple(_oracle_dot(row, v) for row in M)


def _oracle_abscissae(t):
    return _oracle_matvec(t.A[-1], (Fraction(1),) * t.s)


def _oracle_check_order(t, p):
    """The coupled conditions up to level p, followed by the quadrature
    conditions b_k . c^j = 1/(j+1) for j < p."""
    parts = range(t.r)
    e = (Fraction(1),) * t.s
    c = _oracle_abscissae(t)
    if not all(_oracle_close(_oracle_dot(t.b[k], e), 1) for k in parts):
        return False
    if p >= 2:
        for k in parts:
            for l in parts:
                if not _oracle_close(_oracle_dot(t.b[k], _oracle_matvec(t.A[l], e)),
                                     Fraction(1, 2)):
                    return False
    if p >= 3:
        for k in parts:
            for l1 in parts:
                for l2 in parts:
                    Al2e = _oracle_matvec(t.A[l2], e)
                    weighted = tuple(x * y for x, y in zip(_oracle_matvec(t.A[l1], e), Al2e))
                    if not _oracle_close(_oracle_dot(t.b[k], weighted), Fraction(1, 3)):
                        return False
                    if not _oracle_close(_oracle_dot(t.b[k], _oracle_matvec(t.A[l1], Al2e)),
                                         Fraction(1, 6)):
                        return False
    for j in range(p):
        cj = tuple(ci**j if j else Fraction(1) for ci in c)
        for k in parts:
            if not _oracle_close(_oracle_dot(t.b[k], cj), Fraction(1, j + 1)):
                return False
    return True


def _oracle_stage_order(t):
    """1 iff every part's row sums are close to the abscissae."""
    c = _oracle_abscissae(t)
    e = (Fraction(1),) * t.s
    return int(all(_oracle_close(a, ci) for Ak in t.A
                   for a, ci in zip(_oracle_matvec(Ak, e), c)))


def _oracle_defects(t, j):
    """The d_{j,k} coefficients as the error analysis first summed them."""
    c, s = _oracle_abscissae(t), t.s
    cj = [ci**j for ci in c]
    cjm1 = [ci ** (j - 1) if j > 1 else Fraction(1) for ci in c]
    out = []
    for k in range(t.r):
        lead = 1 - j * _oracle_sum(bi * ci for bi, ci in zip(t.b[k], cjm1))
        vec = tuple(cj[i] - j * _oracle_sum(t.A[k][i][l] * cjm1[l] for l in range(s))
                    for i in range(s))
        out.append((lead, vec))
    return tuple(out)


# the builtins (orders 1 and 2), Kutta's third-order method, and the same
# weights and abscissae with b . A c = 1/24: order 2, though b . c^2 = 1/3
_KUTTA3 = ["1/6", "2/3", "1/6"], [[0, 0, 0], ["1/2", 0, 0], [-1, 2, 0]]
_QUADRATURE3 = ["1/6", "2/3", "1/6"], [[0, 0, 0], ["1/2", 0, 0], ["1/2", "1/2", 0]]
_BASES = [builtin_tableau(n) for n in builtin_names()] + [
    PRKTableau.from_coeffs([A] * r, [b] * r) for b, A in (_KUTTA3, _QUADRATURE3)
    for r in (1, 2)]


@st.composite
def conditioned_tableaus(draw):
    """Random explicit or known tableaus; some made internally consistent
    (``A_k e = c``) or consistent (``b_k . e = 1``) through their first
    column, some with every entry rounded to 2 or 16 decimal places, so
    that conditions hold only to round-off."""
    t = draw(st.one_of(explicit_tableaus(), st.sampled_from(_BASES)))
    A = [[list(row) for row in Ak] for Ak in t.A]
    b = [list(bk) for bk in t.b]
    if draw(st.booleans()):
        for Ak in A[:-1]:
            for i in range(1, t.s):
                Ak[i][0] += t.c[i] - sum(Ak[i])
    if draw(st.booleans()):
        for bk in b:
            bk[0] += 1 - sum(bk)
    places = draw(st.sampled_from([None, 2, 16]))
    if places is not None:
        A = [[[round(a, places) for a in row] for row in Ak] for Ak in A]
        b = [[round(x, places) for x in bk] for bk in b]
    return PRKTableau.from_coeffs(A, b)


@settings(deadline=None, max_examples=300)
@given(conditioned_tableaus())
def test_each_condition_matches_its_earlier_definition(t):
    for p in range(1, 4):
        assert check_order(t, p) == _oracle_check_order(t, p), p
    # stage order 1 and internal consistency are one condition
    assert stage_order(t) == int(t.internally_consistent) == _oracle_stage_order(t)
    for j in range(1, 5):
        assert simplifying_defects(t, j) == _oracle_defects(t, j), j

