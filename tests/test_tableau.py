"""Structural property checks of the builtin partitioned tableaus."""

from fractions import Fraction

import pytest

from prk.tableau import (
    PRKTableau,
    builtin_names,
    builtin_tableau,
    check_order,
    classical_order,
    is_conservative,
    is_internally_consistent,
    stage_order,
    tableau_from_text,
    tableau_properties,
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


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_builtin_properties(name):
    p = tableau_properties(builtin_tableau(name))
    got = (p.classical_order, p.stage_order, p.conservative, p.internally_consistent)
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
    assert is_internally_consistent(builtin_tableau("TW1"))
    assert not is_internally_consistent(builtin_tableau("CS2"))
    # single-part tableaus are vacuously consistent and conservative
    for name in ("FE1", "ETR2"):
        t = builtin_tableau(name)
        assert is_internally_consistent(t) and is_conservative(t)


def test_stage_order_one_implies_internal_consistency():
    for name in builtin_names():
        t = builtin_tableau(name)
        if stage_order(t) >= 1:
            assert is_internally_consistent(t), name


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


def test_c_must_match_last_part():
    good = builtin_tableau("OS1")
    with pytest.raises(ValueError):
        PRKTableau(r=2, s=2, A=good.A, b=good.b,
                   c=(Fraction(0), Fraction(1)), name="bad")


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
