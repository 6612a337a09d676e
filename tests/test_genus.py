from __future__ import annotations

from fractions import Fraction

import pytest

from extremal2.genus import (
    CATALOG,
    category,
    ell_general,
    genus,
    h_ext,
    is_admissible,
    modular_rep_check,
)

F = Fraction

CATALOG_ROWS = {
    "semion": (F(1), F(1, 4)),
    "semion-bar": (F(7), F(3, 4)),
    "semion-dagger": (F(3), F(3, 4)),
    "semion-bar-dagger": (F(5), F(1, 4)),
    "fib": (F(14, 5), F(2, 5)),
    "fib-bar": (F(26, 5), F(3, 5)),
    "yang-lee": (F(18, 5), F(4, 5)),
    "yang-lee-bar": (F(22, 5), F(1, 5)),
}


def test_catalog_rows():
    assert [cat.id for cat in CATALOG] == list(CATALOG_ROWS)
    for cat in CATALOG:
        assert (cat.c_mod8, cat.h_mod1) == CATALOG_ROWS[cat.id]


def test_s_matrices_symmetric_and_involutive():
    for cat in CATALOG:
        s = cat.s_matrix_float()
        assert abs(s[0][1] - s[1][0]) < 1e-15
        sq = [
            [sum(s[i][k] * s[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        for i in range(2):
            for j in range(2):
                assert abs(sq[i][j] - (1.0 if i == j else 0.0)) < 1e-12


def test_category_lookup_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown category"):
        category("ising")


def test_h_ext_examples():
    semion = category("semion")
    assert h_ext(semion, 1) == F(1, 4)
    assert h_ext(semion, 33) == F(9, 4)
    assert h_ext(semion, -23) == F(-7, 4)
    assert h_ext(category("yang-lee"), F(-22, 5)) == F(-1, 5)


def test_h_ext_rejects_inadmissible_charge():
    with pytest.raises(ValueError, match="class mod 8"):
        h_ext(category("semion"), 2)
    assert not is_admissible(category("semion"), 2)
    assert is_admissible(category("fib"), F(14, 5) + 16)


def test_ell_general_examples():
    assert ell_general(2, 33, [F(9, 4)]) == 4
    assert ell_general(2, 1, [F(1, 4)]) == 0
    assert ell_general(1, 24, []) == 6


def test_ell_general_validates_length():
    with pytest.raises(ValueError):
        ell_general(2, 1, [])


def test_exponent_matrix_examples():
    semion = category("semion")
    g1, g33 = genus(semion, 1), genus(semion, 33)
    assert (g1.lambda0, g1.lambda1) == (F(23, 24), F(5, 24))
    assert (g33.lambda0, g33.lambda1) == (F(-3, 8), F(7, 8))


def test_exponent_is_linear_in_multiples_of_24():
    fib = category("fib")
    g0 = genus(fib, F(14, 5))
    g1 = genus(fib, F(14, 5) + 24)
    assert g1.lambda0 == g0.lambda0 - 1
    assert g1.lambda1 == g0.lambda1 + 1


def test_h_ext_shifts_by_two_per_24():
    for cat in CATALOG:
        for k in range(-10, 11):
            c = cat.c_mod8 + 8 * k
            assert h_ext(cat, c + 24) == h_ext(cat, c) + 2


def test_ell_is_small_integer_everywhere():
    for cat in CATALOG:
        for k in range(-10, 11):
            c = cat.c_mod8 + 8 * k
            g = genus(cat, c)
            assert 0 <= g.ell <= 5


def test_h_ext_never_integer():
    for cat in CATALOG:
        for k in range(-10, 11):
            assert h_ext(cat, cat.c_mod8 + 8 * k).denominator in (4, 5)


def test_modular_rep_check_on_catalog():
    for cat in CATALOG:
        for k in (-2, -1, 0, 1, 2):
            assert modular_rep_check(cat, cat.c_mod8 + 8 * k)
    assert modular_rep_check(category("yang-lee"), F(-22, 5))


def test_modular_rep_check_rejects_inadmissible():
    with pytest.raises(ValueError, match="class mod 8"):
        modular_rep_check(category("semion"), 2)
