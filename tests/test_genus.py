from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from extremal2.genus import (
    CATALOG,
    Surd,
    category,
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


def q5_add(x: Surd, y: Surd) -> Surd:
    return Surd(x.a + y.a, x.b + y.b)


def q5_mul(x: Surd, y: Surd) -> Surd:
    """The product in Q(sqrt 5) = Q[r]/(r^2 - 5)."""
    return Surd(x.a * y.a + 5 * x.b * y.b, x.a * y.b + x.b * y.a)


def test_s_matrices_symmetric_and_involutive():
    """A = s_num is symmetric and A^2 = N*I exactly, so S = A/sqrt(N) has S^2 = I."""
    for cat in CATALOG:
        a, n, zero = cat.s_num, cat.s_norm, Surd(F(0))
        square = [[q5_add(q5_mul(a[i][0], a[0][j]), q5_mul(a[i][1], a[1][j]))
                   for j in range(2)] for i in range(2)]
        assert a[0][1] == a[1][0] and square == [[n, zero], [zero, n]], cat.id


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


def test_ell_examples():
    """ell = 1 + c/2 - 6 h_ext, the n = 2 case of binom(n, 2) + n c/4 - 6 sum(h)."""
    semion = category("semion")
    assert genus(semion, 33).ell == 4
    assert genus(semion, 1).ell == 0
    assert genus(semion, 9).ell == 4
    assert genus(semion, 17).ell == 2
    assert genus(category("yang-lee"), F(98, 5)).ell == 0


def test_exponent_matrix_examples():
    semion = category("semion")
    g1, g33 = genus(semion, 1), genus(semion, 33)
    assert (g1.exponent0, g1.exponent1) == (F(-1, 24), F(5, 24))
    assert (g33.exponent0, g33.exponent1) == (F(-11, 8), F(7, 8))


def test_exponent_is_linear_in_multiples_of_24():
    fib = category("fib")
    g0 = genus(fib, F(14, 5))
    g1 = genus(fib, F(14, 5) + 24)
    assert g1.exponent0 == g0.exponent0 - 1
    assert g1.exponent1 == g0.exponent1 + 1


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


def float_rep_check(cat, c) -> bool:
    """Reference for modular_rep_check: S^2 = I and (S T)^3 = I evaluated in
    complex floats, entrywise to within 1e-12, as the package once did."""
    def value(x: Surd) -> float:
        return float(x.a) + float(x.b) * math.sqrt(5)

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    def near_identity(m) -> bool:
        return all(abs(m[i][j] - (i == j)) <= 1e-12 for i in range(2) for j in range(2))

    scale = 1 / math.sqrt(value(cat.s_norm))
    s = [[value(x) * scale for x in row] for row in cat.s_num]
    phase = cmath.exp(-2j * cmath.pi * float(c) / 24)
    t = [[phase, 0], [0, phase * cmath.exp(2j * cmath.pi * float(h_ext(cat, c)))]]
    st = mul(s, t)
    return near_identity(mul(s, s)) and near_identity(mul(mul(st, st), st))


def perturbed_rows():
    """(label, row): catalog rows with one datum broken, none of them modular."""
    s_data = {(cat.s_num, cat.s_norm) for cat in CATALOG}
    for cat in CATALOG:
        (a, b), (b_t, e) = cat.s_num
        for shift in (1, 2, 4, -1):
            yield f"{cat.id}: c_mod8 {shift:+}", cat._replace(c_mod8=cat.c_mod8 + shift)
        yield f"{cat.id}: diagonal sign", cat._replace(
            s_num=((Surd(-a.a, -a.b), b), (b_t, Surd(-e.a, -e.b))))
        yield f"{cat.id}: norm + 1", cat._replace(
            s_norm=Surd(cat.s_norm.a + 1, cat.s_norm.b))
        yield f"{cat.id}: one off-diagonal sign", cat._replace(
            s_num=((a, b), (Surd(-b_t.a, -b_t.b), e)))
        for s_num, s_norm in sorted(s_data - {(cat.s_num, cat.s_norm)}):
            yield f"{cat.id}: S of {s_num}", cat._replace(s_num=s_num, s_norm=s_norm)


def test_modular_rep_check_agrees_with_the_float_reference_on_catalog():
    for cat in CATALOG:
        for k in range(-12, 13):
            c = cat.c_mod8 + 8 * k
            assert modular_rep_check(cat, c) is float_rep_check(cat, c) is True, (cat.id, c)


def test_modular_rep_check_rejects_every_perturbed_row():
    rows = list(perturbed_rows())
    assert len(rows) == 80
    for label, row in rows:
        for k in range(-3, 4):
            c = row.c_mod8 + 8 * k
            assert modular_rep_check(row, c) is float_rep_check(row, c) is False, (label, c)


def test_modular_rep_check_needs_weight_denominator_4_or_5():
    semion = category("semion")
    for h_mod1 in (F(1, 3), F(1, 2), F(3, 10)):
        with pytest.raises(ValueError, match="not 4 or 5"):
            modular_rep_check(semion._replace(h_mod1=h_mod1), 1)
