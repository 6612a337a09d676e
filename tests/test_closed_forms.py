"""Closed forms for four of the fifteen characters, built from integer
q-series helpers of their own.

The helpers import nothing from ``extremal2``, so the oracle does not lean
on ``exactq``, whose ``ode_series`` feeds the recursion under test.  The
realizations come from ``classify.GOLDEN_GENERA``:

* (semion, 1) is A1 at level 1: theta_3(2 tau)/eta and theta_2(2 tau)/eta;
* (yang-lee, -22/5) is the M(2, 5) minimal model: the Rogers-Ramanujan
  products;
* (semion, 9) and (yang-lee, 18/5) tensor these with E8 at level 1, whose
  character is E4/eta^8.

Dual pairs reach further: in thirteen pairs of genera with h_ext summing to
an integer, vacuum x vacuum + module x module is E4/eta^8 (c = 8), J plus a
constant (c = 24) or j^(5/3) + N j^(2/3) (c = 40), which pins all 15 genera.
Among them are the eight ell = 2 <-> ell = 0 pairs from which
``chimat.seed_rows`` derives its ell = 2 seeds, and each ell = 4 seed's
character is its ell = 0 seed's times E4/eta^8, the identity that derives
the ell = 4 seeds.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from extremal2.charser import character_vector, expand
from extremal2.chimat import chi_of
from extremal2.genus import category, genus

F = Fraction
ORDER = 120
TERMS = ORDER + 2  # series0 runs from X[-1] to X[ORDER]


def inverse_product(parts, n_terms: int, power: int = 1) -> list[int]:
    """prod_{k in parts} (1 - q^k)^(-power): a partition sieve, one pass per factor."""
    out = [1] + [0] * (n_terms - 1)
    for k in parts:
        for _ in range(power):
            for i in range(k, n_terms):
                out[i] += out[i - k]
    return out


def theta_sum(exponent, n_terms: int) -> list[int]:
    """sum over all integers n of q^exponent(n), for an exponent growing like n^2."""
    out = [0] * n_terms
    bound = int(n_terms ** 0.5) + 2
    for e in map(exponent, range(-bound, bound + 1)):
        if 0 <= e < n_terms:
            out[e] += 1
    return out


def e4(n_terms: int) -> list[int]:
    """E4 = 1 + 240 sum_n sigma_3(n) q^n, the divisor sums summed directly."""
    return [1] + [
        240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0) for n in range(1, n_terms)
    ]


def times(a: list[int], b: list[int]) -> list[int]:
    """Product of two power series, to the shorter length."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def times_e8(series: list[int]) -> list[int]:
    """``series`` times q^(1/3) E4/eta^8 = E4 / prod (1 - q^n)^8."""
    n = len(series)
    return times(series, times(e4(n), inverse_product(range(1, n), n, power=8)))


def a1_level1() -> tuple[list[int], list[int]]:
    partitions = inverse_product(range(1, TERMS), TERMS)
    return (
        times(theta_sum(lambda n: n * n, TERMS), partitions),
        times(theta_sum(lambda n: n * n + n, TERMS), partitions),
    )


def lee_yang() -> tuple[list[int], list[int]]:
    return (
        inverse_product([k for k in range(1, TERMS) if k % 5 in (2, 3)], TERMS),
        inverse_product([k for k in range(1, TERMS) if k % 5 in (1, 4)], TERMS),
    )


CLOSED_FORMS = {
    ("semion", F(1)): (F(-1, 24), F(5, 24), a1_level1),
    ("semion", F(9)): (F(-3, 8), F(-1, 8), lambda: tuple(map(times_e8, a1_level1()))),
    ("yang-lee", F(-22, 5)): (F(11, 60), F(-1, 60), lee_yang),
    ("yang-lee", F(18, 5)): (F(-3, 20), F(-7, 20), lambda: tuple(map(times_e8, lee_yang()))),
}


def test_helpers_reproduce_known_coefficients():
    assert inverse_product(range(1, 10), 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert e4(4) == [1, 240, 2160, 6720]
    assert times_e8([1, 0, 0, 0]) == [1, 248, 4124, 34752]  # the E8 level-1 character
    assert theta_sum(lambda n: n * n, 10) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]


@pytest.mark.parametrize("cat_id, c", sorted(CLOSED_FORMS), ids=str)
def test_character_matches_its_closed_form_through_order_120(cat_id, c):
    exponent0, exponent1, closed_form = CLOSED_FORMS[cat_id, c]
    cat = category(cat_id)
    vec = character_vector(expand(genus(cat, c), chi_of(cat, c), ORDER))
    series0, series1 = closed_form()
    assert (vec.exponent0, vec.exponent1) == (exponent0, exponent1)
    assert vec.series0 == tuple(series0)
    assert vec.series1 == tuple(series1[: ORDER + 1])


def j_plus_744(n_terms: int) -> list[int]:
    """q J + 744 q = E4^3 / prod (1 - q^n)^24, from q^0."""
    cube = times(e4(n_terms), times(e4(n_terms), e4(n_terms)))
    return times(cube, inverse_product(range(1, n_terms), n_terms, power=24))


PAIR_ORDER = 40


def pair_sum(first, second) -> tuple[Fraction, list[int]]:
    """Leading exponent and coefficients of vacuum x vacuum + module x module."""
    v, w = (character_vector(expand(genus(category(cat_id), c), chi_of(cat_id, c), PAIR_ORDER))
            for cat_id, c in (first, second))
    shift = v.exponent1 + w.exponent1 - v.exponent0 - w.exponent0  # h_ext + h_ext'
    assert shift.denominator == 1 and shift > 0
    module = [0] * int(shift) + times(v.series1, w.series1)  # longer than the vacuum term
    return v.exponent0 + w.exponent0, [a + b for a, b in zip(times(v.series0, w.series0), module)]


E8_PAIRS = [
    (("semion", F(1)), ("semion-bar", F(7))),
    (("fib", F(14, 5)), ("fib-bar", F(26, 5))),
]

# each pair with the constant term of its sum, dim V(1) of the product
J_PAIRS = [
    (("semion", F(17)), ("semion-bar", F(7)), 456),
    (("semion-bar", F(23)), ("semion", F(1)), 72),
    (("fib-bar", F(106, 5)), ("fib", F(14, 5)), 120),
    (("fib", F(94, 5)), ("fib-bar", F(26, 5)), 240),
    (("semion-dagger", F(11)), ("semion-bar-dagger", F(13)), -696),
    (("semion-bar-dagger", F(5)), ("semion-dagger", F(19)), -312),
    (("yang-lee", F(58, 5)), ("yang-lee-bar", F(62, 5)), -840),
    (("yang-lee-bar", F(22, 5)), ("yang-lee", F(98, 5)), -300),
    (("semion-bar", F(15)), ("semion", F(9)), 744),
    (("fib-bar", F(66, 5)), ("fib", F(54, 5)), 744),
]


def pair_id(value) -> str:
    return "{}@{}".format(*value) if isinstance(value, tuple) else str(value)


def test_j_helper_reproduces_known_coefficients():
    assert j_plus_744(4) == [1, 744, 196884, 21493760]


@pytest.mark.parametrize("first, second", E8_PAIRS, ids=pair_id)
def test_dual_pair_sums_to_the_e8_character_through_q40(first, second):
    exponent, total = pair_sum(first, second)
    assert exponent == F(-1, 3)
    assert total == times_e8([1] + [0] * (len(total) - 1))


@pytest.mark.parametrize("first, second, constant", J_PAIRS, ids=pair_id)
def test_dual_pair_sums_to_j_plus_a_constant_through_q40(first, second, constant):
    exponent, total = pair_sum(first, second)
    assert exponent == -1
    j = j_plus_744(len(total))
    assert total[0] == 1 and total[2:] == j[2:]
    assert total[1] == constant


def test_c33_dual_pair_sums_to_j_five_thirds_plus_n_j_two_thirds_through_q40():
    """(semion, 33) x (semion-bar, 7) lands on c = 40: j^(5/3) + N j^(2/3),
    with j^(1/3) = E4/eta^8 = q^(-1/3) A.  The q^1 coefficient 5 * 248 + N
    is free; the code gives 136, so N = -1104."""
    exponent, total = pair_sum(("semion", F(33)), ("semion-bar", F(7)))
    assert exponent == F(-5, 3)
    a = times_e8([1] + [0] * (len(total) - 1))
    a2 = times(a, a)
    a5 = times(times(a2, a2), a)
    n = total[1] - a5[1]
    assert (total[1], n) == (136, -1104)
    j_sum = [x + n * y for x, y in zip(a5, [0] + a2)]
    assert total[0] == 1 and total[2:] == j_sum[2:]


# the ell = 0 seed of each category; 8 above it lies its ell = 4 seed
ELL0_SEEDS = [("semion", F(1)), ("semion-bar", F(7)), ("semion-dagger", F(19)),
              ("semion-bar-dagger", F(13)), ("fib", F(14, 5)), ("fib-bar", F(26, 5)),
              ("yang-lee", F(98, 5)), ("yang-lee-bar", F(62, 5))]


@pytest.mark.parametrize("cat_id, c", ELL0_SEEDS, ids=str)
def test_ell4_seed_character_is_the_ell0_one_times_e8_through_q40(cat_id, c):
    cat = category(cat_id)
    low, high = genus(cat, c), genus(cat, c + 8)
    assert (low.ell, high.ell) == (0, 4)
    v, w = (character_vector(expand(g, chi_of(cat, g.c), PAIR_ORDER)) for g in (low, high))
    assert (w.exponent0, w.exponent1) == (v.exponent0 - F(1, 3), v.exponent1 - F(1, 3))
    assert list(w.series0) == times_e8(list(v.series0))
    assert list(w.series1) == times_e8(list(v.series1))
