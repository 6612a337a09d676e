from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extremal2 import exactq
from extremal2.charser import _series_product, _series_sum
from extremal2.exactq import _div, _mul, delta, eisenstein, ode_series

from conftest import j_and_script_e, random_fraction


# ---------------------------------------------------------------------------
# independent oracles


def sigma_oracle(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def convolve_oracle(a: list[Fraction], b: list[Fraction], terms: int) -> list[Fraction]:
    out = [Fraction(0)] * terms
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < terms and ai and bj:
                out[i + j] += ai * bj
    return out


def long_division_oracle(a: list[Fraction], terms: int) -> list[Fraction]:
    """Coefficients of 1/sum(a_i u^i) with a_0 != 0, by schoolbook division."""
    b = [Fraction(0)] * terms
    b[0] = 1 / a[0]
    for m in range(1, terms):
        acc = Fraction(0)
        for i in range(1, m + 1):
            if i < len(a):
                acc += a[i] * b[m - i]
        b[m] = -acc / a[0]
    return b


def eta24_oracle(terms: int) -> list[Fraction]:
    """Coefficients of prod (1 - q^n)^24 by repeated polynomial multiplication."""
    out = [Fraction(0)] * terms
    out[0] = Fraction(1)
    for n in range(1, terms):
        factor = [Fraction(0)] * terms
        factor[0] = Fraction(1)
        if n < terms:
            factor[n] = Fraction(-1)
        for _ in range(24):
            out = convolve_oracle(out, factor, terms)
    return out


# ---------------------------------------------------------------------------
# series plumbing: the component helpers of charser and the integer quotient


def test_addition_merges_windows():
    a = (Fraction(-1), (1, 1))  # q^-1 + 1 + O(q)
    b = (Fraction(0), (1,))  # 1 + O(q)
    assert _series_sum(a, b) == (-1, (1, 2))


def test_monomial_product_adds_exponents():
    a = (Fraction(-1), (1, 0, 0, 0))  # q^-1 + O(q^3)
    b = (Fraction(1), (1, 0))  # q + O(q^3)
    assert _series_product(a, b) == (0, (1, 0))


def test_leading_zeros_are_trimmed():
    # leading zeros stay in the tuple but set the lead of the product window
    s = (Fraction(0), (0, 2, 0))
    assert _series_product(s, (Fraction(0), (1,))) == (0, (0, 2))


def test_mul_truncation_rule():
    a = (Fraction(-1), (0, 1, 1, 1))  # lead 1, window of 4
    b = (Fraction(2), (0, 0, 1))  # lead 2, window of 3
    offset, coeffs = _series_product(a, b)
    assert offset == 1 and len(coeffs) == min(4 + 2, 3 + 1)


def test_geometric_series_inversion():
    one = [1, 0, 0, 0, 0, 0]
    assert _div(one, [1, -1, 0, 0, 0, 0]) == [1] * 6


def test_invert_zero_leading_coefficient_rejected():
    with pytest.raises(ValueError, match="constant term 1"):
        _div([1, 0, 0], [0, 1, 0])


def test_mul_inverse_roundtrip_on_random_series(rng):
    for _ in range(50):
        lead = Fraction(rng.randint(-3, 3))
        s = [1] + [random_fraction(rng) for _ in range(5)]
        inverse = (-lead, tuple(_div([1, 0, 0, 0, 0, 0], s)))
        assert _series_product((lead, tuple(s)), inverse) == (0, (1, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# the arithmetic the pipeline needs


def test_sigma_against_bruteforce():
    # the Eisenstein coefficients are divisor sums, read off a sieve
    e2, e4, e6 = eisenstein(2, 65), eisenstein(4, 65), eisenstein(6, 65)
    for n in range(1, 65):
        assert e2[n] == -24 * sigma_oracle(n, 1)
        assert e4[n] == 240 * sigma_oracle(n, 3)
        assert e6[n] == -504 * sigma_oracle(n, 5)


def test_eisenstein_small_expansions():
    assert eisenstein(4, 3) == [1, 240 * sigma_oracle(1, 3), 240 * sigma_oracle(2, 3)]
    assert eisenstein(4, 3) == [1, 240, 2160]
    assert eisenstein(6, 2) == [1, -504 * sigma_oracle(1, 5)]
    assert eisenstein(4, 1) == [1]
    assert eisenstein(2, 4) == [1, -24, -72, -96]


def test_eisenstein_validates_arguments():
    with pytest.raises(ValueError):
        eisenstein(8, 3)
    with pytest.raises(ValueError):
        eisenstein(4, 0)


def test_e4_times_e6_matches_convolution_oracle():
    e4 = eisenstein(4, 3)
    e6 = eisenstein(6, 3)
    expected = convolve_oracle(e4, e6, 3)
    assert _mul(e4, e6) == expected
    assert expected == [1, -264, -135432]


def test_delta_is_integral_with_lead_one():
    d = delta(10)
    assert d[:2] == [0, 1]
    assert all(type(c) is int for c in d)


def test_delta_matches_eta_power_oracle():
    d = delta(8)
    expected = eta24_oracle(7)  # prod (1-q^n)^24, to be shifted by q
    assert d[1:] == expected


def test_j_and_script_e_printed_coefficients():
    # read back off ode_series: the anchors check the series expand consumes
    j, e = j_and_script_e(3)  # from q^-1 on
    assert j == [1, 0, 196884]
    assert e == [1, -240, -141444]


def test_script_e_inverse_against_long_division_oracle():
    _, e = j_and_script_e(6)
    # divide out the q^-1: 1/E = q * (1 / (1 - 240q - 141444q^2 - ...))
    inv = _div([1, 0, 0, 0, 0, 0], e)
    expected = long_division_oracle(e, 4)
    assert inv[:4] == expected
    assert expected[:3] == [1, 240, 199044]


def test_script_e_is_e4e6_over_delta():
    _, e = j_and_script_e(8)  # q E
    d = delta(12)  # Delta / q is d[1:]
    prod = _mul(e, d[1:])
    assert len(prod) == 8
    assert prod == _mul(eisenstein(4, 10), eisenstein(6, 10))[:8]


def test_ode_series_against_oracles():
    # (J - 240)/E = (E4^3 - 984 Delta)/(E4 E6) and 1/E = Delta/(E4 E6),
    # rebuilt here from divisor sums, eta^24 and schoolbook division
    terms = 41
    e4 = [Fraction(240 * sigma_oracle(n, 3)) if n else Fraction(1) for n in range(terms)]
    e6 = [Fraction(-504 * sigma_oracle(n, 5)) if n else Fraction(1) for n in range(terms)]
    dlt = [Fraction(0)] + eta24_oracle(terms - 1)
    e4_cubed = convolve_oracle(convolve_oracle(e4, e4, terms), e4, terms)
    inv_e4e6 = long_division_oracle(convolve_oracle(e4, e6, terms), terms)
    a, b = ode_series(terms)
    assert a == convolve_oracle([x - 984 * d for x, d in zip(e4_cubed, dlt)], inv_e4e6, terms)
    assert b == convolve_oracle(dlt, inv_e4e6, terms)
    assert all(type(v) is int for v in (*a, *b))


@given(st.data())
def test_integer_quotient_inverts_the_product(data):
    n = data.draw(st.integers(1, 12))
    series = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    a = data.draw(series)
    b = [1] + data.draw(series)[1:]
    assert _mul(_div(a, b), b) == a
    assert _div(_mul(a, b), b) == a


def test_integer_quotient_needs_unit_constant_term():
    with pytest.raises(ValueError, match="constant term 1"):
        _div([1, 2], [2, 1])


def test_delta_checks_the_exact_division(monkeypatch):
    real = exactq.eisenstein
    monkeypatch.setattr(exactq, "eisenstein", lambda k, n: [v + (k == 4) for v in real(k, n)])
    with pytest.raises(ArithmeticError, match="1728"):
        delta(4)
