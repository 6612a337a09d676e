"""Exact q-series: the integer modular forms behind the character recursion.

Everything downstream of this module decides integrality and positivity
questions exactly, so no floating point is allowed here.

The modular forms are integer power series, held as plain lists of their
coefficients: the Eisenstein series E2, E4 and E6, the discriminant form
Delta = (E4^3 - E6^2)/1728, and from them the two series that drive the
character recursion, the q^n coefficients of (J - 240)/E and 1/E, where
J = E4^3/Delta - 744 is the normalized Hauptmodul and
E = E4*E6/Delta = q^-1 - 240 - 141444q - ... (``ode_series``).  The
characters' scalar MLDE reads its integer coefficient series off
``mlde_series`` and is solved term by term by ``mlde_solve``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["ode_series", "eisenstein", "delta", "mlde_series", "mlde_solve"]


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer power series, to the shorter length."""
    n = min(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def _div(a: list[int], b: list[int]) -> list[int]:
    """Quotient a/b of integer power series with b[0] == 1, to the shorter length."""
    if b[0] != 1:
        raise ValueError("the divisor needs constant term 1")
    out: list[int] = []
    for m in range(min(len(a), len(b))):
        out.append(a[m] - sum(b[i] * out[m - i] for i in range(1, m + 1)))
    return out


_EISENSTEIN_SCALE = {2: -24, 4: 240, 6: -504}


def eisenstein(k: int, n_terms: int) -> list[int]:
    """E2 = 1 - 24 sum sigma_1(n) q^n, E4 = 1 + 240 sum sigma_3(n) q^n or
    E6 = 1 - 504 sum sigma_5(n) q^n.

    The divisor sums come from a sieve: each d adds d^(k-1) to its multiples.
    """
    if k not in _EISENSTEIN_SCALE:
        raise ValueError("only weights 2, 4 and 6 are supported")
    if n_terms < 1:
        raise ValueError("need at least one term")
    mult = _EISENSTEIN_SCALE[k]
    coeffs = [1] + [0] * (n_terms - 1)
    for d in range(1, n_terms):
        term = mult * d ** (k - 1)
        for n in range(d, n_terms, d):
            coeffs[n] += term
    return coeffs


def _forms(n_terms: int) -> tuple[list[int], list[int], list[int]]:
    """E4^3, E4*E6 and Delta = (E4^3 - E6^2)/1728 through q^(n_terms - 1)."""
    e4, e6 = eisenstein(4, n_terms), eisenstein(6, n_terms)
    e4_cubed = _mul(_mul(e4, e4), e4)
    diff = [x - y for x, y in zip(e4_cubed, _mul(e6, e6))]
    if any(c % 1728 for c in diff):
        raise ArithmeticError("E4^3 - E6^2 is not divisible by 1728")
    return e4_cubed, _mul(e4, e6), [c // 1728 for c in diff]


def ode_series(n_terms: int) -> tuple[list[int], list[int]]:
    """The q^0 .. q^(n_terms - 1) coefficients a_n of (J - 240)/E and b_n of 1/E.

    With J = E4^3/Delta - 744 and E = E4*E6/Delta these are the integer
    power series (E4^3 - 984 Delta)/(E4*E6) and Delta/(E4*E6), whose common
    divisor E4*E6 = 1 - 264q - ... has constant term 1.
    """
    e4_cubed, e4e6, dlt = _forms(n_terms)
    a = _div([x - 984 * d for x, d in zip(e4_cubed, dlt)], e4e6)
    return a, _div(dlt, e4e6)


def delta(n_terms: int) -> list[int]:
    """The discriminant form (E4^3 - E6^2)/1728 from q^0 on; its lead term is q."""
    return _forms(n_terms)[2]


def mlde_series(ell: int, n_terms: int) -> tuple[list[int], list[int], list[int]]:
    """6A, 6B and P of the ell-th scalar MLDE as integer series: A = E4^k,
    6B = ell E6 E4^(k-1) - E2 E4^k and P = E4^(k+1) with k = ell/2."""
    e2, e4, e6 = (eisenstein(k, n_terms) for k in (2, 4, 6))
    powers = [[1] + [0] * (n_terms - 1)]
    for _ in range(ell // 2 + 1):
        powers.append(_mul(powers[-1], e4))
    power, lower = powers[ell // 2], powers[max(ell // 2 - 1, 0)]
    six_b = [ell * u - v for u, v in zip(_mul(e6, lower), _mul(e2, power))]
    return [6 * v for v in power], six_b, powers[ell // 2 + 1]


def mlde_solve(rows: list[tuple[int, int, int]], x0: int, d: int, lead: Fraction,
               n_terms: int) -> tuple[Fraction, ...]:
    """Coefficients of the solution q^(x0/d) (lead + a_1 q + ...).

    ``rows[k]`` = (a, b, c) is the equation's q^k coefficient as the integer
    polynomial R_k(X) = a X^2 + b X + c in X = d x, so the q^(x0/d + n) term
    reads sum_k R_k(x0 + d (n - k)) a_(n - k) = 0.  The a_n are integers
    nums[n] over one running denominator; when a quotient is not an integer,
    the denominator and the earlier numerators take the factor it lacks.
    """
    a0, b0, c0 = rows[0]
    nums, scale = [lead.numerator], lead.denominator
    for n in range(1, n_terms):
        total = sum(((a * x + b) * x + c) * nums[n - k]
                    for k, (a, b, c) in enumerate(rows[1 : n + 1], 1)
                    for x in [x0 + d * (n - k)])
        x = x0 + d * n
        divisor = (a0 * x + b0) * x + c0
        if total % divisor:
            factor = abs(divisor) // gcd(total, divisor)
            nums = [v * factor for v in nums]
            scale *= factor
            total *= factor
        nums.append(-total // divisor)
    return tuple(Fraction(v, scale) for v in nums)
