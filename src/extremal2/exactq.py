"""Exact q-series: integer modular forms and rational truncated Laurent series.

Everything downstream of this module decides integrality and positivity
questions exactly, so no floating point is allowed here.

The modular forms are integer power series, held as plain lists: the
Eisenstein series E4 and E6, the discriminant form
Delta = (E4^3 - E6^2)/1728, and from them the two series that drive the
character recursion, the q^n coefficients of (J - 240)/E and 1/E, where
J = E4^3/Delta - 744 is the normalized Hauptmodul and
E = E4*E6/Delta = q^-1 - 240 - 141444q - ... (``ode_series``).

``QSeries`` carries characters and their offsets: a series with rational
coefficients that knows its lowest power ``lead`` and the first untrusted
power ``trunc``; arithmetic shrinks the trusted window instead of erroring.
``eisenstein``, ``delta`` and ``j_and_script_e`` return the forms in that
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["QSeries", "ode_series", "eisenstein", "delta", "j_and_script_e"]


@dataclass(frozen=True)
class QSeries:
    """Series sum_{n >= lead} c_n q^n known exactly for lead <= n < trunc.

    ``coeffs[k]`` is the coefficient of ``q^(lead + k)``; the list length
    always equals ``trunc - lead``.  Leading zero coefficients are trimmed
    on construction, so a nonzero series has ``coeffs[0] != 0``.
    """

    lead: int
    coeffs: tuple[Fraction, ...]
    trunc: int

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.trunc - self.lead:
            raise ValueError(
                f"need {self.trunc - self.lead} coefficients for window "
                f"[{self.lead}, {self.trunc}), got {len(coeffs)}"
            )
        lead = self.lead
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
            lead += 1
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls(trunc, (), trunc)

    @classmethod
    def constant(cls, value: int | Fraction, trunc: int) -> "QSeries":
        return cls.monomial(value, 0, trunc)

    @classmethod
    def monomial(cls, value: int | Fraction, power: int, trunc: int) -> "QSeries":
        if power >= trunc:
            raise ValueError("monomial power lies beyond the truncation")
        pad = [Fraction(0)] * (trunc - power - 1)
        return cls(power, (Fraction(value), *pad), trunc)

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n; zero below the lead, error at or past trunc."""
        if n >= self.trunc:
            raise ValueError(f"coefficient of q^{n} lies beyond trunc={self.trunc}")
        if n < self.lead:
            return Fraction(0)
        return self.coeffs[n - self.lead]

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            n = self.lead + k
            if n == 0:
                parts.append(f"{c}")
            elif n == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.trunc})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        lead = min(self.lead, other.lead)
        trunc = min(self.trunc, other.trunc)
        if trunc <= lead:
            return QSeries.zero(trunc)
        out = [self.coeff(n) + other.coeff(n) for n in range(lead, trunc)]
        return QSeries(lead, tuple(out), trunc)

    def __neg__(self) -> "QSeries":
        return QSeries(self.lead, tuple(-c for c in self.coeffs), self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # The first unknown power of the product is governed by the first
        # unknown power of either factor shifted by the other's lead.
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        lead = self.lead + other.lead
        if self.is_zero() or other.is_zero() or trunc <= lead:
            return QSeries.zero(trunc)
        out = [Fraction(0)] * (trunc - lead)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= len(out):
                    break
                out[k] += a * b
        return QSeries(lead, tuple(out), trunc)

    def invert(self) -> "QSeries":
        """Multiplicative inverse b with self*b = 1 through the window.

        Standard long division against the leading coefficient; requires a
        nonzero leading coefficient.
        """
        if self.is_zero():
            raise ValueError("not invertible: zero series")
        a = self.coeffs
        k = len(a)
        b = [Fraction(0)] * k
        b[0] = 1 / a[0]
        for m in range(1, k):
            acc = Fraction(0)
            for i in range(1, m + 1):
                acc += a[i] * b[m - i]
            b[m] = -acc / a[0]
        lead = -self.lead
        return QSeries(lead, tuple(b), lead + k)


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


def _eisenstein(k: int, n_terms: int) -> list[int]:
    """E4 = 1 + 240 sum sigma_3(n) q^n or E6 = 1 - 504 sum sigma_5(n) q^n.

    The divisor sums come from a sieve: each d adds d^(k-1) to its multiples.
    """
    if k not in (4, 6):
        raise ValueError("only weights 4 and 6 are supported")
    if n_terms < 1:
        raise ValueError("need at least one term")
    mult = 240 if k == 4 else -504
    coeffs = [1] + [0] * (n_terms - 1)
    for d in range(1, n_terms):
        term = mult * d ** (k - 1)
        for n in range(d, n_terms, d):
            coeffs[n] += term
    return coeffs


def _forms(n_terms: int) -> tuple[list[int], list[int], list[int]]:
    """E4^3, E4*E6 and Delta = (E4^3 - E6^2)/1728 through q^(n_terms - 1)."""
    e4, e6 = _eisenstein(4, n_terms), _eisenstein(6, n_terms)
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


def eisenstein(k: int, n_terms: int) -> QSeries:
    """Eisenstein series E4 or E6 with ``n_terms`` exact coefficients."""
    return QSeries(0, tuple(_eisenstein(k, n_terms)), n_terms)


def delta(n_terms: int) -> QSeries:
    """The discriminant form (E4^3 - E6^2)/1728, leading term q."""
    return QSeries(0, tuple(_forms(n_terms)[2]), n_terms)


def j_and_script_e(n_terms: int) -> tuple[QSeries, QSeries]:
    """The pair (J, E) with ``n_terms`` coefficients each from q^-1 on.

    J = E4^3/Delta - 744 has vanishing constant term and first positive
    coefficient 196884; E = E4*E6/Delta starts q^-1 - 240 - 141444q.
    """
    if n_terms < 2:
        raise ValueError("need at least two terms")
    e4_cubed, e4e6, dlt = _forms(n_terms + 1)
    j = _div(e4_cubed, dlt[1:])  # Delta/q has constant term 1
    j[1] -= 744
    script_e = _div(e4e6, dlt[1:])
    return QSeries(-1, tuple(j), n_terms - 1), QSeries(-1, tuple(script_e), n_terms - 1)
