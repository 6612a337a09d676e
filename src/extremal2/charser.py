"""q-expansion engine for fundamental matrices and character vectors.

The fundamental matrix Xi of a genus satisfies a first-order differential
equation in q whose coefficient matrix is assembled from two scalar
series: the q^n coefficients a_n of (J - 240)/E and b_n of 1/E, with
E = q^-1 - 240 - 141444q - ... .  Writing q^-Lambda Xi = sum X[n] q^n with
X[-1] = I and X[0] = chi, the equation becomes a triangular recursion

    X[n]_ij = [ sum_{m=-1}^{n-1} X[m] D_{n-m} ]_ij / (lambda_i - lambda_j + n + 1),

    D_k = a_k (Lambda - I) + b_k (chi + [Lambda, chi]),

whose denominators lie in {n+1, n+2-h, h+n} and never vanish because the
extremal weight h is never an integer.  The n = 0 instance must reproduce
chi itself, which pins the normalization (a_0 = 1, a_1 = 0, b_1 = 1);
every expansion checks it and raises ``ValueError`` when it fails.

The module also carries the coset/extension character data for the c = 33
construction and the series-sum checks over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chimat import CharMatrix
from .exactq import QSeries, ode_series
from .genus import Genus

__all__ = [
    "Mat2",
    "FundamentalExpansion",
    "CharacterVector",
    "OffsetSeries",
    "d_coefficients",
    "expand",
    "character_vector",
    "holomorphic_sum_check",
    "COSET_CHARACTER",
    "EXTENSION_CHARACTER",
    "coset_extension_sum_check",
    "BranchingDiagnostic",
    "branching_diagnostic",
]

Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

_ZERO = Fraction(0)
_IDENTITY: Mat2 = ((Fraction(1), _ZERO), (_ZERO, Fraction(1)))


def _madd(p: Mat2, q: Mat2) -> Mat2:
    return tuple(
        tuple(p[i][j] + q[i][j] for j in range(2)) for i in range(2)
    )  # type: ignore[return-value]


def _mmul(p: Mat2, q: Mat2) -> Mat2:
    return tuple(
        tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )  # type: ignore[return-value]


def _mscale(s: int | Fraction, p: Mat2) -> Mat2:
    return tuple(tuple(s * e for e in row) for row in p)  # type: ignore[return-value]


def _chi_mat(m: CharMatrix) -> Mat2:
    return ((m.x, m.y), (m.z, m.w))


def d_coefficients(g: Genus, m: CharMatrix, order: int) -> list[Mat2]:
    """Matrices D_0 .. D_order of the expansion coefficient series.

    D_n = a_n (Lambda - I) + b_n (chi + [Lambda, chi]) with a_n, b_n the
    q^n coefficients of (J - 240)/E and 1/E; in particular D_0 = Lambda - I.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    a, b = ode_series(order + 1)
    lam = (g.lambda0, g.lambda1)
    lam_minus_id: Mat2 = (
        (lam[0] - 1, _ZERO),
        (_ZERO, lam[1] - 1),
    )
    # chi + Lambda chi - chi Lambda has (i, j) entry chi_ij (1 + lam_i - lam_j).
    comm: Mat2 = tuple(
        tuple(_chi_mat(m)[i][j] * (1 + lam[i] - lam[j]) for j in range(2))
        for i in range(2)
    )  # type: ignore[assignment]
    out = []
    for n in range(order + 1):
        out.append(_madd(_mscale(a[n], lam_minus_id), _mscale(b[n], comm)))
    return out


@dataclass(frozen=True)
class FundamentalExpansion:
    """Shifted expansion q^-Lambda Xi = sum_{n >= -1} X[n] q^n up to an order.

    ``coeffs[k]`` is X[k - 1]; X[-1] is the identity and X[0] the
    characteristic matrix.
    """

    genus: Genus
    chi: CharMatrix
    coeffs: tuple[Mat2, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 2

    def matrix(self, n: int) -> Mat2:
        """X[n] for -1 <= n <= order."""
        if n < -1 or n > self.order:
            raise ValueError(f"X[{n}] not computed (order {self.order})")
        return self.coeffs[n + 1]


def expand(g: Genus, m: CharMatrix, order: int = 8) -> FundamentalExpansion:
    """Solve the coefficient recursion through X[order].

    Raises if a recursion denominator vanishes (impossible for catalog
    genera, whose extremal weight is never an integer) or if the order-0
    instance of the relation fails to reproduce chi.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    d = d_coefficients(g, m, order + 1)
    lam = (g.lambda0, g.lambda1)
    coeffs: list[Mat2] = [_IDENTITY, _chi_mat(m)]

    # Order-0 self-consistency: (lam_i - lam_j + 1) chi_ij = [X[-1] D_1]_ij.
    rhs0 = d[1]
    for i in range(2):
        for j in range(2):
            if (lam[i] - lam[j] + 1) * _chi_mat(m)[i][j] != rhs0[i][j]:
                raise ValueError("chi inconsistent with ODE at order 0")

    for n in range(1, order + 1):
        acc: Mat2 = ((_ZERO, _ZERO), (_ZERO, _ZERO))
        for mp in range(-1, n):
            acc = _madd(acc, _mmul(coeffs[mp + 1], d[n - mp]))
        entries = []
        for i in range(2):
            row = []
            for j in range(2):
                den = lam[i] - lam[j] + n + 1
                if den == 0:
                    raise ValueError(
                        f"vanishing recursion denominator at order {n}, entry ({i},{j})"
                    )
                row.append(acc[i][j] / den)
            entries.append(tuple(row))
        coeffs.append(tuple(entries))  # type: ignore[arg-type]
    return FundamentalExpansion(g, m, tuple(coeffs))


@dataclass(frozen=True)
class CharacterVector:
    """First column of the fundamental matrix, as two exponent/series pairs.

    ``series0`` lists the coefficients of q^(exponent0) * (1 + x0 q + ...);
    ``series1`` those of q^(exponent1) * (z0 + z1 q + ...).  For a genus
    accepted by the classification both series consist of non-negative
    integers.
    """

    exponent0: Fraction
    exponent1: Fraction
    series0: tuple[Fraction, ...]
    series1: tuple[Fraction, ...]

    def is_nonneg_integral(self) -> bool:
        return all(
            c.denominator == 1 and c >= 0 for c in (*self.series0, *self.series1)
        )

    def component(self, index: int) -> "OffsetSeries":
        if index == 0:
            return OffsetSeries(
                self.exponent0, QSeries(0, self.series0, len(self.series0))
            )
        if index == 1:
            return OffsetSeries(
                self.exponent1, QSeries(0, self.series1, len(self.series1))
            )
        raise ValueError("component index must be 0 or 1")


def character_vector(e: FundamentalExpansion) -> CharacterVector:
    """Read the character off an expansion: vacuum row then module row."""
    g = e.genus
    series0 = tuple(e.matrix(n)[0][0] for n in range(-1, e.order + 1))
    series1 = tuple(e.matrix(n)[1][0] for n in range(0, e.order + 1))
    return CharacterVector(-g.c / 24, g.h_ext - g.c / 24, series0, series1)


@dataclass(frozen=True)
class OffsetSeries:
    """A q-series carrying a global rational exponent offset q^offset."""

    offset: Fraction
    series: QSeries

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", Fraction(self.offset))

    def _shift_to(self, offset: Fraction) -> QSeries:
        d = self.offset - offset
        if d.denominator != 1:
            raise ValueError(
                f"incompatible exponents: {self.offset} vs {offset} differ by a non-integer"
            )
        k = int(d)
        s = self.series
        return QSeries(s.lead + k, s.coeffs, s.trunc + k)

    def __add__(self, other: "OffsetSeries") -> "OffsetSeries":
        offset = min(self.offset, other.offset)
        return OffsetSeries(offset, self._shift_to(offset) + other._shift_to(offset))

    def __mul__(self, other: "OffsetSeries") -> "OffsetSeries":
        return OffsetSeries(self.offset + other.offset, self.series * other.series)

    def matches(self, other: "OffsetSeries") -> bool:
        """Coefficient-wise equality through the shared trusted window."""
        offset = min(self.offset, other.offset)
        return (self._shift_to(offset) - other._shift_to(offset)).is_zero()


def holomorphic_sum_check(
    parts: list[OffsetSeries], target: OffsetSeries
) -> bool:
    """Whether the coefficient-wise sum of ``parts`` equals ``target``.

    Parts must have exponents compatible with each other and with the
    target (integer differences); comparison runs through the
    jointly-trusted coefficient window.  An empty sum matches a zero
    target.
    """
    if not parts:
        return target.series.is_zero()
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total.matches(target)


def _offset_series(offset: Fraction, coeffs: tuple[int, ...]) -> OffsetSeries:
    return OffsetSeries(offset, QSeries(0, tuple(Fraction(c) for c in coeffs), len(coeffs)))


# Character vector of the weight-one coset inside the c = 33 realization:
# four components with weights 0, 9/4, 7/4, 2 over the global q^(-32/24).
COSET_CHARACTER: tuple[OffsetSeries, ...] = (
    _offset_series(Fraction(-4, 3), (1, 0, 69616, 34668544)),
    _offset_series(Fraction(-4, 3) + Fraction(9, 4), (426192, 121366368)),
    _offset_series(Fraction(-4, 3) + Fraction(7, 4), (10245, 11330970)),
    _offset_series(Fraction(-4, 3) + 2, (69888, 34664448)),
)

# Character of its holomorphic extension (the twisted orbifold of the
# rank-32 Barnes-Wall lattice VOA).
EXTENSION_CHARACTER: OffsetSeries = _offset_series(
    Fraction(-4, 3), (1, 0, 139504, 69332992)
)


def coset_extension_sum_check() -> bool:
    """Integer-weight coset components must sum to the extension character."""
    return holomorphic_sum_check(
        [COSET_CHARACTER[0], COSET_CHARACTER[3]], EXTENSION_CHARACTER
    )


@dataclass(frozen=True)
class BranchingDiagnostic:
    """Comparison of the naive coset x A1-level-1 branching product.

    ``computed`` is coset(h=0) * A1-vacuum + coset(h=7/4) * A1-spin under
    the weight pairing (0, 7/4) <-> (0, 1/4); ``reference`` is the c = 33
    vacuum character.  The product does not reproduce the reference (first
    failure at q^2: 90110 vs 86004), so this is reported as a diagnostic
    rather than asserted.
    """

    computed: OffsetSeries
    reference: OffsetSeries
    matches: bool
    mismatches: tuple[tuple[int, Fraction, Fraction], ...]


def branching_diagnostic() -> BranchingDiagnostic:
    """Evaluate the naive branching product against the c = 33 character."""
    from .classify import chi_of  # deferred: classify depends on this module
    from .genus import category, genus

    semion = category("semion")
    a1 = character_vector(expand(genus(semion, 1), chi_of(semion, 1), order=6))
    target = character_vector(expand(genus(semion, 33), chi_of(semion, 33), order=6))
    computed = (
        COSET_CHARACTER[0] * a1.component(0) + COSET_CHARACTER[2] * a1.component(1)
    )
    reference = target.component(0)
    offset = min(computed.offset, reference.offset)
    got = computed._shift_to(offset)
    want = reference._shift_to(offset)
    diff = got - want
    mismatches = []
    if not diff.is_zero():
        for n in range(diff.lead, diff.trunc):
            if diff.coeff(n) != 0:
                mismatches.append((n, got.coeff(n), want.coeff(n)))
    return BranchingDiagnostic(
        computed, reference, not mismatches, tuple(mismatches)
    )
