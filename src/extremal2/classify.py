"""Classification driver: enumerate, filter, and report surviving genera.

For each category the admissible charges inside [c_min, c_max] form three
arithmetic progressions of step 24; every candidate gets its exact
characteristic matrix by iterating the recurrence from the class seed
(``chimat.chi_of`` does the same walk for one c).
A candidate survives when its would-be character is a plausible pair of
graded dimensions:

* constant-term filter: chi_00 and chi_10 are non-negative integers
  (chi_00 = dim V(1) may be zero);
* series filter: every coefficient of both character components through
  ``SERIES_ORDER`` is a non-negative integer; ``charser.characters``
  computes them from the scalar MLDE (the same values ``expand`` gives).

The constant-term filter alone leaves 18 candidates; exactly three of
them (semion-dagger at 27, yang-lee at 138/5, yang-lee-bar at 142/5)
develop a negative q^2 coefficient and are eliminated by the series
filter, leaving the 15 classified genera.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bounds import c_extremes
from .charser import characters
from .chimat import CharMatrix, iterate, seed_rows
from .genus import CATALOG, CategoryInfo, category, genus

__all__ = [
    "SERIES_ORDER",
    "CandidateOutcome",
    "candidates",
    "first_column_admissible",
    "survey",
    "classify_all",
    "GOLDEN_GENERA",
    "matches_golden",
]

# the series filter checks both character components through this order
SERIES_ORDER = 8


def candidates(
    cat: CategoryInfo | str,
) -> list[tuple[Fraction, CharMatrix, Fraction]]:
    """All (c, chi, h_ext) with c_min <= c <= c_max, ascending in c.

    Every seed lies inside its window, so each class walks out from its seed
    row in both directions: one recurrence step per further candidate."""
    cat = category(cat)
    c_min, c_max = c_extremes(cat)
    found = []
    for seed in seed_rows(cat):
        found.append(seed)
        for step in (-1, 1):
            c, m, h = seed
            while c_min <= c + 24 * step <= c_max:
                m, h = iterate(m, h, step)
                c += 24 * step
                found.append((c, m, h))
    found.sort(key=lambda row: row[0])
    return found


def first_column_admissible(m: CharMatrix) -> bool:
    """Constant-term filter: chi_00 and chi_10 are integers >= 0."""
    return all(v.denominator == 1 and v >= 0 for v in (m.x, m.z))


class CandidateOutcome(NamedTuple):
    """Filter trace for one candidate genus.

    ``series_ok`` is only evaluated when the constant-term filter passes
    (the expansion of a matrix with fractional constants is pointless).
    """

    category: CategoryInfo
    c: Fraction
    h_ext: Fraction
    chi: CharMatrix
    constant_term_ok: bool
    series_ok: bool | None

    @property
    def accepted(self) -> bool:
        return self.constant_term_ok and bool(self.series_ok)

    @property
    def ell(self) -> int:
        return genus(self.category, self.c).ell

    @property
    def realization_note(self) -> str:
        return _REALIZATIONS.get((self.category.id, self.c), "unknown")


def survey() -> list[CandidateOutcome]:
    """Run both filters over every candidate of every category."""
    out: list[CandidateOutcome] = []
    for cat in CATALOG:
        for c, m, h in candidates(cat):
            constant_ok = first_column_admissible(m)
            series_ok = None
            if constant_ok:
                series_ok = characters(genus(cat, c), m, SERIES_ORDER).is_nonneg_integral()
            out.append(CandidateOutcome(cat, c, h, m, constant_ok, series_ok))
    return out


# The fifteen surviving genera: (category, c, h_ext, ell, realization).
GOLDEN_GENERA: tuple[tuple[str, Fraction, Fraction, int, str], ...] = (
    ("semion", Fraction(1), Fraction(1, 4), 0, "A1 level 1"),
    ("semion", Fraction(9), Fraction(1, 4), 4, "A1,1 x E8,1"),
    ("semion", Fraction(17), Fraction(5, 4), 2, "affine VOA coset"),
    ("semion", Fraction(33), Fraction(9, 4), 4, "framed simple-current extension"),
    ("semion-bar", Fraction(7), Fraction(3, 4), 0, "E7 level 1"),
    ("semion-bar", Fraction(15), Fraction(3, 4), 4, "E7,1 x E8,1"),
    ("semion-bar", Fraction(23), Fraction(7, 4), 2, "affine VOA coset"),
    ("fib", Fraction(14, 5), Fraction(2, 5), 0, "G2 level 1"),
    ("fib", Fraction(54, 5), Fraction(2, 5), 4, "G2,1 x E8,1"),
    ("fib", Fraction(94, 5), Fraction(7, 5), 2, "affine VOA coset"),
    ("fib-bar", Fraction(26, 5), Fraction(3, 5), 0, "F4 level 1"),
    ("fib-bar", Fraction(66, 5), Fraction(3, 5), 4, "F4,1 x E8,1"),
    ("fib-bar", Fraction(106, 5), Fraction(8, 5), 2, "affine VOA coset"),
    ("yang-lee", Fraction(-22, 5), Fraction(-1, 5), 0, "M(2,5) minimal model"),
    ("yang-lee", Fraction(18, 5), Fraction(-1, 5), 4, "M(2,5) x E8,1"),
)

_REALIZATIONS = {(cid, c): note for cid, c, _h, _l, note in GOLDEN_GENERA}


def classify_all() -> list[CandidateOutcome]:
    """The accepted candidates: the surviving genera in catalog order, then
    ascending c (the order ``survey`` already keeps)."""
    return [o for o in survey() if o.accepted]


def matches_golden(rows: list[CandidateOutcome]) -> bool:
    """Field-for-field comparison against the embedded golden table."""
    got = tuple((r.category.id, r.c, r.h_ext, r.ell) for r in rows)
    want = tuple((cid, c, h, ell) for cid, c, h, ell, _ in GOLDEN_GENERA)
    return got == want
