"""Character vectors from the coefficient recursion.

The expansion solves a triangular recursion entry by entry; for genera in
the classification every coefficient is a non-negative integer.  The
second half replays the c = 33 coset bookkeeping: the integer-weight
coset components sum exactly to its holomorphic extension, while the
naive A1-branching product is reported as a diagnostic because it does
not reproduce the printed character.
"""

from fractions import Fraction

from extremal2.charser import (
    branching_diagnostic,
    character_vector,
    coset_extension_sum_check,
    expand,
)
from extremal2.chimat import chi_of
from extremal2.genus import category, genus


def show(cat_id: str, c, order: int = 5) -> None:
    cat = category(cat_id)
    g = genus(cat, Fraction(c))
    vec = character_vector(expand(g, chi_of(cat, g.c), order))
    print(f"({cat_id}, c = {c}):")
    print(f"  q^({vec.exponent0}) * {list(map(str, vec.series0))}")
    print(f"  q^({vec.exponent1}) * {list(map(str, vec.series1))}")


show("semion", 1)
show("semion", 33)
show("yang-lee", "-22/5")

print()
print("coset components (h = 0) + (h = 2) sum to the holomorphic extension:",
      coset_extension_sum_check())

diag = branching_diagnostic()
print("naive branching product matches the c = 33 character:", diag.matches)
for power, got, want in diag.mismatches:
    print(f"  q^{power}: product gives {got}, character has {want}")
