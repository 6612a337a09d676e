"""Effective central-charge windows per category.

Each of the three classes of c mod 24 gets a positive-side cutoff (the
diagonal of chi eventually goes negative) and a negative-side cutoff
(|chi_10| drops below 1 forever); combining them leaves finitely many
candidate genera per category.
"""

from extremal2.bounds import (
    c_extremes,
    negative_base_point,
    negative_threshold,
    nmax_negative,
    nmax_positive,
    positive_threshold_witness,
)
from extremal2.chimat import seed_rows
from extremal2.genus import CATALOG

for cat in CATALOG:
    c_min, c_max = c_extremes(cat)
    print(f"{cat.id:18s} c in [{c_min}, {c_max}]")

print()
c, chi, h = seed_rows("semion")[1]
print(f"example: semion class c = {c}")
print(f"  n_max = {nmax_positive(chi, h)}")
print(f"  threshold witness = {positive_threshold_witness(chi, h)} "
      f"(~{float(positive_threshold_witness(chi, h)):.4f})")

c, chi, h = negative_base_point("semion", 0)
threshold = negative_threshold(chi, h)
print(f"negative side base point c = {c}: n_max = {nmax_negative(chi, h)}, "
      f"threshold = {threshold} (~{float(threshold):.4f})")
