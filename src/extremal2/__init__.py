"""Exact classification of extremal two-module VOA characters.

The pipeline: integer modular-form q-series (`exactq`), the rank-two category
catalog and genus arithmetic (`genus`), the c -> c +/- 24 recurrence on
characteristic matrices (`chimat`), effective central-charge bounds
(`bounds`), the classification sweep producing the fifteen surviving
genera (`classify`), the differential-equation character expansion
(`charser`), and the GF(2) Reed-Muller certificates behind the c = 33
realization (`reedmuller`).  ``python -m extremal2`` exposes it all on
the command line.
"""

__version__ = "1.0.0"
