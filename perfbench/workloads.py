"""Seeded request streams for the three benchmark workloads.

A workload is an endless sequence of rounds; a round is a short list of CLI
requests (argv lists, without the interpreter prefix).  Every round has the
same mix of request kinds, and each kind walks a seeded permutation of its
variants, so two seeds give different requests but nearly the same cost
profile.  That keeps the per-run medians steady across seeds.

The inputs come only from the seed and from ``expected.json`` (the window
candidates and the class representatives), never from the program under
test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

WORKLOADS = ("sweep", "deep", "certify")

CATEGORIES = (
    "semion", "semion-bar", "semion-dagger", "semion-bar-dagger",
    "fib", "fib-bar", "yang-lee", "yang-lee-bar",
)
TABLE_FORMATS = ("json", "csv", "md")
DOC_FORMATS = ("json", "md")

# deep: per round, two requests each at orders 30 and 60 and one each at 120
# and 200.  The median then falls inside the order-60 group and p75 inside
# the order-120 group, never on the edge between two orders, and a round
# costs little enough that a run reaches the 40 requests p75 needs.
DEEP_ORDERS = (30, 30, 60, 60, 120, 200)

# The tail percentile of each workload: the highest that has at least ten
# slower requests once the run has min_requests() requests.
TAIL_PERCENTILE = {"sweep": 90, "deep": 75, "certify": 70}

# chi: |c - c0| / 24 up to this many steps, i.e. |c| up to about 15400.
# From 692 steps on, some class has an entry beyond Python's 4300-digit
# int-to-str limit and the CLI exits 2; the timed requests stay below that.
CHI_MAX_STEPS = 640
# The known-defect probe asks for chi this many steps out, |c| about 24000.
CHI_PROBE_STEPS = 1000
CHI_PER_ROUND = 4
CHI_STRATA = 20


def min_requests(percentile: float) -> int:
    """Fewest requests that leave ten strictly above the nearest-rank ``percentile``."""
    n = 11
    while n - math.ceil(percentile * n / 100) < 10:
        n += 1
    return n


class Request(NamedTuple):
    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """Lookup key for the expected output: the argv without --check."""
        return " ".join(a for a in self.argv if a != "--check")


def _with_check(argv: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [argv, argv + ("--check",)]


def catalog_variants() -> list[Request]:
    return [Request("catalog", a) for f in TABLE_FORMATS
            for a in _with_check(("catalog", "--format", f))]


def bounds_variants() -> list[Request]:
    out = []
    for f in TABLE_FORMATS:
        out += [Request("bounds", a) for a in _with_check(("bounds", "--format", f))]
        for table in ("nmax-positive", "nmax-negative"):
            out += [Request("bounds", a)
                    for a in _with_check(("bounds", "--table", table, "--format", f))]
        # --check needs the unrestricted table, so per-category rows go without it
        out += [Request("bounds", ("bounds", cat, "--format", f)) for cat in CATEGORIES]
    return out


def classify_variants() -> list[Request]:
    return [Request("classify", a) for f in TABLE_FORMATS
            for a in _with_check(("classify", "--format", f))]


def classify_category_request(cat: str, fmt: str, check: bool) -> Request:
    argv = ("classify", "--category", cat, "--format", fmt)
    return Request("classify-category", argv + ("--check",) if check else argv)


def classify_category_variants() -> list[Request]:
    return [classify_category_request(cat, f, check) for cat in CATEGORIES
            for f in TABLE_FORMATS for check in (False, True)]


def _fails(data: dict, cat: str, fmt: str) -> bool:
    """Whether the seed commit crashes on ``classify --category cat --format fmt``."""
    key = classify_category_request(cat, fmt, False).key
    return "fails" in data["outputs"][key]


def rm_variants() -> list[Request]:
    return [Request("rm", a) for f in DOC_FORMATS
            for a in _with_check(("rm", "verify", "--format", f))]


def character_request(cat: str, c: str, order: int, fmt: str, golden: bool) -> Request:
    argv = ("character", "--category", cat, f"--c={c}", "--order", str(order), "--format", fmt)
    # characters.json holds a row for each golden genus only
    return Request("character", argv + ("--check",) if golden else argv)


def character_variants(genera: list) -> list[Request]:
    return [character_request(cat, c, order, fmt, golden)
            for cat, c, golden in genera for order in sorted(set(DEEP_ORDERS))
            for fmt in DOC_FORMATS]


def deterministic_variants(genera: list) -> list[Request]:
    """Every request whose stdout is a fixed function of its argv."""
    return (catalog_variants() + bounds_variants() + classify_variants()
            + classify_category_variants() + rm_variants() + character_variants(genera))


class _Cycle:
    """Seeded permutations of ``items``, drawn one at a time, reshuffled per pass."""

    def __init__(self, items: list, rng: random.Random) -> None:
        self._items = list(items)
        self._rng = rng
        self._queue: list = []

    def next(self):
        if not self._queue:
            self._queue = self._rng.sample(self._items, len(self._items))
        return self._queue.pop()


def chi_request(cat: str, c0: str, steps: int, fmt: str) -> Request:
    c = Fraction(c0) + 24 * steps
    return Request("chi", ("chi", "--category", cat, f"--c={c}", "--format", fmt))


def _chi_steps(u: float, rng: random.Random) -> int:
    """Steps for the quantile ``u`` of a log-uniform distance up to CHI_MAX_STEPS.

    Most requests land near the window and a few near |c| = 15400.
    """
    magnitude = math.floor((CHI_MAX_STEPS + 1) ** u) - 1
    return magnitude if rng.random() < 0.5 else -magnitude


def probe(data: dict) -> list[Request]:
    """The sweep requests that end in a defect of the seed commit.

    They are sent once per sweep run, outside the timed loop, so that the
    defects stay visible while every timed request succeeds: the six
    ``classify --category`` tables that crash on an empty table, and one
    ``chi`` per category CHI_PROBE_STEPS out, past the int-to-str limit.
    """
    tables = [classify_category_request(cat, f, False) for cat in CATEGORIES
              for f in TABLE_FORMATS if _fails(data, cat, f)]
    first_class = {}
    for cat, c0 in data["chi_classes"]:
        first_class.setdefault(cat, c0)
    chis = [chi_request(cat, c0, CHI_PROBE_STEPS if i % 2 == 0 else -CHI_PROBE_STEPS, "json")
            for i, (cat, c0) in enumerate(first_class.items())]
    return tables + chis


def rounds(workload: str, seed: int, data: dict) -> Iterator[list[Request]]:
    """Endless seeded rounds of ``workload``.

    ``data`` is the parsed ``expected.json``: ``genera`` lists the window
    candidates as [category, c, golden] and ``chi_classes`` the class
    representatives as [category, c0].
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        catalog = _Cycle(catalog_variants(), rng)
        bounds = _Cycle(bounds_variants(), rng)
        classify = _Cycle(classify_variants(), rng)
        # The requests that end in a known defect are left to probe(); the far
        # chi distances are stratified, so their share hardly varies by seed.
        per_category = _Cycle([(cat, f) for cat in CATEGORIES for f in TABLE_FORMATS
                               if not _fails(data, cat, f)], rng)
        classes = _Cycle(data["chi_classes"], rng)
        quantiles = _Cycle(range(CHI_STRATA), rng)
        while True:
            cat, fmt = per_category.next()
            batch = [catalog.next(), bounds.next(), bounds.next(), classify.next(),
                     classify_category_request(cat, fmt, rng.random() < 0.5)]
            for _ in range(CHI_PER_ROUND):
                cat, c0 = classes.next()
                u = (quantiles.next() + rng.random()) / CHI_STRATA
                batch.append(chi_request(cat, c0, _chi_steps(u, rng), rng.choice(DOC_FORMATS)))
            rng.shuffle(batch)
            yield batch
    elif workload == "deep":
        genera = _Cycle(data["genera"], rng)
        while True:
            batch = []
            for order in DEEP_ORDERS:
                cat, c, golden = genera.next()
                batch.append(character_request(cat, c, order, rng.choice(DOC_FORMATS), golden))
            rng.shuffle(batch)
            yield batch
    else:
        variants = rm_variants()
        while True:
            yield rng.sample(variants, len(variants))
