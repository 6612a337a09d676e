"""Tests of the benchmark's own logic: request streams, oracle, statistics, spans."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from oracle import EMPTY_TABLE, INT_STR_LIMIT, WRONG_OUTPUT, Oracle, digest  # noqa: E402
from run import tail_latency  # noqa: E402

DATA = json.loads((BENCH / "expected.json").read_text())


def _requests(workload: str, seed: int, n_rounds: int = 6) -> list:
    return [r for batch in islice(workloads.rounds(workload, seed, DATA), n_rounds) for r in batch]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload):
    assert _requests(workload, 7) == _requests(workload, 7)
    assert _requests(workload, 7) != _requests(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_has_an_oracle(workload):
    for req in _requests(workload, 3, 20):
        assert req.kind == "chi" or req.key in DATA["outputs"], req


def test_timed_requests_avoid_the_known_defects_and_the_probe_hits_them():
    for req in _requests("sweep", 5, 40):
        assert "fails" not in DATA["outputs"].get(req.key, {}), req
        if req.kind == "chi":
            cat, c = req.argv[2], Fraction(req.argv[3].removeprefix("--c="))
            c0 = min((Fraction(c0) for k, c0 in DATA["chi_classes"] if k == cat),
                     key=lambda c0: abs(c - c0))
            assert abs(c - c0) / 24 <= workloads.CHI_MAX_STEPS
    probe = workloads.probe(DATA)
    assert sum("fails" in DATA["outputs"].get(r.key, {}) for r in probe) == 6
    assert sum(r.kind == "chi" for r in probe) == len(workloads.CATEGORIES)


def _oracle() -> Oracle:
    rows = json.loads((BENCH.parent / "src/extremal2/fixtures/characters.json").read_text())
    return Oracle(DATA, rows["rows"])


def _cli_stdout(argv: list[str]) -> bytes:
    from extremal2 import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


def test_oracle_accepts_the_program_output_and_rejects_corruption():
    req = workloads.Request("catalog", ("catalog", "--format", "md", "--check"))
    stdout = _cli_stdout(list(req.argv))
    oracle = _oracle()
    assert oracle.check(req, 0, stdout, b"") is None
    assert oracle.check(req, 0, stdout.replace(b"semion", b"semiom", 1), b"") == WRONG_OUTPUT
    assert oracle.check(req, 0, stdout[:-1], b"") == WRONG_OUTPUT
    assert oracle.check(req, 1, stdout, b"") == "exit-1"
    assert oracle.check(req, None, b"", b"") == "timeout"


def _corrupt_chi(text: str, fmt: str, key: str) -> str:
    """The response with one more digit on entry ``key`` of chi."""
    if fmt == "json":
        data = json.loads(text)
        data["chi"][key] += "1"
        return json.dumps(data)
    header, sep, row = text.splitlines()
    names = [c.strip() for c in header.strip("|").split("|")]
    cells = [c.strip() for c in row.strip("|").split("|")]
    cells[names.index(f"chi_{key}")] += "1"
    return "\n".join([header, sep, "| " + " | ".join(cells) + " |"]) + "\n"


@pytest.mark.parametrize("cat, c0, steps, fmt",
                         [("semion", "1", 3, "json"), ("semion", "1", -2, "md"),
                          ("fib", "14/5", 5, "md"), ("yang-lee", "58/5", -4, "json")])
def test_chi_oracle_uses_closed_forms(cat, c0, steps, fmt):
    req = workloads.chi_request(cat, c0, steps, fmt)
    stdout = _cli_stdout(list(req.argv))
    oracle = _oracle()
    assert oracle.check(req, 0, stdout, b"") is None
    # g_closed fixes the diagonal above the seed, k_closed (alpha, beta) below it
    bad = _corrupt_chi(stdout.decode(), fmt, "w" if steps >= 0 else "z")
    assert oracle.check(req, 0, bad.encode(), b"") == WRONG_OUTPUT
    limit = b"Exceeds the limit (4300 digits) for integer string conversion"
    assert oracle.check(req, 2, b"", limit) == INT_STR_LIMIT
    assert oracle.check(req, 2, b"", b"usage error") == "exit-2"


def test_character_oracle_checks_digest_and_fixture_prefix():
    req = workloads.character_request("semion", "9", 30, "json", golden=True)
    stdout = _cli_stdout(list(req.argv))
    oracle = _oracle()
    assert oracle.check(req, 0, stdout, b"") is None
    # a forged output whose digest matches still fails the fixture prefix check
    data = json.loads(stdout)
    data["series0"][2] = str(int(data["series0"][2]) + 1)
    forged = json.dumps(data, indent=2, sort_keys=True).encode() + b"\n"
    oracle.outputs = {**oracle.outputs, req.key: {"sha256": digest(forged)}}
    assert oracle.check(req, 0, forged, b"") == WRONG_OUTPUT


def test_known_empty_table_failure_and_its_fix():
    req = workloads.Request("classify-category",
                            ("classify", "--category", "semion-dagger", "--format", "csv"))
    oracle = _oracle()
    assert oracle.check(req, 1, b"", b"IndexError: list index out of range") == EMPTY_TABLE
    assert oracle.check(req, 0, b"category,c,h_ext\n", b"") is None
    assert oracle.check(req, 0, b"category,c\nsemion,1\n", b"") == WRONG_OUTPUT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_has_at_least_ten_samples_beyond_it(workload):
    pct = workloads.TAIL_PERCENTILE[workload]
    n_min = workloads.min_requests(pct)
    rng = random.Random(pct)
    for _ in range(200):
        n = rng.randint(n_min, 4 * n_min)
        digits = rng.choice((2, 6, None))  # coarse rounding makes ties
        walls = [round(rng.expovariate(1.0), digits) for _ in range(n)]
        if sum(w > min(walls) for w in walls) < 10:
            continue
        value, beyond = tail_latency(walls, pct)
        assert beyond == sum(w > value for w in walls) >= 10
        if len(set(walls)) == n:
            assert value == sorted(walls)[math.ceil(pct * n / 100) - 1]
    with pytest.raises(ValueError):
        tail_latency([0.1 * i for i in range(n_min - 1)], pct)


def test_min_requests():
    assert [workloads.min_requests(p) for p in (50, 70, 75, 90)] == [20, 34, 40, 100]


def _span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


def test_self_time_on_a_nested_span_tree():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("classify.survey", 0, 1.0, 4.0, [74, 18, 15]),
        _span("exactq.j_and_script_e", 1, 2.0, 3.0, 12),
        _span("exactq.eisenstein", 2, 2.2, 2.6, 14),
        _span("bounds.c_extremes", 0, 5.0, 9.0),
        _span("chimat.f_plus", 4, 5.0, 6.0, 40),
        _span("chimat.f_minus", 4, 7.0, 9.0, 50),
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 2.0, 0.6, 0.4, 1.0, 1.0, 2.0])
    m = layers.request_layers({"spawn": -0.5, "spans": spans, "counts": {}}, 11.0, 42)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["exactq.self_s"] == pytest.approx(1.0)
    assert (m["exactq.calls"], m["exactq.busy_s"], m["exactq.terms"]) == (1, 1.0, 12)
    assert (m["chimat.steps"], m["chimat.max_entry_bits"], m["chimat.busy_s"]) == (2, 50, 3.0)
    assert m["cli.startup_s"] == pytest.approx(0.5)
    out = layers.run_layers([m, m], overhead_s=0.25)
    assert out["classify.candidates"] == 74 and out["classify.surveys"] == 1
    assert out["classify.survivor_ratio"] == pytest.approx(15 / 18)
    assert out["cli.exit_s"] == pytest.approx(0.5)
    assert out["trace.accounted_share"] == pytest.approx(10.5 / 11.0)
    assert set(out) == {name for name, _unit in layers.PER_LAYER}
