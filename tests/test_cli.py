from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal2 import classify, cli
from extremal2.chimat import CharMatrix, alpha_beta, g_closed, k_closed, seed_rows
from extremal2.genus import CATALOG, Surd

PKG = [sys.executable, "-m", "extremal2"]
# Stdout digests of the seed commit, kept with the benchmark (read only here).
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args: str):
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, timeout=300
    )


def run_main(*args: str) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main`` run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(args))
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def classified():
    return classify.classify_all()


@pytest.fixture
def classify_calls(monkeypatch, classified):
    """Serve ``classify_all`` from one shared result and record each call."""
    calls = []
    monkeypatch.setattr(classify, "classify_all", lambda *a: calls.append(a) or classified)
    return calls


def fixture(name: str):
    return json.loads(
        resources.files("extremal2").joinpath("fixtures", name).read_text()
    )


def test_catalog_json_matches_fixture_rows():
    res = run_cli("catalog", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout) == fixture("catalog.json")["rows"]
    assert run_main("catalog", "--check")[0] == 0


def test_version_goes_to_stderr_not_stdout():
    res = run_cli("catalog")
    assert "extremal2" in res.stderr
    assert "extremal2 " not in res.stdout


def test_byte_stable_output():
    first = run_cli("classify", "--format", "json")
    second = run_cli("classify", "--format", "json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_bounds_summary_and_category_filter():
    res = run_cli("bounds", "--format", "json")
    assert json.loads(res.stdout) == fixture("bounds_summary.json")["rows"]
    res = run_cli("bounds", "semion", "--format", "json")
    assert json.loads(res.stdout) == [
        {"category": "semion", "c_min": "-23", "c_max": "57"}
    ]


def test_bounds_tables_check_mode():
    for table in ("nmax-positive", "nmax-negative"):
        res = run_cli("bounds", "--table", table, "--check")
        assert res.returncode == 0, res.stderr
        assert "check passed" in res.stderr


def test_classify_self_verifies_and_checks():
    res = run_cli("classify", "--check")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert len(rows) == 15


def test_classify_csv_and_md_render():
    res = run_cli("classify", "--format", "csv")
    header = res.stdout.splitlines()[0]
    assert header.startswith("category,c,h_ext,ell,chi_x")
    assert len(res.stdout.splitlines()) == 16
    res = run_cli("classify", "--format", "md")
    assert res.stdout.startswith("| category | c |")


def test_character_json_and_check():
    res = run_cli("character", "--category", "semion", "--c", "33", "--order", "3")
    data = json.loads(res.stdout)
    assert data["series0"][:3] == ["1", "3", "86004"]
    assert data["series1"][:2] == ["565760", "192053760"]
    assert data["exponent0"] == "-11/8"
    res = run_cli(
        "character", "--category", "semion", "--c", "33", "--order", "3", "--check"
    )
    assert res.returncode == 0


def test_character_check_without_fixture_row_is_mismatch():
    res = run_cli(
        "character", "--category", "semion-dagger", "--c", "27", "--check"
    )
    assert res.returncode == 1
    assert "no fixture row" in res.stderr


def test_character_check_compares_the_terms_both_sides_have(monkeypatch):
    # order 1 gives 3 vacuum and 2 module terms; the fixture row holds 3 of each
    argv = ("character", "--category", "semion", "--c", "1", "--order", "1", "--check")
    rc, out = run_main(*argv)
    assert rc == 0 and json.loads(out)["series1"] == ["2", "2"]
    real = cli._load_fixture

    def tampered(name):
        data = real(name)
        data["rows"][0]["series1"][1] = "3"  # semion c = 1 is the first row
        return data

    monkeypatch.setattr(cli, "_load_fixture", tampered)
    assert run_main(*argv)[0] == 1


def test_usage_errors_exit_2(tmp_path):
    # errors found after parsing come from the subcommand's parser, as argparse's own do
    unwritable = str(tmp_path / "missing" / "x.json")
    for argv, message in [
        (("character", "--category", "semion", "--c", "2"), "class mod 8"),
        (("character", "--category", "nonsense", "--c", "1"), "unknown category"),
        (("character", "--category", "semion", "--c", "1", "--order", "0"), "--order"),
        (("character", "--category", "semion", "--c=1", "--order=99999999999999999999"),
         "--order must be at most"),
        # passes that bound, but its series fails to allocate at once
        (("character", "--category", "semion", "--c=1", "--order=9223372036854775805"),
         "--order 9223372036854775805 needs more memory"),
        (("chi", "--category", "semion", "--c", "-1.5"), "class mod 8"),
        (("bounds", "--table", "sideways"), "invalid choice"),
        (("chi", "--category", "semion", "--c", "1", "--out", unwritable), unwritable),
    ]:
        res = run_cli(*argv)
        assert res.returncode == 2 and res.stdout == ""
        assert f"usage: extremal2 {argv[0]} [-h]" in res.stderr
        assert f"extremal2 {argv[0]}: error: " in res.stderr and message in res.stderr


@pytest.mark.parametrize("argv", [
    ("catalog",),  # fits stdout's buffer, so the flush fails
    ("character", "--category", "semion", "--c=33", "--order", "200"),  # the write fails
])
def test_a_broken_stdout_is_a_usage_error(argv):
    read, write = os.pipe()
    os.close(read)  # before the child starts, so every write to the pipe fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffers
    try:
        res = subprocess.run(PKG + list(argv), stdout=write, stderr=subprocess.PIPE,
                             text=True, timeout=300, env=env)
    finally:
        os.close(write)
    assert res.returncode == 2
    assert res.stderr.endswith(f"extremal2 {argv[0]}: error: cannot write stdout: Broken pipe\n")
    assert "Traceback" not in res.stderr and "Exception ignored" not in res.stderr


def test_a_closed_stdout_is_a_usage_error():
    res = subprocess.run(["sh", "-c", 'exec "$0" -m extremal2 catalog >&-', sys.executable],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 2
    assert res.stderr.endswith("extremal2 catalog: error: cannot write stdout: "
                               "Bad file descriptor\n")


@pytest.mark.parametrize("argv", [("catalog",), ("catalog", "--check")])
def test_a_closed_stderr_changes_neither_stdout_nor_exit_code(argv):
    # the version line and the check verdict go to stderr and are lost
    closed = subprocess.run(["sh", "-c", 'exec "$0" -m extremal2 "$@" 2>&-', sys.executable,
                             *argv], stdout=subprocess.PIPE, timeout=300)
    res = subprocess.run(PKG + list(argv), capture_output=True, timeout=300)
    assert res.returncode == 0 and res.stdout
    assert (closed.returncode, closed.stdout) == (res.returncode, res.stdout)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_out_that_opens_but_cannot_be_written_is_a_usage_error():
    res = run_cli("catalog", "--out", "/dev/full")
    assert (res.returncode, res.stdout) == (2, "")
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert errors == ["extremal2 catalog: error: cannot write --out /dev/full: "
                      "No space left on device"]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ("catalog", "--format", "csv"),
    ("bounds", "--table", "nmax-negative", "--check"),
    ("classify", "--format", "md"),
    ("classify", "--category", "semion-dagger"),
    ("character", "--category", "yang-lee", "--c=-22/5", "--order", "12", "--check"),
    ("chi", "--category", "semion", "--c", "49", "--format", "md"),
    ("rm", "verify", "--format", "md"),
])
def test_fast_exit_keeps_stdout_and_exit_code(argv, classify_calls):
    """``python -m extremal2`` ends through ``cli.run`` and ``os._exit``; what
    it prints and returns is what ``main`` gives in this process."""
    res = subprocess.run(PKG + list(argv), capture_output=True, timeout=300)
    assert (res.returncode, res.stdout.decode()) == run_main(*argv)


def test_fast_exit_writes_out_whole(tmp_path):
    # usage errors under the fast exit: test_usage_errors_exit_2 runs python -m
    target = tmp_path / "rm.md"
    res = run_cli("rm", "verify", "--format", "md", "--out", str(target))
    assert (res.returncode, res.stdout) == (0, "")
    assert target.read_bytes() == run_cli("rm", "verify", "--format", "md").stdout.encode()


def test_both_entry_points_exit_through_run_without_teardown():
    root = Path(__file__).resolve().parents[1]
    assert 'extremal2 = "extremal2.cli:run"' in (root / "pyproject.toml").read_text()
    assert "    run()\n" in (root / "src" / "extremal2" / "__main__.py").read_text()
    # an atexit hook would run at teardown, which run skips
    script = ("import atexit, sys\n"
              "atexit.register(print, 'teardown', file=sys.stderr)\n"
              "sys.argv[1:] = ['catalog']\n"
              "from extremal2.cli import run\n"
              "run()\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0 and json.loads(res.stdout) == fixture("catalog.json")["rows"]
    assert "teardown" not in res.stderr


def test_encode_keeps_a_charmatrix_a_dict():
    # CharMatrix is a tuple, so _encode must catch it before the list branch
    m = CharMatrix(3, 26752, 2, -247)
    assert cli._encode(m) == {"x": "3", "y": "26752", "z": "2", "w": "-247"}
    assert cli._encode([m, (Fraction(1, 2),)]) == [m.to_json(), ["1/2"]]
    # so is a Surd, which prints as one string
    phi = Surd(Fraction(1, 2), Fraction(1, 2))
    assert cli._encode({"s": [phi, Surd(Fraction(-1))]}) == {"s": ["1/2+1/2*sqrt(5)", "-1"]}


def test_chi_subcommand_negative_charge():
    res = run_cli("chi", "--category", "yang-lee", "--c=-22/5")
    data = json.loads(res.stdout)
    assert data["chi"] == {"x": "0", "y": "310124", "z": "1", "w": "-244"}
    assert data["h_ext"] == "-1/5"


@pytest.mark.parametrize("argv", [("character", "--category", "yang-lee", "--order", "5"),
                                  ("chi", "--category", "yang-lee")])
def test_negative_fractional_c_parses_with_or_without_equals(argv):
    rc_spaced, spaced = run_main(*argv, "--c", "-22/5")
    rc_joined, joined = run_main(*argv, "--c=-22/5")
    assert rc_spaced == rc_joined == 0
    assert spaced == joined
    assert json.loads(spaced)["c"] == "-22/5"


def test_negative_c_forms_that_parse_and_one_that_does_not(capsys):
    rc, out = run_main("chi", "--category", "semion", "--c", "-23")
    assert rc == 0 and json.loads(out)["c"] == "-23"
    # an exponent form reads as the same value, spaced or joined
    rc_spaced, spaced = run_main("chi", "--category", "yang-lee", "--c", "-4.4e0")
    rc_joined, joined = run_main("chi", "--category", "yang-lee", "--c=-4.4e0")
    assert rc_spaced == rc_joined == 0 and spaced == joined
    assert json.loads(spaced)["c"] == "-22/5"
    with pytest.raises(SystemExit) as exc:
        cli.main(["chi", "--category", "semion", "--c", "-x/5"])
    assert exc.value.code == 2
    assert "argument --c: expected one argument" in capsys.readouterr().err


def test_rm_verify_check_and_md():
    res = run_cli("rm", "verify", "--check")
    assert res.returncode == 0
    res = run_cli("rm", "verify", "--format", "md")
    assert res.returncode == 0
    assert res.stdout.encode() == (GOLDEN / "rm_verify.md").read_bytes()


@pytest.mark.parametrize("name, tamper", [
    ("min_weight_rm46", lambda found: (3, found[1])),
    ("lemma6_scan", lambda report: report._replace(all_cosets_match=False)),
    ("verify_theorem1_xi",
     lambda cert: cert._replace(conditions=cert.conditions._replace(cond_iv=False))),
    ("verify_theorem1_xi", lambda cert: cert._replace(top_weight=Fraction(27, 16))),
], ids=["min-weight-3", "cosets-differ", "condition-iv-false", "top-weight-27-16"])
def test_rm_verify_exits_1_on_a_failing_certificate(name, tamper, monkeypatch, capsys):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda: tamper(real()))
    assert cli.main(["rm", "verify"]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines()[1:] == ["the binary-code certificate does not hold"]
    # stdout is the document as computed, the failing entry included
    assert json.loads(out)["xi"] == fixture("rm_verify.json")["xi"]


def test_catalog_exits_1_on_a_row_that_fails_the_st_check(monkeypatch, capsys):
    semion = CATALOG[0]
    monkeypatch.setattr(cli, "CATALOG", (semion._replace(c_mod8=Fraction(2)), *CATALOG[1:]))
    assert cli.main(["catalog", "--format", "csv"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].startswith("semion,2,1/4,")
    assert err.splitlines()[1:] == ["modular S/T check fails for semion"]


def test_chi_checks_its_walk_against_the_closed_forms():
    """Every class, 0 to 30 steps above its seed and 1 to 30 below."""
    for cat in CATALOG:
        for c0, _, _ in seed_rows(cat):
            for steps in (-30, -2, -1, 0, 1, 2, 30):
                rc, out = run_main("chi", "--category", cat.id, f"--c={c0 + 24 * steps}")
                assert rc == 0, (cat.id, c0, steps)


@pytest.mark.parametrize("c, entry, message", [
    (49, "x", "chi's diagonal differs from g_closed 2 steps above the class seed"),
    (-47, "y", "chi's (alpha, beta) differs from k_closed 2 steps below the class seed"),
])
def test_chi_exits_1_on_a_tampered_walk(c, entry, message, monkeypatch, capsys):
    real = cli.chi_of

    def tampered(cat, c):
        m = real(cat, c)
        return m._replace(**{entry: getattr(m, entry) + 1})

    monkeypatch.setattr(cli, "chi_of", tampered)
    assert cli.main(["chi", "--category", "semion", "--c", str(c)]) == 1
    out, err = capsys.readouterr()
    m = tampered("semion", c)
    assert json.loads(out)["chi"] == m.to_json()  # printed as computed
    assert err.splitlines()[1:] == [message]


def test_out_writes_file(tmp_path):
    target = tmp_path / "catalog.json"
    res = run_cli("catalog", "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    assert json.loads(target.read_text()) == fixture("catalog.json")["rows"]


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
@pytest.mark.parametrize("cat", [cat.id for cat in CATALOG])
def test_classify_per_category_exits_0_even_when_empty(cat, fmt, classify_calls):
    rc, out = run_main("classify", "--category", cat, "--format", fmt)
    assert rc == 0
    assert len(classify_calls) == 1
    n = sum(row[0] == cat for row in classify.GOLDEN_GENERA)
    if fmt == "json":
        assert len(json.loads(out)) == n
    else:
        assert len(out.splitlines()) == (n + {"csv": 1, "md": 2}[fmt] if n else 0)
    if cat in ("semion-dagger", "semion-bar-dagger", "yang-lee-bar"):
        assert out == ("[]\n" if fmt == "json" else "")


def test_tables_reproduce_the_seed_digests(classify_calls):
    outputs = json.loads(EXPECTED.read_text())["outputs"]
    keys = [key for key in outputs if key.split()[0] in ("catalog", "bounds", "rm")
            or key.startswith("classify --format")]
    assert len(keys) == 3 + 33 + 3 + 2
    for key in keys:
        for check in ([], ["--check"]) if key.startswith("classify") else ([],):
            rc, out = run_main(*key.split(), *check)
            assert rc == 0, key
            assert hashlib.sha256(out.encode()).hexdigest()[:20] == outputs[key]["sha256"], key
    assert len(classify_calls) == 6


@pytest.mark.parametrize("c, steps", [("24001", 1000), ("-23999", -1000)])
def test_chi_far_from_the_window_has_no_digit_limit(c, steps):
    rc, out = run_main("chi", "--category", "semion", f"--c={c}")
    assert rc == 0
    data = json.loads(out)
    x, y, z, w = (Fraction(data["chi"][k]) for k in "xyzw")
    assert max(len(v) for v in data["chi"].values()) > 4300
    ((c0, m0, h0),) = [row for row in seed_rows("semion") if row[0] == 1]
    h = Fraction(data["h_ext"])
    if steps > 0:
        assert (x, w, h) == g_closed(m0.x, m0.w, h0, steps)
    else:
        ab, h_n = k_closed(alpha_beta(m0), h0, -steps)
        assert (x - w, z * y, h) == (ab.alpha, ab.beta, h_n)


@pytest.mark.parametrize("cat, n", [("semion", 4), ("semion-dagger", 0)])
def test_classify_category_check_compares_its_fixture_rows(cat, n, classify_calls, capsys):
    assert cli.main(["classify", "--category", cat, "--check"]) == 0
    out, err = capsys.readouterr()
    rows = json.loads(out)
    assert len(rows) == n
    assert rows == [r for r in fixture("classify.json")["rows"] if r["category"] == cat]
    assert "check passed" in err


@pytest.mark.parametrize("table, n", [("summary", 1), ("nmax-positive", 3), ("nmax-negative", 3)])
def test_bounds_category_filters_every_table(table, n, capsys):
    assert cli.main(["bounds", "semion", "--table", table, "--format", "csv", "--check"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 1 + n
    assert all(line.startswith("semion,") for line in lines[1:])
    assert "check passed" in err


@pytest.mark.parametrize("argv", [("classify", "--category", "semion"),
                                  ("bounds", "semion", "--table", "nmax-negative")])
def test_category_check_fails_on_a_tampered_fixture(argv, monkeypatch, classify_calls, capsys):
    real = cli._load_fixture

    def tampered(name):
        data = real(name)
        data["rows"][0]["tampered"] = True  # the first row of every table is semion's
        return data

    monkeypatch.setattr(cli, "_load_fixture", tampered)
    assert cli.main([*argv, "--check"]) == 1
    assert "check FAILED" in capsys.readouterr().err


def test_chi_has_no_check_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chi", "--category", "semion", "--c", "1", "--check"])
    assert exc.value.code == 2
    assert "--check" in capsys.readouterr().err


_SUBCOMMANDS = ("catalog", "bounds", "classify", "character", "chi", "rm")


@st.composite
def cli_argv(draw):
    """An argv over the CLI grammar, valid or not, that stays cheap to run:
    c within a few steps of 8 of each window, small --order."""
    sub = draw(st.sampled_from(_SUBCOMMANDS + ("frobnicate",)))
    cat = draw(st.sampled_from(CATALOG))
    cat_id = draw(st.sampled_from([cat.id, cat.id, cat.id, "nonsense", ""]))
    argv = [sub]
    if sub == "bounds":
        argv += draw(st.sampled_from([[], [cat_id]]))
        argv += ["--table", draw(st.sampled_from(["summary", "nmax-positive", "nmax-negative",
                                                  "sideways"]))]
    elif sub == "classify" and draw(st.booleans()):
        argv += ["--category", cat_id]
    elif sub in ("character", "chi"):
        in_class = st.integers(-5, 11).map(lambda k: str(cat.c_mod8 + 8 * k))
        c = draw(st.one_of(
            in_class, in_class, st.integers(-40, 90).map(str),
            st.sampled_from(["-22/5", "2.5", "-1.5", "1/0", "inf", "nan", "x", "", "1e1"])))
        argv += ["--category", cat_id, f"--c={c}"]
        if sub == "character" and draw(st.booleans()):
            argv += ["--order", str(draw(st.integers(-1, 4)))]
    elif sub == "rm":
        argv += [draw(st.sampled_from(["verify", "verify", "prove"]))]
    argv += ["--format", draw(st.sampled_from(["json", "json", "json", "md", "csv", "xml"]))]
    if draw(st.booleans()):
        argv += ["--check"]
    return argv


def _call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main``, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(argv=cli_argv())
def test_cli_contract_holds_for_drawn_argv(argv, tmp_path_factory):
    rc, out, err = _call(argv)
    assert rc in (0, 1, 2), (argv, err)
    if rc == 2:
        sub = argv[0] if argv[0] in _SUBCOMMANDS else None
        prefix = f"extremal2 {sub}: error: " if sub else "extremal2: error: "
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert out == "" and len(errors) == 1 and errors[0].startswith(prefix), (argv, err)
    elif argv[argv.index("--format") + 1] == "json":
        json.loads(out)
    target = tmp_path_factory.mktemp("out") / "result"
    rc_out, out_out, _ = _call(argv + ["--out", str(target)])
    assert rc_out == rc
    if rc != 2:
        assert out_out == ""
        assert target.read_text() == out
