"""Fresh-process benchmark of the extremal2 CLI.

    python3 perfbench/run.py --workload sweep|deep|certify|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  One client sends a closed loop of CLI requests at concurrency
1: each request is a fresh ``python -m extremal2 ...`` process and the next
starts when it has exited.  Requests are sent in whole rounds (see
workloads.py) until ``--seconds`` have passed and enough requests have run
to leave ten above the workload's tail percentile.  Before each round, one
fresh ``import extremal2.cli`` is timed for ``setup_s``.  Every response is
verified after the timed loop.  A sweep run then sends, untimed, the
requests that end in the seed commit's known defects (``workloads.probe``)
and reports how they end.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
request twice, once plain and once through ``traced_cli.py`` (alternating
which goes first), and reports the per-layer metrics of the traced runs
plus the tracing overhead.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED_CLI = HERE / "traced_cli.py"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402
from oracle import KNOWN_FAILURES, Oracle  # noqa: E402

SETUP_REPEATS = 9
REQUEST_TIMEOUT_S = 60
TRACE_MARK = b"PERFBENCH_TRACE "

END_TO_END = (
    ("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
    ("throughput_rps", "1/s"), ("cpu_s_per_request", "s"), ("peak_rss_mib", "MiB"),
)


@dataclass
class Result:
    """One finished request: exit code (None on timeout), output, timings."""

    req: workloads.Request
    rc: int | None
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    traced: bool
    trace: dict | None


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _split_trace(stderr: bytes) -> tuple[bytes, dict | None]:
    """The CLI's own stderr and the trace line of traced_cli.py, if complete."""
    head, mark, tail = stderr.partition(TRACE_MARK)
    line, _nl, rest = tail.partition(b"\n")
    try:
        return head + rest, json.loads(line) if mark else None
    except ValueError:  # cut short by a timeout
        return head + rest, None


def execute(req, env: dict, traced: bool) -> Result:
    """Run one request in a fresh interpreter and time it from spawn to exit."""
    prefix = [sys.executable, str(TRACED_CLI)] if traced else [sys.executable, "-m", "extremal2"]
    cpu_before = _children_cpu()
    start = perf_counter()
    if traced:
        env = {**env, "PERFBENCH_SPAWN": repr(start)}
    try:
        proc = subprocess.run(prefix + list(req.argv), capture_output=True, env=env,
                              cwd=ROOT, timeout=REQUEST_TIMEOUT_S)
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        rc, stdout, stderr = None, exc.stdout or b"", exc.stderr or b""
    wall = perf_counter() - start
    cpu = _children_cpu() - cpu_before
    trace = None
    if traced:
        stderr, trace = _split_trace(stderr)
    return Result(req, rc, stdout, stderr, wall, cpu, traced, trace)


def time_import(env: dict) -> float:
    """Wall time of one fresh ``python -c "import extremal2.cli"``."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import extremal2.cli"], env=env,
                          cwd=ROOT, capture_output=True, timeout=REQUEST_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("the program does not import:\n"
                           + proc.stderr.decode(errors="replace"))
    return perf_counter() - start


def tail_latency(walls: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of ``walls`` and the number of samples above it.

    Raises unless at least ten samples lie strictly above the value; ties
    with the samples above it move the value down to the next distinct one.
    """
    ordered = sorted(walls)
    k = math.ceil(percentile * len(ordered) / 100) - 1
    while 0 <= k < len(ordered) - 1 and ordered[k] == ordered[k + 1]:
        k -= 1
    beyond = len(ordered) - k - 1
    if k < 0 or beyond < 10:
        raise ValueError(f"fewer than ten samples above p{percentile} of {len(ordered)}")
    return ordered[k], beyond


def run_loop(stream, seconds: float, min_requests: int, env: dict, trace: bool,
             setup_times: list[float] | None = None) -> tuple[list[Result], float]:
    """Send whole rounds until ``seconds`` have passed and ``min_requests`` have run.

    With ``setup_times``, one import is timed into it before each round;
    the elapsed time returned leaves those imports out.
    """
    results: list[Result] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(results) < min_requests:
        if setup_times is not None:
            setup_times.append(time_import(env))
        for req in next(stream):
            if trace:
                traced_first = len(results) % 4 == 0
                for traced in (traced_first, not traced_first):
                    results.append(execute(req, env, traced))
            else:
                results.append(execute(req, env, False))
    return results, perf_counter() - start - sum(setup_times or ())


def _git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head.removeprefix("ref: ")).read_text().strip()
        return head
    except OSError:
        return "unknown"


def context() -> dict:
    """Where a result was measured, printed with every report."""
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "extremal2").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "src_sha256": src_digest.hexdigest()[:16],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def run_probe(env: dict, oracle: Oracle, data: dict) -> dict[str, int]:
    """How the known-defect requests end: a failure kind, or "verified"."""
    outcomes = collections.Counter()
    for req in workloads.probe(data):
        r = execute(req, env, False)
        outcomes[oracle.check(req, r.rc, r.stdout, r.stderr) or "verified"] += 1
    return dict(sorted(outcomes.items()))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict, oracle: Oracle, data: dict) -> dict:
    setup_times = None
    if not trace:
        # The first import writes the bytecode cache, which an installed
        # package has and a user does not pay for on every call.
        time_import(env)
        setup_times = []
    pct = workloads.TAIL_PERCENTILE[name]
    results, elapsed = run_loop(workloads.rounds(name, seed, data), seconds,
                                workloads.min_requests(pct), env, trace, setup_times)
    # before the probe, whose far chi requests are not part of the workload
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if setup_times is not None:
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_import(env))
    failures = collections.Counter(
        kind for r in results if (kind := oracle.check(r.req, r.rc, r.stdout, r.stderr)))
    probe = run_probe(env, oracle, data) if name == "sweep" else {}
    report = {
        "workload": name, "seed": seed, "requests": len(results), "elapsed_s": elapsed,
        "correct": not failures and all(k in KNOWN_FAILURES or k == "verified" for k in probe),
        "attempted": len(results), "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())), "probe": probe,
    }
    if trace:
        traced = [r for r in results if r.traced and r.trace is not None]
        plain = [r.wall_s for r in results if not r.traced]
        per_request = [layers.request_layers(r.trace, r.wall_s, len(r.stdout)) for r in traced]
        overhead_s = statistics.median(r.wall_s for r in traced) - statistics.median(plain)
        report["metrics"] = layers.run_layers(per_request, overhead_s)
        report["units"] = dict(layers.PER_LAYER)
        return report
    walls = [r.wall_s for r in results]
    tail, beyond = tail_latency(walls, pct)
    report["tail"] = f"p{pct}, {beyond} of {len(walls)} requests slower"
    report["metrics"] = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "throughput_rps": len(results) / elapsed,
        "cpu_s_per_request": statistics.fmean(r.cpu_s for r in results),
        "peak_rss_mib": peak_rss_mib,
    }
    report["units"] = dict(END_TO_END)
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: {report['requests']} "
          f"requests in {report['elapsed_s']:.1f} s, correct={report['correct']}")
    for name, value in report["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = f"  ({report['tail']})"
        print(f"  {name:30s} {value:14.6g} {report['units'][name]}{note}")
    error_rate = report["failed"] / report["attempted"]
    kinds = ", ".join(f"{k} {v}" for k, v in report["failures"].items()) or "none"
    print(f"  {'error_rate':30s} {error_rate:14.6g} ratio  "
          f"({report['failed']} of {report['attempted']}: {kinds})")
    if report["probe"]:
        outcomes = ", ".join(f"{k} {v}" for k, v in report["probe"].items())
        print(f"  known-defect probe (untimed): {outcomes}")


def run_all(args) -> int:
    """Run each workload in its own benchmark process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    fixture = SRC / "extremal2" / "fixtures" / "characters.json"
    if not fixture.is_file():
        print(f"error: no extremal2 source under {SRC}", file=sys.stderr)
        return 2
    print("context: " + json.dumps(context()))
    # Responses far from the window carry integers beyond the default limit.
    sys.set_int_max_str_digits(0)
    sys.path.insert(0, str(SRC))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    # An installed package has its bytecode cached; let the children write and reuse it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    data = json.loads((HERE / "expected.json").read_text())
    oracle = Oracle(data, json.loads(fixture.read_text())["rows"])
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              env, oracle, data)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": report["units"][k]}
                    for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
