"""Regenerate ``expected.json``: the oracle data of the benchmark.

Run from the repository root, against the commit whose outputs define
"correct" (the committed file was made from the seed commit):

    PYTHONPATH=src python3 perfbench/make_expected.py

It records the 74 window candidates, the 24 class representatives used by
``chi`` requests, and a SHA-256 prefix of the stdout of every request whose
output is a fixed function of its argv (or the known failure it ends in).
The outputs are produced in this process through the CLI's own functions;
a sample is cross-checked against fresh ``python -m extremal2`` processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from extremal2 import cli  # noqa: E402
from extremal2.chimat import seed_rows  # noqa: E402
from extremal2.classify import survey  # noqa: E402
from extremal2.genus import CATALOG  # noqa: E402

import workloads  # noqa: E402
from oracle import EMPTY_TABLE, digest  # noqa: E402


def _run_main(argv: list[str]) -> str | None:
    """Stdout of ``cli.main(argv)``, or None when it fails on an empty table."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except IndexError:
        return None
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return out.getvalue()


def main() -> int:
    genera = [[o.category.id, str(o.c), o.accepted] for o in survey()]
    chi_classes = [[cat.id, str(c0)] for cat in CATALOG for c0, _m, _h in seed_rows(cat)]
    outputs: dict[str, dict] = {}
    sample: list[tuple[workloads.Request, str]] = []
    rng = random.Random(0)

    for req in workloads.deterministic_variants(genera):
        if req.key in outputs or req.kind == "character":
            continue
        text = _run_main(list(req.argv))
        outputs[req.key] = {"fails": EMPTY_TABLE} if text is None else {"sha256": digest(text.encode())}
        if text is not None and rng.random() < 0.1:
            sample.append((req, text))

    for cat, c, golden in genera:
        for order in sorted(set(workloads.DEEP_ORDERS)):
            data = cli.character_data(cat, Fraction(c), order)
            texts = {"json": cli._render_json(data), "md": cli._render_character_md(data)}
            for fmt, text in texts.items():
                req = workloads.character_request(cat, c, order, fmt, golden)
                outputs[req.key] = {"sha256": digest(text.encode())}
                if order <= 60 and rng.random() < 0.05:
                    sample.append((req, text))
        print(f"characters done for {cat} {c}", file=sys.stderr)

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for req, text in sample:
        proc = subprocess.run([sys.executable, "-m", "extremal2", *req.argv],
                              capture_output=True, env=env, cwd=ROOT, check=True)
        if proc.stdout != text.encode():
            raise RuntimeError(f"in-process output differs from the CLI for {req.argv}")
    print(f"cross-checked {len(sample)} outputs against fresh processes", file=sys.stderr)

    doc = {
        "notes": "Generated by perfbench/make_expected.py; sha256 is a 20-hex-digit "
                 "prefix of the stdout digest.",
        "genera": genera,
        "chi_classes": chi_classes,
        "outputs": dict(sorted(outputs.items())),
    }
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
