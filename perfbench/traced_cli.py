"""Run ``extremal2.cli.main`` with span wrappers around every layer.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    PERFBENCH_SPAWN=<perf_counter at spawn> python3 perfbench/traced_cli.py ARGS...

behaves like ``python -m extremal2 ARGS...`` (same stdout and exit code)
and also writes one line ``PERFBENCH_TRACE {json}`` to stderr at exit.

Each public function of the layer modules is replaced, in every extremal2
module that binds it by name (``bounds`` binds ``f_minus``, ``charser``
binds ``j_and_script_e``, ``classify`` and ``cli`` bind ``expand`` ...), by
a wrapper that records a span ``[name, parent, start, end, info]`` in
memory.  ``info`` carries what the layer metrics need: series terms for
exactq, order and coefficient bits for ``expand``, the funnel counts for
``survey``, entry bits for each recurrence step.  The two membership tests
of reedmuller run tens of thousands of times per request, so they are only
counted.  Spans use ``time.perf_counter``, the same monotonic clock as the
parent's spawn time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from time import perf_counter

LAYERS = ("exactq", "chimat", "bounds", "classify", "charser", "reedmuller")
COUNT_ONLY = frozenset({"reedmuller.rm46_member", "reedmuller.rm46_member_dual"})

_spans: list[list] = []
_stack: list[int] = []
_counts: dict[str, int] = {}


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def _info(name: str, args: tuple, kwargs: dict, result):
    """Size data of one call, recorded after its span has ended."""
    if name in ("exactq.j_and_script_e", "exactq.delta"):
        return kwargs.get("n_terms", args[0] if args else None)
    if name == "exactq.eisenstein":
        return kwargs.get("n_terms", args[1] if len(args) > 1 else None)
    if name == "charser.expand":
        order = kwargs.get("order", args[2] if len(args) > 2 else 8)
        return [order, _bits(e for mat in result.coeffs for row in mat for e in row)]
    if name == "classify.survey":
        return [len(result), sum(o.series_ok is not None for o in result),
                sum(o.accepted for o in result)]
    if name in ("chimat.f_plus", "chimat.f_minus"):
        m = result[0]
        return _bits((m.x, m.y, m.z, m.w))
    return None


def _spanned(name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        record = [name, _stack[-1] if _stack else -1, 0.0, 0.0, None]
        _stack.append(len(_spans))
        _spans.append(record)
        record[2] = perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            _stack.pop()
        record[4] = _info(name, args, kwargs, result)
        return result

    return wrapper


def _counted(name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        _counts[name] = _counts.get(name, 0) + 1
        return func(*args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every public function of each layer wherever it is bound."""
    import extremal2.cli  # noqa: F401  (imports every layer)

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"extremal2.{layer}"]
        for attr in module.__all__:
            func = getattr(module, attr)
            if isinstance(func, types.FunctionType) and func.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[func] = (_counted if name in COUNT_ONLY else _spanned)(name, func)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "extremal2" or mod_name.startswith("extremal2."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])


def main(argv: list[str]) -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    install()
    from extremal2 import cli

    traced_main = _spanned("cli.main", cli.main)
    try:
        return traced_main(argv)
    finally:
        trace = {"spawn": spawn, "spans": _spans, "counts": _counts}
        sys.stderr.write("PERFBENCH_TRACE " + json.dumps(trace) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
