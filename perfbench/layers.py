"""Per-layer metrics from the spans that ``traced_cli.py`` writes.

A span is ``[name, parent, start, end, info]`` with ``name`` of the form
``<layer>.<function>`` and ``parent`` the index of the enclosing span (-1
for the root ``cli.main``).  A layer's self time is the sum over its spans
of the span's duration minus the part of it that its child spans cover; a
layer's busy time is the duration of its outermost spans (those whose
parent belongs to another layer), and its calls are the number of those.
"""

from __future__ import annotations

from collections import defaultdict

from traced_cli import LAYERS

LAYER_NAMES = ("cli", *LAYERS)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.startup_s", "s"), ("cli.self_s", "s"), ("cli.exit_s", "s"), ("cli.out_bytes", "bytes"),
    ("exactq.calls", "count"), ("exactq.terms", "count"), ("exactq.busy_s", "s"),
    ("exactq.self_s", "s"),
    ("charser.expand_calls", "count"), ("charser.order_sum", "count"),
    ("charser.self_s", "s"), ("charser.max_coeff_bits", "bits"),
    ("classify.surveys", "count"), ("classify.candidates", "count"),
    ("classify.expansions", "count"), ("classify.survivors", "count"),
    ("classify.survivor_ratio", "ratio"), ("classify.self_s", "s"),
    ("chimat.steps", "count"), ("chimat.busy_s", "s"), ("chimat.self_s", "s"),
    ("chimat.max_entry_bits", "bits"),
    ("bounds.calls", "count"), ("bounds.busy_s", "s"), ("bounds.self_s", "s"),
    ("reedmuller.membership_tests", "count"), ("reedmuller.lemma5_calls", "count"),
    ("reedmuller.busy_s", "s"), ("reedmuller.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.accounted_share", "ratio"), ("trace.overhead_s", "s"),
)


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(i)
    out = []
    for i, (_name, _parent, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[k][2], spans[k][3]) for k in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, end - start - covered))
    return out


def request_layers(trace: dict, wall_s: float, out_bytes: int) -> dict[str, float]:
    """Additive layer figures of one traced request, plus its funnel counts."""
    spans = trace["spans"]
    layer_of = [span[0].split(".", 1)[0] for span in spans]
    m: dict[str, float] = defaultdict(float)
    for i, (name, parent, start, end, info) in enumerate(spans):
        layer = layer_of[i]
        if parent < 0 or layer_of[parent] != layer:
            m[f"{layer}.calls"] += 1
            m[f"{layer}.busy_s"] += end - start
            if layer == "exactq" and info is not None:
                m["exactq.terms"] += info
        if name == "charser.expand" and info is not None:
            m["charser.expand_calls"] += 1
            m["charser.order_sum"] += info[0]
            m["charser.max_coeff_bits"] = max(m["charser.max_coeff_bits"], info[1])
        elif name == "classify.survey" and info is not None:
            m["classify.surveys"] += 1
            m["classify.candidates"] += info[0]
            m["classify.expansions"] += info[1]
            m["classify.survivors"] += info[2]
        elif name in ("chimat.f_plus", "chimat.f_minus"):
            m["chimat.steps"] += 1
            if info is not None:
                m["chimat.max_entry_bits"] = max(m["chimat.max_entry_bits"], info)
        elif name == "reedmuller.lemma5_check":
            m["reedmuller.lemma5_calls"] += 1
    for i, self_s in enumerate(self_times(spans)):
        m[f"{layer_of[i]}.self_s"] += self_s
    counts = trace["counts"]
    m["reedmuller.membership_tests"] = (counts.get("reedmuller.rm46_member", 0)
                                        + counts.get("reedmuller.rm46_member_dual", 0))
    root = next(span for span in spans if span[1] < 0)
    m["cli.startup_s"] = root[2] - trace["spawn"]
    m["cli.exit_s"] = trace["spawn"] + wall_s - root[3]
    m["cli.out_bytes"] = out_bytes
    m["trace.wall_s"] = wall_s
    return m


_MAXIMA = ("charser.max_coeff_bits", "chimat.max_entry_bits")
_PER_SURVEY = ("classify.candidates", "classify.expansions", "classify.survivors")


def run_layers(per_request: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of a run.

    Counts and times are means per traced request, except the funnel counts
    (per ``survey`` call) and the bit sizes (maxima over the run).
    """
    n = len(per_request)
    total: dict[str, float] = defaultdict(float)
    for m in per_request:
        for key, value in m.items():
            total[key] = max(total[key], value) if key in _MAXIMA else total[key] + value
    surveys = total["classify.surveys"]
    out = {}
    for name, _unit in PER_LAYER:
        if name in _MAXIMA:
            out[name] = total[name]
        elif name in _PER_SURVEY:
            out[name] = total[name] / surveys if surveys else 0.0
        else:
            out[name] = total[name] / n
    expansions = total["classify.expansions"]
    out["classify.survivor_ratio"] = total["classify.survivors"] / expansions if expansions else 0.0
    accounted = total["cli.startup_s"] + sum(total[f"{layer}.self_s"] for layer in LAYER_NAMES)
    out["trace.accounted_share"] = accounted / total["trace.wall_s"]
    out["trace.overhead_s"] = overhead_s
    return out
