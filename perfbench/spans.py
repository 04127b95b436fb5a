"""In-memory spans around calls into revpat's public functions.

``install`` replaces each traced function in every revpat namespace that
binds it (``verify`` and ``engine`` import many names with ``from ... import``,
so patching only the defining module would miss those calls).  Each call
records a span: name, start, end and the index of the enclosing span.  A
few spans also carry counts (prover nodes, matcher letters, ...), taken
from the call's arguments and result so the program itself is untouched.

``layer_metrics`` turns the spans into the per-layer metrics that
``BENCHMARK.json`` lists.  A span's self time is its duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

REVPAT_MODULES = ("revpat", "revpat.patterns", "revpat.matcher", "revpat.sequences",
                  "revpat.engine", "revpat.verify", "revpat.cli")

SHAPES = ("x_only", "x_block_then_y", "y_then_x_block", "x_block_y_x_block", "two_y")


def prover_shape(p: str) -> str:
    """Which of the prover's five end-checker kinds a pattern compiles to.

    Read from the pattern text alone: make the more frequent variable x, then
    look at where the y slots sit.
    """
    a = sum(1 for c in p if c in "xX")
    b = len(p) - a
    if b > a:
        p = p.translate(str.maketrans("xXyY", "yYxX"))
        a, b = b, a
    if b == 0:
        return "x_only"
    if b >= 2:
        return "two_y"
    y_at = p.index("y") if "y" in p else p.index("Y")
    if y_at == len(p) - 1:
        return "x_block_then_y"
    if y_at == 0:
        return "y_then_x_block"
    return "x_block_y_x_block"


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "attrs": {str(k): v for k, v in self.attrs.items()}}, fh)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _wrap(tracer: Tracer, fn, name_of, record):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_of(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if record is not None:
            tracer.attrs[idx] = record(result, *args, **kwargs)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _targets():
    """(defining module, attribute, span namer, count recorder) per traced name."""
    from revpat.sequences import DEFAULT_LOOKAHEAD

    high_water: dict[int, int] = {}

    def fixed(name):
        return lambda *a, **k: name

    def prove_name(p, *a, **k):
        return "engine.prove." + prover_shape(p)

    def prove_record(r, *a, **k):
        return {"nodes": r.nodes_visited, "terminated": r.terminated}

    def matcher_name(w, p, *a, **k):
        one = all(c in "xX" for c in p) or all(c in "yY" for c in p)
        return "matcher.one_var" if one else "matcher.two_var"

    def find_record(r, w, *a, **k):
        return {"letters": len(w), "hit": r is not None}

    def avoids_record(r, w, *a, **k):
        return {"letters": len(w), "hit": not r}

    def square_limited_record(r, n, lookahead=DEFAULT_LOOKAHEAD, *a, **k):
        # the generator keeps one growing word per lookahead and extends it to
        # n + lookahead letters; count the letters this call added
        before = high_water.get(lookahead, 0)
        high_water[lookahead] = max(before, n + lookahead) if n else before
        return {"letters": high_water[lookahead] - before}

    return [
        ("revpat.engine", "prove_k_unavoidable", prove_name, prove_record),
        ("revpat.engine", "classify", fixed("engine.classify"), None),
        ("revpat.engine", "pattern_graph", fixed("engine.graph"), None),
        ("revpat.engine", "bipartite_check", fixed("engine.graph"), None),
        ("revpat.engine", "instance_in_alternating", fixed("engine.graph"), None),
        ("revpat.matcher", "find_instance", matcher_name, find_record),
        ("revpat.matcher", "find_instance_bounded", matcher_name, find_record),
        ("revpat.matcher", "avoids", matcher_name, avoids_record),
        ("revpat.sequences", "square_limited_prefix", fixed("sequences.square_limited"),
         square_limited_record),
        ("revpat.sequences", "apply_binary_morphism", fixed("sequences.morphism"), None),
        ("revpat.sequences", "factor_set", fixed("sequences.factor_set"), None),
        ("revpat.sequences", "collect_squares", fixed("sequences.collect_squares"), None),
        ("revpat.sequences", "contains_overlap", fixed("sequences.contains_overlap"), None),
        ("revpat.sequences", "left_completions", fixed("sequences.left_completions"), None),
        ("revpat.patterns", "canonical", fixed("patterns.canonical"), None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever revpat binds it."""
    modules = [importlib.import_module(m) for m in REVPAT_MODULES]
    for home, attr, name_of, record in _targets():
        original = getattr(importlib.import_module(home), attr)
        wrapper = _wrap(tracer, original, name_of, record)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def layer_metrics(spans, attrs) -> dict[str, float]:
    """Per-layer counts and self times, keyed by the per_layer metric names.

    ``calls`` counts outermost calls into a layer (a span whose parent has the
    same name is the layer calling itself); ``busy_s`` sums self time.
    """
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for idx, (name, start, end, parent) in enumerate(spans):
        busy[name] += own[idx]
        if parent < 0 or spans[parent][0] != name:
            calls[name] += 1

    def group(prefix):
        names = [n for n in busy if n == prefix or n.startswith(prefix + ".")]
        return sum(busy[n] for n in names), sum(calls[n] for n in names)

    m: dict[str, float] = {}

    prove = [(i, own[i], attrs.get(i, {})) for i, s in enumerate(spans)
             if s[0].startswith("engine.prove.")]
    prove_busy, prove_calls = group("engine.prove")
    nodes = sum(a.get("nodes", 0) for _, _, a in prove)
    m["engine.prove.calls"] = prove_calls
    m["engine.prove.nodes"] = nodes
    m["engine.prove.busy_s"] = prove_busy
    m["engine.prove.nodes_per_s"] = nodes / prove_busy if prove_busy else 0.0
    m["engine.prove.certificates"] = sum(1 for _, _, a in prove if a.get("terminated"))
    m["engine.prove.witnesses"] = sum(1 for _, _, a in prove if a and not a["terminated"])
    m["engine.prove.max_call_nodes"] = max((a.get("nodes", 0) for _, _, a in prove), default=0)
    m["engine.prove.max_call_s"] = max((t for _, t, _ in prove), default=0.0)
    for shape in SHAPES:
        name = "engine.prove." + shape
        m[name + ".nodes"] = sum(a.get("nodes", 0) for i, _, a in prove if spans[i][0] == name)
        m[name + ".busy_s"] = busy.get(name, 0.0)

    match = [attrs.get(i, {}) for i, s in enumerate(spans) if s[0].startswith("matcher.")]
    match_busy, match_calls = group("matcher")
    m["matcher.calls"] = match_calls
    m["matcher.busy_s"] = match_busy
    m["matcher.us_per_call"] = 1e6 * match_busy / match_calls if match_calls else 0.0
    m["matcher.hit_ratio"] = sum(1 for a in match if a.get("hit")) / len(match) if match else 0.0
    m["matcher.letters"] = sum(a.get("letters", 0) for a in match)
    m["matcher.one_var.busy_s"] = busy.get("matcher.one_var", 0.0)
    m["matcher.two_var.busy_s"] = busy.get("matcher.two_var", 0.0)

    sl_letters = sum(attrs.get(i, {}).get("letters", 0) for i, s in enumerate(spans)
                     if s[0] == "sequences.square_limited")
    sl_busy = busy.get("sequences.square_limited", 0.0)
    m["sequences.square_limited.letters"] = sl_letters
    m["sequences.square_limited.busy_s"] = sl_busy
    m["sequences.square_limited.letters_per_s"] = sl_letters / sl_busy if sl_busy else 0.0
    for layer in ("morphism", "factor_set", "left_completions"):
        m[f"sequences.{layer}.calls"] = calls.get("sequences." + layer, 0)
        m[f"sequences.{layer}.busy_s"] = busy.get("sequences." + layer, 0.0)
    for layer in ("collect_squares", "contains_overlap"):
        m[f"sequences.{layer}.busy_s"] = busy.get("sequences." + layer, 0.0)

    for layer in ("engine.classify", "engine.graph", "patterns.canonical"):
        m[layer + ".calls"] = calls.get(layer, 0)
        m[layer + ".busy_s"] = busy.get(layer, 0.0)
    return m


def self_time_shares(spans) -> dict[str, float]:
    """Self time per top-level layer (the text before the first dot)."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, self_times(spans)):
        out[name.split(".", 1)[0]] += t
    return dict(out)
