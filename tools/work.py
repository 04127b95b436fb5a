"""Deterministic work counts for each benchmark workload, to sit beside its
wall times.

    python3 tools/work.py [--seed N] [oracle|search|registry ...]

Runs each named workload (all three by default) once, cold, in a fresh
interpreter, through ``perfbench/workloads.py``, which it reads without
writing to, as ``tests/test_pins.py`` does; every output is still checked
against its pin.  For each workload it prints one line per count:

* ``_match_at``, ``str.find``, ``bytes.find``, ``str.startswith``,
  ``int.from_bytes`` and ``pattern_key``: calls made from Python code, as
  ``cProfile`` counts them (a builtin that C code calls, through ``map`` or
  ``sorted`` for instance, is not counted; a Python function always is);
* ``completion_tables``: left-completion tables built, counted at the
  builder under either name it has had (``_completion_table``, and
  ``_image_suffix_lengths`` before one table served every bound), so the
  count compares against older trees too;
* ``prover_calls``, ``prover_nodes`` and ``settled_nodes``: the searches of
  ``prove_k_unavoidable`` and their ``nodes_visited`` and ``settled`` totals;
* ``generator_letters``: the letters of the square-limited word grown;
* ``failed_outputs``: outputs that raised or missed their pin (0 when sound).

The counts depend on the code and the inputs alone, not on the machine, so
two trees' counts can be compared across sessions.  The script imports the
``src/`` of the tree it sits in.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from multiprocessing import get_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

# count name -> the cProfile function names it sums
PROFILED = {
    "_match_at": ("_match_at",),
    "str.find": ("<method 'find' of 'str' objects>",),
    "bytes.find": ("<method 'find' of 'bytes' objects>",),
    "str.startswith": ("<method 'startswith' of 'str' objects>",),
    "int.from_bytes": ("<built-in method from_bytes>",),
    "pattern_key": ("pattern_key",),
    "completion_tables": ("_completion_table", "_image_suffix_lengths"),
}


def count(workload: str, seed: int) -> dict[str, int]:
    """Run the workload once in this process and return its counts."""
    from revpat import engine, sequences

    original = engine.prove_k_unavoidable
    searches = []

    def prove(*args, **kwargs):
        report = original(*args, **kwargs)
        searches.append(report)
        return report

    # rebind the prover wherever revpat holds it, as perfbench's tracer does
    for module in [m for name, m in sys.modules.items() if name.startswith("revpat")]:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, prove)

    inputs = workloads.make_inputs(workload, seed)
    pins = workloads.load_pins(workload)["outputs"]
    profile = cProfile.Profile()
    failures, _, _ = profile.runcall(workloads.run, workload, inputs, pins)
    calls: dict[str, int] = {}
    for (_, _, function), (_, total, _, _, _) in pstats.Stats(profile).stats.items():
        calls[function] = calls.get(function, 0) + total
    counts = {name: sum(calls.get(f, 0) for f in functions) for name, functions in PROFILED.items()}
    counts.update({
        "prover_calls": len(searches),
        "prover_nodes": sum(r.nodes_visited for r in searches),
        "settled_nodes": sum(r.settled for r in searches),
        "generator_letters": len(sequences._sl_word),
        "failed_outputs": len(failures),
    })
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workload", nargs="*", help="oracle, search or registry (default: all three)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workload) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of {', '.join(workloads.WORKLOADS)}")
    failed = 0
    for workload in args.workload or workloads.WORKLOADS:
        # a fresh interpreter per workload, so every cache starts cold
        with get_context("spawn").Pool(1) as pool:
            counts = pool.apply(count, (workload, args.seed))
        for name, value in counts.items():
            print(f"{workload}\t{name}\t{value}", flush=True)
        failed += counts["failed_outputs"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
