"""Rewrite the pins in ``pins/`` from the current code.

    python3 perfbench/capture_pins.py

Run it only on a commit whose outputs are known good: every later benchmark
run counts an output that differs from these pins as failed.  ``search``
pins the witness of every orbit member of every two-avoidable seed, so any
``--seed`` finds its draw pinned.  Prover node counts are pinned too; a
change in them is reported, not failed.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from revpat import (TWO_AVOIDABLE_SEEDS, avoids, equivalence_class,  # noqa: E402
                    prove_k_unavoidable, run_checks, sorted_patterns)


TRACER = spans.Tracer()


def traced_nodes(fn):
    """Run fn; returns (its result, prover nodes visited meanwhile)."""
    first = len(TRACER.spans)
    result = fn()
    nodes = sum(TRACER.attrs[i]["nodes"] for i in range(first, len(TRACER.spans))
                if TRACER.spans[i][0].startswith("engine.prove."))
    return result, nodes


def capture_oracle() -> dict:
    [report], nodes = traced_nodes(
        lambda: run_checks(only="classifier-oracle", params=workloads.ORACLE_PARAMS))
    payload = workloads.report_payload(report)
    pin = {"check_id": payload["check_id"], "passed": payload["passed"],
           "searched_bound": {k: payload["searched_bound"][k]
                              for k in ("patterns_checked", "classes_searched")}}
    return {"outputs": {"classifier-oracle": pin}, "prove_nodes": nodes}


def capture_registry() -> dict:
    def run_all():
        return {cid: workloads.report_payload(run_checks(only=cid)[0])
                for cid in workloads.registry_checks()}

    outputs, nodes = traced_nodes(run_all)
    return {"outputs": outputs, "prove_nodes": nodes}


def capture_search() -> dict:
    outputs = {}
    for seed in sorted_patterns(TWO_AVOIDABLE_SEEDS):
        for p in sorted_patterns(equivalence_class(seed)):
            t0 = time.perf_counter()
            r = prove_k_unavoidable(p, workloads.SEARCH_ALPHABET, workloads.SEARCH_LENGTH)
            if r.terminated or not avoids(r.longest_word, p):
                raise RuntimeError(f"no re-validated witness for {p}")
            outputs[p] = {"witness": r.longest_word, "nodes": r.nodes_visited}
            print(f"  {seed:8} {p:8} {r.nodes_visited:7} nodes "
                  f"{time.perf_counter() - t0:6.2f}s", file=sys.stderr)
    return {"outputs": outputs}


def main() -> None:
    spans.install(TRACER)
    os.makedirs(workloads.PIN_DIR, exist_ok=True)
    for name, capture in (("oracle", capture_oracle), ("registry", capture_registry),
                          ("search", capture_search)):
        pins = capture()
        with open(os.path.join(workloads.PIN_DIR, name + ".json"), "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(pins['outputs'])} outputs pinned", file=sys.stderr)


if __name__ == "__main__":
    main()
