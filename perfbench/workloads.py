"""The benchmark's three workloads and the pins their outputs are checked against.

* ``oracle``   -- the classifier-vs-search oracle at ``avoider_len=80``: 340
  patterns, 35 classes, 70 prover searches, dominated by the ``xxyx``
  ternary search.  Fixed by the paper; the seed is ignored.
* ``search``   -- the ``revpat search`` path for each of the 17 two-avoidable
  seeds: ``prove_k_unavoidable(p, 2, 200)`` and then ``avoids(witness, p)``.
  The seed draws one orbit member per class (seed 0: the canonical seed).
* ``registry`` -- every registry check except ``classifier-oracle``, in
  registry order at default parameters.  Fixed; the seed is ignored.

Each workload yields outputs; an output fails when it raises or differs from
its pin.  Pins live in ``pins/`` and were captured by ``capture_pins.py``.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("oracle", "search", "registry")

ORACLE_PARAMS = {"avoider_len": 80}
SEARCH_ALPHABET = 2
SEARCH_LENGTH = 200

PIN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins")


def load_pins(workload: str) -> dict:
    with open(os.path.join(PIN_DIR, workload + ".json")) as fh:
        return json.load(fh)


def search_patterns(seed: int) -> list[str]:
    """One orbit member per two-avoidable seed class, drawn from ``seed``."""
    from revpat import TWO_AVOIDABLE_SEEDS, equivalence_class, sorted_patterns

    classes = sorted_patterns(TWO_AVOIDABLE_SEEDS)
    if seed == 0:
        return classes
    rng = random.Random(seed)
    return [rng.choice(sorted_patterns(equivalence_class(c))) for c in classes]


def registry_checks() -> list[str]:
    from revpat import CHECKS

    return [cid for cid in CHECKS if cid != "classifier-oracle"]


def make_inputs(workload: str, seed: int) -> list[str]:
    """The workload's inputs: check ids, or patterns for ``search``."""
    if workload == "oracle":
        return ["classifier-oracle"]
    if workload == "registry":
        return registry_checks()
    if workload == "search":
        return search_patterns(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def mismatch(pinned, got, path: str = "") -> str | None:
    """First place where ``got`` differs from ``pinned``, or None.

    Every pinned dict key must be present and equal, recursively; keys the pin
    does not name are allowed, so reports may grow fields.
    """
    if isinstance(pinned, dict):
        if not isinstance(got, dict):
            return f"{path or '.'}: expected an object, got {got!r}"
        for key, value in pinned.items():
            if key not in got:
                return f"{path}.{key}: missing"
            found = mismatch(value, got[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if pinned != got:
        return f"{path or '.'}: expected {pinned!r}, got {got!r}"
    return None


def report_payload(report) -> dict:
    """A report as plain JSON values, without its timing."""
    payload = json.loads(json.dumps(report.as_dict()))
    payload.pop("elapsed", None)
    return payload


def check_report(pin: dict, report) -> str | None:
    return mismatch(pin, report_payload(report))


def check_search(pin: dict, pattern: str, report, avoided: bool) -> str | None:
    """A search output: a witness of the pinned word that the matcher accepts."""
    if report.terminated:
        return f"{pattern}: tree exhausted at depth {report.longest_word_length}"
    if not avoided:
        return f"{pattern}: the matcher finds an instance in the witness"
    if report.longest_word != pin["witness"]:
        return f"{pattern}: witness differs from the pin"
    return None


def run(workload: str, inputs: list[str], pins: dict, tracer=None):
    """Run one pass; returns (failures, elapsed per check id, nodes per pattern).

    ``tracer`` adds one root span per output around the calls made here.
    Functions are looked up on the revpat modules at call time, so wrappers
    installed by ``spans.install`` are the ones called.
    """
    from revpat import engine, matcher, verify

    failures: list[str] = []
    elapsed: dict[str, float] = {}
    nodes: dict[str, int] = {}
    for item in inputs:
        if tracer:
            idx = tracer.open(("search." if workload == "search" else "verify.") + item)
        try:
            if workload == "search":
                report = engine.prove_k_unavoidable(item, SEARCH_ALPHABET, SEARCH_LENGTH)
                avoided = matcher.avoids(report.longest_word, item)
                nodes[item] = report.nodes_visited
                problem = check_search(pins[item], item, report, avoided)
            else:
                params = ORACLE_PARAMS if workload == "oracle" else None
                [report] = verify.run_checks(only=item, params=params)
                elapsed[item] = report.elapsed
                problem = check_report(pins[item], report)
        except Exception as exc:  # an output that raised is a failed output
            problem = f"{item}: raised {type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(idx)
        if problem is not None:
            failures.append(problem)
    return failures, elapsed, nodes
