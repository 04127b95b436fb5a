"""Every report of a fixed prover sweep and of the verify registry, one line
each, and a digest of each of the two sets.

    python3 tools/sweep.py

The sweep is 834 searches: every pattern of length 1-4, in ``product`` order
over ``PATTERN_ALPHABET``, then every canonical length-5 class, sorted, each
at (alphabet 2, depth 60) and (alphabet 3, depth 25); then ``xxyx`` at
(3, 80), and at (3, 40) with a 5,000-node budget.  The registry is
``run_checks()`` at its defaults.  A report's payload is the JSON of its
``as_dict()`` with sorted keys and ``elapsed`` dropped, and a set's digest is
the first 16 hex digits of the sha256 of its payloads, concatenated in order.

``tests/test_sweep.py`` pins both digests and the sweep's node total.  When
one of them changes, run this script in both trees and diff the outputs: a
search line holds its whole report, and a check line the sha256 of its
payload, so the diff names each report that moved.  The script imports the
``src/`` of the tree it sits in.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from itertools import product

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from revpat import PATTERN_ALPHABET, canonical, prove_k_unavoidable, run_checks  # noqa: E402


def searches() -> list[tuple[str, int, int, int | None]]:
    """(pattern, alphabet, depth, node budget) of every search in the sweep."""
    short = ["".join(t) for n in range(1, 5) for t in product(PATTERN_ALPHABET, repeat=n)]
    classes = sorted({canonical("".join(t)) for t in product(PATTERN_ALPHABET, repeat=5)})
    return [(p, k, depth, None) for p in short + classes for k, depth in ((2, 60), (3, 25))] + [
        ("xxyx", 3, 80, None), ("xxyx", 3, 40, 5000)]


def reports() -> tuple[list, list]:
    """The sweep's reports, in ``searches()`` order, and the registry's."""
    return [prove_k_unavoidable(*search) for search in searches()], run_checks()


def payload(report) -> str:
    fields = report.as_dict()
    fields.pop("elapsed", None)
    return json.dumps(fields, sort_keys=True)


def digest(payloads: list[str]) -> str:
    return hashlib.sha256("".join(payloads).encode()).hexdigest()[:16]


def main() -> None:
    sweep, registry = reports()
    for (_, _, _, budget), report in zip(searches(), sweep):
        print("prove", budget, *report.as_dict().values(), sep="\t")
    for report in registry:
        print("verify", report.check_id, report.passed,
              hashlib.sha256(payload(report).encode()).hexdigest()[:16], sep="\t")
    print(f"prover {digest([payload(r) for r in sweep])}: {len(sweep)} searches, "
          f"{sum(r.nodes_visited for r in sweep)} nodes")
    print(f"verify {digest([payload(r) for r in registry])}: {len(registry)} reports")


if __name__ == "__main__":
    main()
