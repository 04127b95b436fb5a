"""Run the verification registry and read its reports.

Each check re-runs one finite search with explicit bounds and emits a
machine-readable report.  Note that the w3 check intentionally FAILS: its
context-set clause reproduces a claim from the source material that is false
for the nine palindromic table entries, and the counterexample payload
carries the factors that refute it.  The companion check
w3-contexts-repaired verifies the corrected decomposition.
"""

import json

from revpat import run_checks

quick = [
    "pigeonhole", "alternating", "w1", "w2", "w3", "w3-contexts-repaired",
    "w4", "square-limited", "g-avoidance", "tm-prefix-covering",
]

for check_id in quick:
    report = run_checks(only=check_id)[0]
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.check_id:22s} ({report.elapsed:6.2f}s)  {report.claim[:68]}...")

print()
oracle = run_checks(only="classifier-oracle")[0]
bound = oracle.searched_bound
print(f"{'PASS' if oracle.passed else 'FAIL'} classifier-oracle: {bound['patterns_checked']} "
      f"patterns, {bound['classes_searched']} classes, {bound['prove_nodes']} prover nodes.")
print("Each witness names the search that supplied it; xxyx over three letters")
print(f"borrows a square-free word from its factor {bound['witness_factors']['xxyx']}.")

print()
print("A failing report carries a replayable counterexample:")
report = run_checks(only="w3")[0]
print(json.dumps({"check_id": report.check_id,
                  "failed_clauses": report.counterexample["clauses"],
                  "context_set_violations":
                      sorted(report.counterexample["details"]["contexts"])},
                 indent=2))
