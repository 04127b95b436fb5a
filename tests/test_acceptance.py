"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.  Criterion
8 deliberately pins a discovered defect: the context-set clause of the w3
check is false for the nine palindromic table entries (the degenerate case of
the claim it reproduces), while every other clause and the repaired
decomposition pass; see the w3 report's counterexample payload for the
replayable factors.
"""

import time
from itertools import product

from revpat.engine import (
    Avoidability,
    THREE_AVOIDABLE_SEEDS,
    TWO_AVOIDABLE_SEEDS,
    UNAVOIDABLE_CANONICAL,
    classify,
    prove_k_unavoidable,
    seed_free_patterns,
)
from revpat.matcher import avoids, find_instance
from revpat.patterns import PATTERN_ALPHABET, canonical, sorted_patterns
from revpat.sequences import thue_morse_prefix
from revpat.verify import (
    UPSILON,
    _fixed_point_break,
    bound_factor_length,
    run_checks,
    vf_tm_prefix_covering,
)


def _report(name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_classifier_table():
    t0 = time.perf_counter()
    ok = all(classify(p) is Avoidability.TWO for p in TWO_AVOIDABLE_SEEDS)
    ok &= all(classify(p) is Avoidability.THREE for p in THREE_AVOIDABLE_SEEDS)
    ok &= all(classify(p) is Avoidability.UNAVOIDABLE for p in UNAVOIDABLE_CANONICAL)
    for n in range(5):
        for tup in product(PATTERN_ALPHABET, repeat=n):
            p = "".join(tup)
            want_unavoidable = canonical(p) in UNAVOIDABLE_CANONICAL
            ok &= (classify(p) is Avoidability.UNAVOIDABLE) == want_unavoidable
    _report("criterion 1: classifier table (17 -> 2, 4 -> 3, prefixes -> infinity)",
            ok, time.perf_counter() - t0, 1)


def test_criterion_02_table_reproduction():
    t0 = time.perf_counter()
    expected = {
        0: {""},
        1: {"x"},
        2: {"xx", "xy"},
        3: {"xxy", "xyx", "xyX"},
        4: {"xxyx", "xxyX", "xxyy", "xyxy", "xyxY", "xyXY", "xyyx"},
        5: {"xxyxx", "xxyxy", "xxyXX"},
        6: set(),
    }
    ok = all(seed_free_patterns(n) == frozenset(v) for n, v in expected.items())
    ok &= [len(seed_free_patterns(n)) for n in range(7)] == [1, 1, 2, 3, 7, 3, 0]
    _report("criterion 2: seed-free tables match for lengths 0..6",
            ok, time.perf_counter() - t0, 5)


# longest binary avoider lengths, recorded on the first run and pinned
LONGEST_AVOIDER = {
    "x": 0, "xx": 3, "xy": 1,
    "xxy": 4, "xyx": 4, "xyX": 4,
    "xxyx": 9, "xxyX": 9, "xxyy": 11, "xyxy": 18, "xyxY": 13, "xyXY": 10,
    "xyyx": 10,
    "xxyxx": 18, "xxyxy": 38, "xxyXX": 18,
}


def test_criterion_03_two_unavoidability_certificates():
    t0 = time.perf_counter()
    ok = True
    for n in range(6):
        for p in sorted_patterns(seed_free_patterns(n)):
            if not p:
                continue
            r = prove_k_unavoidable(p, 2, 400)
            ok &= r.terminated
            ok &= r.longest_word_length == LONGEST_AVOIDER[p]
            ok &= avoids(r.longest_word, p)
    _report("criterion 3: every seed-free pattern is certified 2-unavoidable "
            "(longest avoiders pinned)", ok, time.perf_counter() - t0, 120)


def test_criterion_04_classifier_oracle():
    t0 = time.perf_counter()
    report = run_checks(only="classifier-oracle")[0]
    ok = report.passed and report.searched_bound["patterns_checked"] == 340
    _report("criterion 4: classifier vs search oracle on all 340 patterns",
            ok, time.perf_counter() - t0, 600)


def test_criterion_05_alternating_equivalence():
    t0 = time.perf_counter()
    report = run_checks(only="alternating")[0]
    ok = report.passed and report.searched_bound["patterns_checked"] == 336
    _report("criterion 5: bipartite pattern graph <=> instance in 0101...",
            ok, time.perf_counter() - t0, 60)


def test_criterion_06_square_limited_generator():
    t0 = time.perf_counter()
    report = run_checks(only="square-limited", params={"n": 2000})[0]
    _report("criterion 6: square inventory of the 2000-prefix is {00, 11, 0101}",
            report.passed, time.perf_counter() - t0, 60)


def test_criterion_07_ternary_constructions():
    t0 = time.perf_counter()
    g_report = run_checks(only="g-avoidance", params={"n": 400})[0]
    f_report = run_checks(only="square-limited-xyxyX", params={"n": 400})[0]
    _report("criterion 7: g avoids xyxY/xyXY with structure; square-limited "
            "word avoids xyxyX", g_report.passed and f_report.passed,
            time.perf_counter() - t0, 120)


def test_criterion_08_morphic_image_searches():
    t0 = time.perf_counter()
    w1 = run_checks(only="w1")[0]
    w2 = run_checks(only="w2")[0]
    w3 = run_checks(only="w3")[0]
    w3_fix = run_checks(only="w3-contexts-repaired")[0]
    w4 = run_checks(only="w4")[0]

    ok = w1.passed and w2.passed and w4.passed
    # w3: the context-set clause is false in the source material for exactly
    # the palindromic table entries; pin that discovered state, require every
    # other clause green and the repaired decomposition green
    clause_results = w3.searched_bound["clause_results"]
    ok &= clause_results == {"reversible": True, "contexts": False,
                             "instances": True, "length-9": True,
                             "completions": True}
    palindromes = {y for y in UPSILON - {"0", "1", "00"} if y == y[::-1]}
    ok &= set(w3.counterexample["details"]["contexts"]) == palindromes
    ok &= w3_fix.passed
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion 8: w1/w2/w4 searches pass; w3 passes 4 of 5 "
          f"clauses, its context-set clause fails on the {len(palindromes)} "
          f"palindromic table entries (documented upstream defect) and the "
          f"repaired decomposition passes ({elapsed:.2f}s, budget 300s)")
    assert ok
    assert elapsed < 300


def test_criterion_09_arithmetic_anchors():
    t0 = time.perf_counter()
    ok = bound_factor_length(7, 11) < 7
    ok &= bound_factor_length(30, 11) == 10
    covering = vf_tm_prefix_covering(max_exp=6)
    ok &= covering.passed and covering.searched_bound["host_prefix"] == 1792
    ok &= _fixed_point_break(512) is None
    _report("criterion 9: factor-length bounds, prefix covering, and "
            "desubstitution of odd factors", ok, time.perf_counter() - t0, 60)


def test_criterion_10_pigeonhole():
    t0 = time.perf_counter()
    report = run_checks(only="pigeonhole", params={"k": 2})[0]
    ok = report.passed and report.searched_bound["words_checked"] == 32
    ok &= avoids("0011", "xyx")  # the bound 2k+1 is tight
    ok &= find_instance(thue_morse_prefix(5), "xyx") is not None
    _report("criterion 10: all 32 length-5 binary words contain xyx and xyX; "
            "0011 shows length 4 does not suffice", ok, time.perf_counter() - t0, 1)
