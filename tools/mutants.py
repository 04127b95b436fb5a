"""Mutation check for the slot kernel's pruning rules, the square walk it
shares with the square-limited generator, the square that begins a yy- or
YY-opened y-run, the left-completion table's factor bound, least-length
filter and range lookup, the period scans' shift, the prover's end check,
dead-suffix table, frame stack and report exits, the oracle's class
verdict, the registry's parameter ranges, Thue-Morse clauses, derived
windows and the helper that picks the largest, the context-set walk the two
f3 checks share, reversal bound, table of morphic images and sampled caps,
the square-limited generator's floor, orientation and square inventory, the
table of pattern symmetries and the pattern graph's edge order and
loop-or-triangle test.

    python3 tools/mutants.py

Each row of ``MUTANTS`` names a file under ``src/``, an exact piece of its
text, the text that replaces it, why the result is wrong, and the test id
that kills it (None for a row with no recorded killer).  For each row the
script copies ``src/``, ``tests/``, ``perfbench/`` (whose pins
``tests/test_pins.py`` reads) and ``pyproject.toml`` into a temporary
directory, applies that one replacement, and runs the row's killer alone,

    python3 -m pytest -x -q <killer>

there.  Only when the killer passes (or the row records none) does the row
run the full set,

    python3 -m pytest -x -q tests/test_matcher.py tests/test_engine.py \
        tests/test_sequences.py tests/test_verify.py tests/test_patterns.py \
        tests/test_pins.py

and print the test that fails there as its new killer.  A mutant is
*killed* when a test fails, or when a run outlasts ``TIMEOUT_FACTOR``
times what the unmutated tree took for the same tests (a broken jump can
loop forever): for the killer, pytest's start-up plus that test's own
time, both read off the unmutated run; for the full set, the whole
unmutated run.  It *survived* when every test passes.  The unmutated tree
is run first, timed per test, and must pass.  A row whose old text no
longer occurs exactly once, or whose killer is not a test of that set, is
*stale*: the code or the test has moved, and the row must be re-pointed.

Prints one line per row and a kill count; exits 1 when a mutant survived or
a row is stale.  Needs pytest and hypothesis, as the test suite does.  The
74 rows took 2 min 17 s on a 2-core x86-64 machine with Python 3.11, the
unmutated run included; running the full set for each of the first 70 rows
took 12 min 52 s.
Every row fails its recorded killer: row 3, whose broken jump loops, fails
the first kernel test in ``tests/test_matcher.py``, and row 17, whose
square jump loops, the second; both tests' words give up after 100 calls
to ``find``, well before the timeout.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = ["tests/test_matcher.py", "tests/test_engine.py", "tests/test_sequences.py",
         "tests/test_verify.py", "tests/test_patterns.py", "tests/test_pins.py"]
TIMEOUT_FACTOR = 3

M = "revpat/matcher.py"
E = "revpat/engine.py"
P = "revpat/patterns.py"
S = "revpat/sequences.py"
V = "revpat/verify.py"

MUTANTS = [
    # the recurrence jump
    (M, "lx -= (reach - f) // (1 + rev)", "lx -= reach - f",
     "jump without the reversed shift: a reversed key slot's head moves |X'| - |X| "
     "further, so the forward step overshoots",
     "tests/test_matcher.py::test_find_instance_examples"),
    (M, "if f > reach:", "if reach > f:",
     "jump trigger reversed: jumps when the hit is reachable",
     "tests/test_matcher.py::test_square_y_kernel_stops_where_no_square_begins_the_y_run"),
    (M, "if f > reach:", "if f >= reach:",
     "jump trigger < -> <=: a hit exactly at the reach is skipped",
     "tests/test_matcher.py::test_key_hit_at_the_reach_needs_no_jump"),
    (M, "f = w.find(xr if rev else xf, start + lx + ky)",
     "f = w.find(xr if rev else xf, start + lx + ky + 1)",
     "key searched from one past its least offset: a hit there is missed",
     "tests/test_matcher.py::test_key_hit_at_the_reach_needs_no_jump"),
    (M, 'key = (0, p[1] == "X")', 'key = (0, p[1] == "x")',
     "second lead slot keyed in the wrong orientation",
     "tests/test_matcher.py::test_key_hit_at_the_reach_needs_no_jump"),
    (M, 'key = (run_y, run_x[0] == "X")', 'key = (run_y - 1, run_x[0] == "X")',
     "pinned-run key one y slot short: its reach is too small",
     "tests/test_matcher.py::test_key_hit_at_the_reach_needs_no_jump"),
    (M, "                q = f\n", "                q = f + 1\n",
     "pin search starts past the key's hit, which may be the pin itself",
     "tests/test_matcher.py::test_bounded_search_examples"),
    (M, "w[start + 2 * lx:base]", "w[start + lx:base]",
     "lead check reads from the second lead slot, which the key already fixed",
     "tests/test_matcher.py::test_key_hit_at_the_reach_needs_no_jump"),
    # the squares at a start, read for xy.xy-led patterns and the square-limited word
    (M, "            half = g - start\n", "            half = g - start + 1\n",
     "square walk jumps one past the head's next place: a square of that half is missed",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "    half = least\n", "    half = least + 1\n",
     "square walk starts one past its least half-length",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "max(2, floor // max(a, b) + 1)", "max(2, floor // max(a, b) + 2)",
     "least square half one too large: an instance just longer than the floor is missed",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "min(room // 2, lim_x + max_y)", "min(room // 2, lim_x + max_y - 1)",
     "capped square walk stops one half short",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "        if not halves:\n", "        if len(halves) < 2:\n",
     "early None taken when exactly one square starts there",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "lim_x = halves[-1] - 1", "lim_x = halves[-1] - 2",
     "|X| stops two below the largest half: |Y| = 1 on the largest square is missed",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "ly = halves[bisect_left(halves, lx + ly)] - lx", "ly = halves[bisect_left(halves, lx + ly)] - lx + 1",
     "|Y| read off a half one too large",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "ly = halves[bisect_left(halves, lx + ly)] - lx", "ly = halves[bisect_left(halves, lx + ly + 1)] - lx",
     "next half searched past the least |Y| left: the half giving it is skipped",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    # the square that begins a yy- or YY-opened y-run
    (M, "q = base + run_y * (g - base) - 1", "q = base + run_y * (g - base - 1) - 1",
     "square jump one |Y| short: a head that recurs one place on sends the run search "
     "back to the place it left, which loops",
     "tests/test_matcher.py::test_square_y_kernel_stops_where_no_square_begins_the_y_run"),
    (M, "q += run_y - off - 1", "q += run_y - off",
     "alignment rounding one past the next aligned place: the run there is skipped",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "base + lim_y + ly)", "base + lim_y + ly - 1)",
     "square window one letter short: a square of half lim_y is missed",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "w.find(w[base:base + ly], base + ly,", "w.find(w[base:base + ly], base + ly + 1,",
     "square head searched from one past base + ly: the y-run's own square is never a hit",
     "tests/test_matcher.py::test_square_y_kernel_stops_where_no_square_begins_the_y_run"),
    (M, "body[1] == body[0])", 'body[1] in "yY")',
     "square rule enabled for a yY run, whose instances need not begin with a square",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (S, 'frozenset({"00", "11", "0101"})', 'frozenset({"00", "11", "1010"})',
     "square inventory states 1010 for 0101: the generator allows 1010 and forbids 0101",
     "tests/test_sequences.py::test_square_limited_matches_exhaustive_enumeration"),
    (S, "word[:2 * half][::-1] not in", "word[:2 * half] not in",
     "square-limited end test reads the head square unreversed: it excepts 0101 for 1010 "
     "at the start of its newest-first word",
     "tests/test_sequences.py::test_square_limited_matches_exhaustive_enumeration"),
    (S, "_square_halves(word, 0, 1, len(word) // 2)", "_square_halves(word, 0, 2, len(word) // 2)",
     "square-limited end test reads squares from half 2: a square of half 1 outside the "
     "inventory goes unseen",
     "tests/test_sequences.py::test_forbidden_square_end_test_reads_the_allowed_squares"),
    (S, "_sl_word[len(_sl_word) - n:][::-1]", "_sl_word[len(_sl_word) - n:]",
     "square-limited prefix returned newest letter first, as the generator holds it",
     "tests/test_sequences.py::test_square_limited_matches_exhaustive_enumeration"),
    (S, "max(len(_sl_word) - DEFAULT_LOOKAHEAD, 0)", "max(len(_sl_word) - DEFAULT_LOOKAHEAD - 1, 0)",
     "square-limited floor one letter short of the prefix handed out: the last emitted "
     "letter may be revised",
     "tests/test_sequences.py::test_square_limited_prefix_stability_and_restart_equivalence"),
    # the repeat floor
    (M, "found = _match_at(plan, w, start, max_x, max_y, floor)",
     "found = _match_at(plan, w, start, max_x, max_y, floor + 1)",
     "scan floor one too large",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (E, "        if rword.find(rword[:floor], 1) < 0:\n            floor = 0\n", "",
     "prover floor without its find: the parent's floor + 1 is kept even when "
     "that prefix does not recur",
     "tests/test_matcher.py::test_y_led_scans_run_the_kernel_once_per_start[yxYxx]"),
    (M, "if start + floor == n:", "if start + floor + 1 >= n:",
     "scan stops a start too soon",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    # the |Y| pin and its two y-side checks
    (M, "t += w[base:base + low]", "t += w[base:base + low + 1]",
     "pin extended by low + 1 letters",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "mirror and w[q - 1] != w[q + run_len]", "mirror and w[q] != w[q + run_len]",
     "mirror check reads w[q] for w[q - 1]",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    (M, "mirror and w[q - 1] != w[q + run_len]", "mirror and w[q - 1] != w[q + len(t)]",
     "mirror check measured past the extended find string",
     "tests/test_matcher.py::test_matcher_agrees_with_oracle_on_all_short_patterns"),
    # slot offsets
    (M, 'tail.append((cx, cy, "xXyY".index(sym)))',
     'tail.append((cx + (not tail), cy, "xXyY".index(sym)))',
     "first tail slot's cx one too large",
     "tests/test_matcher.py::test_square_y_kernel_stops_where_no_square_begins_the_y_run"),
    (M, "tuple(tail), key,",
     "tuple(tail[:-1] + [(tail[-1][0], tail[-1][1] + 1, tail[-1][2])] if tail else tail), key,",
     "last tail slot's cy one too large",
     "tests/test_matcher.py::test_square_y_kernel_stops_where_no_square_begins_the_y_run"),
    # the prover's stored dead suffixes
    (E, "room = min(len(longest), depth_limit - 1) - n", "room = depth_limit - 1 - n",
     "settling without the len(longest) guard: a settled subtree may hold the word "
     "the full search reports",
     "tests/test_engine.py::test_prove_examples"),
    (E, "key, offset = top.rword[:n - top.reach], top.height - n",
     "key, offset = top.rword[:n - top.reach - 1], top.height - n",
     "dead suffix stored one letter short: a killing instance may start before it",
     "tests/test_engine.py::test_prove_node_counts_are_pinned[xx-3-100]"),
    (E, "parent.reach = min(parent.reach, top.reach)", "pass",
     "a dead child's reach not folded into its parent's: the parent's suffix misses "
     "instances that killed nodes deeper down",
     "tests/test_matcher.py::test_y_led_scans_run_the_kernel_once_per_start[yxYxx]"),
    (E, "parent.height = max(parent.height, top.height)", "pass",
     "a dead child's height not folded into its parent's: the parent's offset is too "
     "small, so a later node is settled although its subtree holds a longer avoider",
     "tests/test_engine.py::test_prove_examples"),
    # the prover's frame stack and its one report
    (E, "iter(letters[:1])", "iter(letters)",
     "the root frame tries every letter: the first letter is no longer fixed to 0",
     "tests/test_engine.py::test_prove_node_counts_are_pinned[xxy-2-30]"),
    (E, "terminated = not frames", "terminated = len(longest) < depth_limit",
     "the budget exit reported as terminated: a search cut short reads as a certificate",
     "tests/test_engine.py::test_node_budget_makes_a_search_inconclusive"),
    (E, "not terminated and len(longest) < depth_limit", "not terminated",
     "the depth exit reported as inconclusive: a witness reads as a spent budget",
     "tests/test_engine.py::test_node_budget_makes_a_search_inconclusive"),
    # the prover's one end-check call per node
    (E, "if found and not per_node:", "if found:",
     "a per-node hit kills the node itself: a word all of whose children contain p "
     "is never counted as an avoider",
     "tests/test_engine.py::test_prover_matches_brute_force_enumeration"),
    # the renamed search's rising cap
    (M, "_match_at(plan, w, start, max_x, cap)", "_match_at(plan, w, start, None, cap)",
     "rising-cap rerun drops p's |Y| bound",
     "tests/test_matcher.py::test_bounded_search_examples"),
    (M, "_match_at(plan, w, start, max_x, cap)", "_match_at(plan, w, start, max_y, cap)",
     "rising-cap rerun caps the renamed |X| with the unswapped variable, p's |X| bound",
     "tests/test_matcher.py::test_bounded_search_examples"),
    # the left-completion table: its factor bound, least-length filter and range lookup
    (S, "min(COMPLETION_FACTOR_BOUND, len(u))", "min(COMPLETION_FACTOR_BOUND, len(u) - 1) or 1",
     "completion table read over factors one letter shorter than u: the images "
     "of |u|-letter factors are missed",
     "tests/test_sequences.py::test_left_completions_match_a_linear_scan[f1]"),
    (S, "if length <= bound:", "if length < bound:",
     "least-length filter made strict: an image whose shortest factor has exactly "
     "L letters is never a completion",
     "tests/test_sequences.py::test_left_completions_match_a_linear_scan[f1]"),
    (S, "reversed_images[i][0].startswith(key)", "reversed_images[i][0].startswith(key[:-1])",
     "range lookup matching one letter short: images ending in u less its first "
     "letter are taken as completions",
     "tests/test_sequences.py::test_left_completion_examples"),
    # the period scans' one integer
    (S, "word >> 8 * period", "word >> 8 * (period - 1)",
     "word shifted one byte short of the period: each scan compares letters one "
     "place too close",
     "tests/test_sequences.py::test_square_limited_square_inventory"),
    # the registry's parameter ranges
    (V, "if not least <= value <= greatest:", "if not least < value <= greatest:",
     "range check made strict: a value at its least bound is refused",
     "tests/test_verify.py::test_tm_prefix_covering_derives_its_host_from_max_exp"),
    # the oracle's class verdict
    (V, "if report.inconclusive or not avoids(", "if not avoids(",
     "a search that spent its budget supplies a witness when its longest word happens "
     "to avoid the class",
     "tests/test_verify.py::test_classifier_oracle_never_takes_an_inconclusive_search"),
    # the Thue-Morse fixed-point clause and the induction built on it
    (V, "thue_morse_prefix((n + 1) // 2)", "thue_morse_prefix(n // 2)",
     "fixed point read from h(t[:floor(n/2)]): an odd host is one letter longer",
     "tests/test_verify.py::test_tm_desubstitution_matches_full_enumeration[1-None]"),
    (V, "None if host == image else min(len(host), len(image))", "None",
     "fixed point compared by zip alone: an image shorter than the host passes",
     "tests/test_verify.py::test_fixed_point_break_reads_a_short_image_as_a_break"),
    (V, "if pair[1] != 2 * pair[0]:", "if pair[1] > 2 * pair[0]:",
     "covering step accepts covering lengths that grow by less than double",
     "tests/test_verify.py::test_a_failing_clause_fails_its_check[tm-prefix-covering:step]"),
    (V, 'for u in ("00", "01", "10", "11")', 'for u in ("01", "10", "11")',
     "covering base forgets 00",
     "tests/test_verify.py::test_a_failing_clause_fails_its_check[tm-prefix-covering:covering]"),
    (V, "_fixed_point_break(big_len)", "_fixed_point_break(big_len // 2)",
     "covering's fixed-point clause checks half its host: the last steps of the "
     "induction rest on an unchecked h(t[:m]) = t[:2m]",
     "tests/test_verify.py::test_a_failing_clause_fails_its_check[tm-prefix-covering:identity]"),
    # the sampled caps, which no lemma derives yet
    (V, "cap = min(len(g) // 4, SQUARE_LIMITED_CAP)", "cap = min(len(g) // 4, 3)",
     "g-avoidance searches |X|, |Y| <= 3 only",
     "tests/test_verify.py::test_sampled_caps_keep_their_defaults"),
    (V, "cap = min(n // 5, SQUARE_LIMITED_CAP)", "cap = min(n // 5, 2)",
     "square-limited-xyxyX searches |X|, |Y| <= 2 only",
     "tests/test_verify.py::test_sampled_caps_keep_their_defaults"),
    # the derived window arithmetic of the morphic-image checks
    (V, "2 * (u_len + 3 * image1_len - 3)", "2 * (u_len + 3 * image1_len - 4)",
     "factor-length bound with - 4 for - 3: every derived window shifts",
     "tests/test_verify.py::test_bound_factor_length_anchors"),
    (S, "return 7 << max(", "return 6 << max(",
     "covering prefixes of 6 * 2**e letters: t[:6] misses the factor 00",
     "tests/test_sequences.py::test_left_completions_match_a_linear_scan[f1]"),
    (V, "return a * max_x + b * max_y", "return a * max_x + b * max_y - 1",
     "instance length one short: the longest capped instance can fall outside the window",
     "tests/test_verify.py::test_both_orientation_caps_are_read_off_the_reversal_length"),
    # the reversal bound and the caps read off it
    (V, "min(reversible_factors(w, length), default=None)",
     "min(reversible_factors(w, length + 1), default=None)",
     "reversal bound reads length L + 1: a reversible factor of length L goes unseen",
     "tests/test_verify.py::test_reversal_bound_is_the_least_length_without_a_reversible_factor[f1]"),
    (V, "        if reversible:\n", "        if reversible and check_id == \"w1\":\n",
     "reversal clause kept for w1 alone: the other rows' caps rest on a premise no "
     "clause checks",
     "tests/test_verify.py::test_a_failing_clause_fails_its_check[w2:reversible]"),
    (V, "(length - 1 if v in p and v.upper() in p", "(length if v in p and v.upper() in p",
     "both-orientation variables capped at L: a reversible factor of length L is not "
     "excluded",
     "tests/test_verify.py::test_both_orientation_caps_are_read_off_the_reversal_length"),
    # the table of morphic images: caps read off the pattern, pinned lengths, row windows
    (V, "if v in p and v.upper() in p", "if v in p or v.upper() in p",
     "a variable used one way read as used both ways: w3-contexts-repaired's |X| capped "
     "at 6 for 8",
     "tests/test_verify.py::test_both_orientation_caps_are_read_off_the_reversal_length"),
    (V, "if derived != row.pinned:", "if derived != row.pinned and row.one_way_cap is None:",
     "derived lengths left unchecked on the rows with a one-way cap",
     "tests/test_verify.py::test_a_failing_clause_fails_its_check[w3-contexts-repaired:derived]"),
    (V, '{"instances": _instance_length(p, max_x, max_y), **row.windows}',
     '{"instances": _instance_length(p, max_x, max_y)}',
     "a row's further windows never read: w4's bispecial window goes unreported",
     "tests/test_pins.py::test_outputs_match_their_pins[registry-0]"),
    (V, "            yield from row.clauses(tau, w, at)\n", "            pass\n",
     "a row's own clauses never run",
     "tests/test_verify.py::test_a_failing_clause_fails_its_check[w3-contexts-repaired:contexts]"),
    # the one window derivation and the one context-set walk of the f3 checks
    (V, "return windows, max(windows.values()", "return windows, min(windows.values()",
     "the window helper returns the smallest window: every clause reads a window too "
     "short for its factors",
     "tests/test_verify.py::test_both_orientation_caps_are_read_off_the_reversal_length"),
    (V, "if palindromes or y != y[::-1]:", "if palindromes or y == y[::-1]:",
     "the shared context walk's palindrome filter inverted: w3-contexts-repaired "
     "examines the palindromic entries and skips the others",
     "tests/test_verify.py::test_both_orientation_caps_are_read_off_the_reversal_length"),
    # the symmetry table and the pattern graph's closed form
    (P, ', "YyXx"', "",
     "one renaming missing from the table: classes lose the images it gives",
     "tests/test_engine.py::test_classify_is_constant_on_classes_and_monotone"),
    (P, "frozenset(images + [q[::-1] for q in images])", "frozenset(images)",
     "reversed images dropped from the class",
     "tests/test_engine.py::test_seed_free_tables_exact"),
    (E, "_SYMBOL_RANK[a] <= _SYMBOL_RANK[b]", "_SYMBOL_RANK[a] >= _SYMBOL_RANK[b]",
     "edge order flipped: each edge's greater symbol comes first",
     "tests/test_engine.py::test_pattern_graph_worked_example"),
    (E, "            return BipartiteResult(odd_cycle=[a, b, c, a])\n",
     "            pass\n",
     "triangle clause dropped: a graph with a triangle and no loop has no coloring "
     "to return",
     "tests/test_engine.py::test_bipartite_check_reads_edges_either_way_round"),
    (E, "product((0, 1), repeat=", "product((1, 0), repeat=",
     "colorings enumerated greatest first: each component's least vertex colored 1",
     "tests/test_engine.py::test_bipartite_check_reads_edges_either_way_round"),
]


def run_tests(tree: str, tests: list[str], timeout: float | None = None) -> tuple[str, str, str]:
    """(outcome, first failing test, pytest's output) of ``tests`` in
    ``tree``, killed after ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed", f"(timeout after {timeout:.0f} s)", ""
    if done.returncode == 0:
        return "survived", "", done.stdout
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"(pytest exit {done.returncode})", done.stdout


def durations_by_test(output: str) -> dict[str, float]:
    """Seconds per test id, setup and teardown included, read off the
    ``--durations=0`` table in pytest's output."""
    times: dict[str, float] = {}
    for secs, test in re.findall(r"^([\d.]+)s (?:setup|call|teardown) +(.+)$", output, re.MULTILINE):
        times[test] = times.get(test, 0.0) + float(secs)
    return times


def copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="revpat-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        copy_tree(clean)
        started = time.perf_counter()
        outcome, test, output = run_tests(clean, [*TESTS, "--durations=0", "--durations-min=0"])
        if outcome != "survived":
            print(f"the unmutated tree fails: {test}")
            return 1
        wall = time.perf_counter() - started
        times = durations_by_test(output)
        startup = max(wall - sum(times.values()), 0.0)  # pytest's own start and collection
        counts = {"killed": 0, "survived": 0, "stale": 0}
        for i, (rel, old, new, reason, killer) in enumerate(MUTANTS, 1):
            tree = os.path.join(tmp, f"m{i}")
            copy_tree(tree)
            path = os.path.join(tree, "src", rel)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            found = text.count(old)
            if found != 1:
                outcome, test = "stale", f"old text occurs {found} times"
            elif killer is not None and killer not in times:
                outcome, test = "stale", f"recorded killer {killer} is not a test in TESTS"
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text.replace(old, new))
                outcome = "survived"
                if killer is not None:
                    outcome, test, _ = run_tests(tree, [killer],
                                                 TIMEOUT_FACTOR * (startup + times[killer]))
                if outcome == "survived":
                    outcome, test, _ = run_tests(tree, TESTS, TIMEOUT_FACTOR * wall)
                    if outcome == "killed" and killer is not None:
                        test = f"new killer {test}"
            shutil.rmtree(tree)
            counts[outcome] += 1
            print(f"{i:2d} {outcome:8s} {rel}: {reason}" + (f" -- {test}" if test else ""),
                  flush=True)
    print(f"{counts['killed']} of {len(MUTANTS)} killed, {counts['survived']} survived, "
          f"{counts['stale']} stale")
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
