"""Mutation check for the slot kernel's pruning rules, the square walk it
shares with the square-limited generator, the square that begins a yy- or
YY-opened y-run, the bound on the left-completion search, the prover's end
check, dead-suffix table, frame stack and report exits, the oracle's
class verdict, the registry's parameter ranges, Thue-Morse clauses, derived
windows and the helper that picks the largest, the context-set walk the two
f3 checks share, reversal bound, table of morphic images and sampled caps, the
square-limited generator's floor and orientation, the table of pattern
symmetries and the pattern graph's loop-or-triangle test.

    python3 tools/mutants.py

Each row of ``MUTANTS`` names a file under ``src/``, an exact piece of its
text, the text that replaces it, and why the result is wrong.  For each
row the script copies ``src/``, ``tests/``, ``perfbench/`` (whose pins
``tests/test_pins.py`` reads) and ``pyproject.toml`` into a temporary
directory, applies that one replacement, and runs

    python3 -m pytest -x -q tests/test_matcher.py tests/test_engine.py \
        tests/test_sequences.py tests/test_verify.py tests/test_patterns.py \
        tests/test_pins.py

there.  A mutant is *killed* when a test fails, or when the run outlasts
``TIMEOUT_FACTOR`` times the unmutated run (a broken jump can loop forever);
it *survived* when every test passes.  The unmutated tree is run first, timed,
and must pass.  A row whose old text no longer occurs exactly once is
*stale*: the code it mutated has moved, and the row must be re-pointed to
the equivalent text.

Prints one line per row and a kill count; exits 1 when a mutant survived or
a row is stale.  Needs pytest and hypothesis, as the test suite does.  The
67 rows took about 13.5 minutes on a 2-core x86-64 machine with Python 3.11,
and the unmutated run about 20 s.  Every row fails a test: row 3, whose broken
jump loops, fails the first kernel test in ``tests/test_matcher.py``, and
row 17, whose square jump loops, the second; both tests' words give up
after 100 calls to ``find``, well before the timeout.
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
     "further, so the forward step overshoots"),
    (M, "if f > reach:", "if reach > f:",
     "jump trigger reversed: jumps when the hit is reachable"),
    (M, "if f > reach:", "if f >= reach:",
     "jump trigger < -> <=: a hit exactly at the reach is skipped"),
    (M, "f = w.find(xr if rev else xf, start + lx + ky)",
     "f = w.find(xr if rev else xf, start + lx + ky + 1)",
     "key searched from one past its least offset: a hit there is missed"),
    (M, 'key = (0, p[1] == "X")', 'key = (0, p[1] == "x")',
     "second lead slot keyed in the wrong orientation"),
    (M, 'key = (run_y, run_x[0] == "X")', 'key = (run_y - 1, run_x[0] == "X")',
     "pinned-run key one y slot short: its reach is too small"),
    (M, "                q = f\n", "                q = f + 1\n",
     "pin search starts past the key's hit, which may be the pin itself"),
    (M, "w[start + 2 * lx:base]", "w[start + lx:base]",
     "lead check reads from the second lead slot, which the key already fixed"),
    # the squares at a start, read for xy.xy-led patterns and the square-limited word
    (M, "            half = g - start\n", "            half = g - start + 1\n",
     "square walk jumps one past the head's next place: a square of that half is missed"),
    (M, "    half = least\n", "    half = least + 1\n",
     "square walk starts one past its least half-length"),
    (M, "max(2, floor // max(a, b) + 1)", "max(2, floor // max(a, b) + 2)",
     "least square half one too large: an instance just longer than the floor is missed"),
    (M, "min(room // 2, lim_x + max_y)", "min(room // 2, lim_x + max_y - 1)",
     "capped square walk stops one half short"),
    (M, "        if not halves:\n", "        if len(halves) < 2:\n",
     "early None taken when exactly one square starts there"),
    (M, "lim_x = halves[-1] - 1", "lim_x = halves[-1] - 2",
     "|X| stops two below the largest half: |Y| = 1 on the largest square is missed"),
    (M, "ly = halves[bisect_left(halves, lx + ly)] - lx", "ly = halves[bisect_left(halves, lx + ly)] - lx + 1",
     "|Y| read off a half one too large"),
    (M, "ly = halves[bisect_left(halves, lx + ly)] - lx", "ly = halves[bisect_left(halves, lx + ly + 1)] - lx",
     "next half searched past the least |Y| left: the half giving it is skipped"),
    # the square that begins a yy- or YY-opened y-run
    (M, "q = base + run_y * (g - base) - 1", "q = base + run_y * (g - base - 1) - 1",
     "square jump one |Y| short: a head that recurs one place on sends the run search "
     "back to the place it left, which loops"),
    (M, "q += run_y - off - 1", "q += run_y - off",
     "alignment rounding one past the next aligned place: the run there is skipped"),
    (M, "base + lim_y + ly)", "base + lim_y + ly - 1)",
     "square window one letter short: a square of half lim_y is missed"),
    (M, "w.find(w[base:base + ly], base + ly,", "w.find(w[base:base + ly], base + ly + 1,",
     "square head searched from one past base + ly: the y-run's own square is never a hit"),
    (M, "body[1] == body[0])", 'body[1] in "yY")',
     "square rule enabled for a yY run, whose instances need not begin with a square"),
    (S, 'not word.startswith(b"1010")', 'not word.startswith(b"0101")',
     "square-limited generator excepts 0101 for 1010 at the start of its newest-first word"),
    (S, "_sl_word[len(_sl_word) - n:][::-1].decode()", "_sl_word[len(_sl_word) - n:].decode()",
     "square-limited prefix returned newest letter first, as the generator holds it"),
    (S, "max(len(_sl_word) - DEFAULT_LOOKAHEAD, 0)", "max(len(_sl_word) - DEFAULT_LOOKAHEAD - 1, 0)",
     "square-limited floor one letter short of the prefix handed out: the last emitted "
     "letter may be revised"),
    # the repeat floor
    (M, "found = _match_at(plan, data, start, max_x, max_y, floor)",
     "found = _match_at(plan, data, start, max_x, max_y, floor + 1)",
     "scan floor one too large"),
    (E, "        if rword.find(rword[:floor], 1) < 0:\n            floor = 0\n", "",
     "prover floor without its find: the parent's floor + 1 is kept even when "
     "that prefix does not recur"),
    (M, "if start + floor == n:", "if start + floor + 1 >= n:",
     "scan stops a start too soon"),
    # the |Y| pin and its two y-side checks
    (M, "t += w[base:base + low]", "t += w[base:base + low + 1]",
     "pin extended by low + 1 letters"),
    (M, "mirror and w[q - 1] != w[q + run_len]", "mirror and w[q] != w[q + run_len]",
     "mirror check reads w[q] for w[q - 1]"),
    (M, "mirror and w[q - 1] != w[q + run_len]", "mirror and w[q - 1] != w[q + len(t)]",
     "mirror check measured past the extended find string"),
    # slot offsets
    (M, 'tail.append((cx, cy, "xXyY".index(sym)))',
     'tail.append((cx + (not tail), cy, "xXyY".index(sym)))',
     "first tail slot's cx one too large"),
    (M, "tuple(tail), key,",
     "tuple(tail[:-1] + [(tail[-1][0], tail[-1][1] + 1, tail[-1][2])] if tail else tail), key,",
     "last tail slot's cy one too large"),
    # the prover's stored dead suffixes
    (E, "room = min(len(longest), depth_limit - 1) - n", "room = depth_limit - 1 - n",
     "settling without the len(longest) guard: a settled subtree may hold the word "
     "the full search reports"),
    (E, "key, offset = top.rword[:n - top.reach], top.height - n",
     "key, offset = top.rword[:n - top.reach - 1], top.height - n",
     "dead suffix stored one letter short: a killing instance may start before it"),
    (E, "parent.reach = min(parent.reach, top.reach)", "pass",
     "a dead child's reach not folded into its parent's: the parent's suffix misses "
     "instances that killed nodes deeper down"),
    (E, "parent.height = max(parent.height, top.height)", "pass",
     "a dead child's height not folded into its parent's: the parent's offset is too "
     "small, so a later node is settled although its subtree holds a longer avoider"),
    # the prover's frame stack and its one report
    (E, "iter(letters[:1])", "iter(letters)",
     "the root frame tries every letter: the first letter is no longer fixed to 0"),
    (E, "terminated = not frames", "terminated = len(longest) < depth_limit",
     "the budget exit reported as terminated: a search cut short reads as a certificate"),
    (E, "not terminated and len(longest) < depth_limit", "not terminated",
     "the depth exit reported as inconclusive: a witness reads as a spent budget"),
    # the prover's one end-check call per node
    (E, "if found and not per_node:", "if found:",
     "a per-node hit kills the node itself: a word all of whose children contain p "
     "is never counted as an avoider"),
    # the renamed search's rising cap
    (M, "_match_at(plan, data, start, max_y, cap)", "_match_at(plan, data, start, None, cap)",
     "rising-cap rerun drops p's |Y| bound"),
    # the left-completion table's factor bound
    (S, "min(COMPLETION_FACTOR_BOUND, len(u))", "min(COMPLETION_FACTOR_BOUND, len(u) - 1) or 1",
     "completion table built over factors one letter shorter than u: the images "
     "of |u|-letter factors are missed"),
    # the registry's parameter ranges
    (V, "if not least <= value <= greatest:", "if not least < value <= greatest:",
     "range check made strict: a value at its least bound is refused"),
    # the oracle's class verdict
    (V, "if report.inconclusive or not avoids(", "if not avoids(",
     "a search that spent its budget supplies a witness when its longest word happens "
     "to avoid the class"),
    # the Thue-Morse fixed-point clause and the induction built on it
    (V, "thue_morse_prefix((n + 1) // 2)", "thue_morse_prefix(n // 2)",
     "fixed point read from h(t[:floor(n/2)]): an odd host is one letter longer"),
    (V, "None if host == image else min(len(host), len(image))", "None",
     "fixed point compared by zip alone: an image shorter than the host passes"),
    (V, "if pair[1] != 2 * pair[0]:", "if pair[1] > 2 * pair[0]:",
     "covering step accepts covering lengths that grow by less than double"),
    (V, 'for u in ("00", "01", "10", "11")', 'for u in ("01", "10", "11")',
     "covering base forgets 00"),
    (V, "_fixed_point_break(big_len)", "_fixed_point_break(big_len // 2)",
     "covering's fixed-point clause checks half its host: the last steps of the "
     "induction rest on an unchecked h(t[:m]) = t[:2m]"),
    # the sampled caps, which no lemma derives yet
    (V, "cap = min(len(g) // 4, SQUARE_LIMITED_CAP)", "cap = min(len(g) // 4, 3)",
     "g-avoidance searches |X|, |Y| <= 3 only"),
    (V, "cap = min(n // 5, SQUARE_LIMITED_CAP)", "cap = min(n // 5, 2)",
     "square-limited-xyxyX searches |X|, |Y| <= 2 only"),
    # the derived window arithmetic of the morphic-image checks
    (V, "2 * (u_len + 3 * image1_len - 3)", "2 * (u_len + 3 * image1_len - 4)",
     "factor-length bound with - 4 for - 3: every derived window shifts"),
    (S, "return 7 << max(", "return 6 << max(",
     "covering prefixes of 6 * 2**e letters: t[:6] misses the factor 00"),
    (V, "return a * max_x + b * max_y", "return a * max_x + b * max_y - 1",
     "instance length one short: the longest capped instance can fall outside the window"),
    # the reversal bound and the caps read off it
    (V, "min(reversible_factors(w, length), default=None)",
     "min(reversible_factors(w, length + 1), default=None)",
     "reversal bound reads length L + 1: a reversible factor of length L goes unseen"),
    (V, "        if reversible:\n", "        if reversible and check_id == \"w1\":\n",
     "reversal clause kept for w1 alone: the other rows' caps rest on a premise no "
     "clause checks"),
    (V, "(length - 1 if v in p and v.upper() in p", "(length if v in p and v.upper() in p",
     "both-orientation variables capped at L: a reversible factor of length L is not "
     "excluded"),
    # the table of morphic images: caps read off the pattern, pinned lengths, row windows
    (V, "if v in p and v.upper() in p", "if v in p or v.upper() in p",
     "a variable used one way read as used both ways: w3-contexts-repaired's |X| capped "
     "at 6 for 8"),
    (V, "if derived != row.pinned:", "if derived != row.pinned and row.one_way_cap is None:",
     "derived lengths left unchecked on the rows with a one-way cap"),
    (V, '{"instances": _instance_length(p, max_x, max_y), **row.windows}',
     '{"instances": _instance_length(p, max_x, max_y)}',
     "a row's further windows never read: w4's bispecial window goes unreported"),
    (V, "            yield from row.clauses(tau, w, at)\n", "            pass\n",
     "a row's own clauses never run"),
    # the one window derivation and the one context-set walk of the f3 checks
    (V, "return windows, max(windows.values()", "return windows, min(windows.values()",
     "the window helper returns the smallest window: every clause reads a window too "
     "short for its factors"),
    (V, "if palindromes or y != y[::-1]:", "if palindromes or y == y[::-1]:",
     "the shared context walk's palindrome filter inverted: w3-contexts-repaired "
     "examines the palindromic entries and skips the others"),
    # the symmetry table and the pattern graph's closed form
    (P, ', "YyXx"', "",
     "one renaming missing from the table: classes lose the images it gives"),
    (P, "frozenset(images + [q[::-1] for q in images])", "frozenset(images)",
     "reversed images dropped from the class"),
    (E, "            return BipartiteResult(odd_cycle=[a, b, c, a])\n",
     "            pass\n",
     "triangle clause dropped: a graph with a triangle and no loop has no coloring "
     "to return"),
    (E, "product((0, 1), repeat=", "product((1, 0), repeat=",
     "colorings enumerated greatest first: each component's least vertex colored 1"),
]


def run_tests(tree: str, timeout: float | None = None) -> tuple[str, str]:
    """(outcome, first failing test) of ``TESTS`` in ``tree``, killed after
    ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed", f"(timeout after {timeout:.0f} s)"
    if done.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"(pytest exit {done.returncode})"


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
        outcome, test = run_tests(clean)
        if outcome != "survived":
            print(f"the unmutated tree fails: {test}")
            return 1
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - started)
        counts = {"killed": 0, "survived": 0, "stale": 0}
        for i, (rel, old, new, reason) in enumerate(MUTANTS, 1):
            tree = os.path.join(tmp, f"m{i}")
            copy_tree(tree)
            path = os.path.join(tree, "src", rel)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            found = text.count(old)
            if found != 1:
                outcome, test = "stale", f"old text occurs {found} times"
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text.replace(old, new))
                outcome, test = run_tests(tree, timeout)
            shutil.rmtree(tree)
            counts[outcome] += 1
            print(f"{i:2d} {outcome:8s} {rel}: {reason}" + (f" -- {test}" if test else ""),
                  flush=True)
    print(f"{counts['killed']} of {len(MUTANTS)} killed, {counts['survived']} survived, "
          f"{counts['stale']} stale")
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
