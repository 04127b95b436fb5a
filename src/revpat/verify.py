"""Machine-checkable reproductions of every finite search the toolkit rests on.

Each ``vf_*`` function runs one bounded, deterministic check and returns a
VerificationReport: what was claimed, with which parameters, over which
search bounds, and a concrete counterexample whenever the check fails.
``run_checks`` drives the whole registry; the CLI ``verify`` command is a
thin wrapper around it.

Prefix lengths for the w1..w4 checks are derived at run time from
``bound_factor_length`` and the Thue-Morse covering arithmetic rather than
hardcoded; where a specific derived value is load-bearing (56, 112) a
different value fails the report with a counterexample naming what was
derived.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product
from math import inf

from .engine import (
    Avoidability,
    BacktrackReport,
    SEED_PARTITION,
    bipartite_check,
    classify,
    instance_in_alternating,
    pattern_graph,
    prove_k_unavoidable,
)
from .matcher import avoids, find_instance, find_instance_bounded
from .patterns import PATTERN_ALPHABET, canonical, factors, pattern_key
from .sequences import (
    ALLOWED_SQUARES,
    DEFAULT_LOOKAHEAD,
    F1,
    F2,
    F3,
    F4,
    H,
    MORPHISMS,
    alternating_prefix,
    apply_binary_morphism,
    bispecial_factors,
    collect_squares,
    contains_overlap,
    covering_prefix_length,
    factor_set,
    g_from,
    left_completions,
    reversible_factors,
    square_limited_prefix,
    thue_morse_prefix,
    tm_factor_images,
    tm_image,
)

# Binary words z of length 1..6 that may occur in w3 together with their
# reversals; anything longer never does.
UPSILON = frozenset({
    "1", "0",
    "11", "10", "00", "01",
    "010", "011", "001", "000", "110", "100", "101",
    "0110", "0000", "0001", "1001", "1000",
    "00001", "10000", "10001",
    "100001",
})

# The table entries whose context sets the w3 checks examine, shortest first.
CONTEXT_TABLE = sorted(UPSILON - {"0", "1", "00"}, key=lambda s: (len(s), s))

FORBIDDEN_G_FACTORS = ("220122201", "012220122")


@dataclass
class VerificationReport:
    """Result of one verification check, JSON-serializable via as_dict.

    ``elapsed`` is the check's wall time in seconds as timed by
    ``run_checks``; a report from a direct ``vf_*`` call leaves it at 0.0.
    """

    check_id: str
    claim: str
    parameters: dict
    passed: bool
    counterexample: object | None = None
    searched_bound: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def bound_factor_length(u_len: int, image1_len: int) -> int:
    """Length bound on a Thue-Morse factor v with u a factor of m(v).

    For a binary morphism m fixing 0 with |m(1)| = image1_len, any factor u
    of m(t) already occurs in m(v) for some factor v of t no longer than
    2(|u| + 3|m(1)| - 3) / (|m(1)| + 1); returns that bound rounded down.
    """
    if u_len < 0 or image1_len < 1:
        raise ValueError("factor length must be >= 0 and image length >= 1")
    return 2 * (u_len + 3 * image1_len - 3) // (image1_len + 1)


def _image_window(m: tuple[str, str], factor_len: int) -> tuple[str, str, list[int]]:
    """``tm_image`` of the Thue-Morse prefix whose m-image contains every
    m(t)-factor of the given length."""
    return tm_image(m, covering_prefix_length(bound_factor_length(factor_len, len(m[1]))))


def _bounded_hit(w: str, p: str, max_x: int, max_y: int) -> dict | None:
    """Counterexample for a bounded instance search: the pattern and the
    least instance of it in w with |X| <= max_x and |Y| <= max_y, or None."""
    wit = find_instance_bounded(w, p, max_x, max_y)
    if wit is None:
        return None
    return {"pattern": p, "start": wit.start, "x": wit.x, "y": wit.y}


# --- squares and the section-4 constructions --------------------------------------

def vf_square_limited(n: int = 2000, word: str | None = None) -> VerificationReport:
    """Square inventory of the square-limited word: exactly 00, 11, 0101."""
    injected = word is not None
    w = word if injected else square_limited_prefix(n)
    squares = collect_squares(w)
    stray = sorted(squares - ALLOWED_SQUARES)
    missing = sorted(ALLOWED_SQUARES - squares)
    counter = None
    if stray:
        counter = {"square": stray[0]}
    elif missing:
        counter = {"missing_squares": missing}
    return VerificationReport(
        check_id="square-limited",
        claim="every square factor of the square-limited word is one of 00, 11, 0101, "
              "all three occur, and 1010 never occurs",
        parameters={"n": n if not injected else len(w), "lookahead": DEFAULT_LOOKAHEAD,
                    "injected": injected},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"prefix_length": len(w)},
    )


def mod3_step_violation(w: str) -> str | None:
    """First length-2 factor cd of a ternary word with c = d + 1 (mod 3)."""
    for bad in ("10", "21", "02"):
        if bad in w:
            return bad
    return None


def vf_g_avoidance(n: int = 400) -> VerificationReport:
    """The ternary word g avoids xyxY and xyXY, plus its structure facts."""
    g = g_from(square_limited_prefix(n))
    cap = min(len(g) // 4, 15)
    counter = _bounded_hit(g, "xyxY", cap, cap) or _bounded_hit(g, "xyXY", cap, cap)
    if counter is None:
        bad = mod3_step_violation(g)
        if bad is not None:
            counter = {"mod3_factor": bad}
    if counter is None:
        for f in FORBIDDEN_G_FACTORS:
            if f in g:
                counter = {"forbidden_factor": f}
                break
    return VerificationReport(
        check_id="g-avoidance",
        claim="the ternary word g built from the square-limited word avoids xyxY and "
              "xyXY, has no length-2 factor cd with c = d+1 mod 3, and never contains "
              "220122201 or 012220122",
        parameters={"n": n, "lookahead": DEFAULT_LOOKAHEAD, "max_x": cap, "max_y": cap},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"g_length": len(g)},
    )


def vf_square_limited_xyxyX(n: int = 400) -> VerificationReport:
    """The square-limited word avoids xyxyX (and has no factor 1010)."""
    w = square_limited_prefix(n)
    cap = min(n // 5, 15)
    counter = _bounded_hit(w, "xyxyX", cap, cap)
    if counter is None and "1010" in w:
        counter = {"factor": "1010"}
    return VerificationReport(
        check_id="square-limited-xyxyX",
        claim="the square-limited word avoids xyxyX; 1010 is not among its factors",
        parameters={"n": n, "lookahead": DEFAULT_LOOKAHEAD, "max_x": cap, "max_y": cap},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"prefix_length": len(w)},
    )


# --- the four morphic images ------------------------------------------------------

def vf_w1() -> VerificationReport:
    """w1 = f1(t) avoids xyxYX: no reversible length-7 factor, no short instance."""
    rev_bound = bound_factor_length(7, len(F1[1]))
    tau56, img56, _ = _image_window(F1, 7)
    inst_bound = bound_factor_length(3 * 6 + 2 * 6, len(F1[1]))
    tau112, img112, _ = _image_window(F1, 3 * 6 + 2 * 6)
    counter = None
    if not (rev_bound < 7 and inst_bound == 10 and len(tau56) == 56 and len(tau112) == 112):
        counter = {"derived": [rev_bound, inst_bound, len(tau56), len(tau112)]}
    if counter is None:
        rev = reversible_factors(img56, 7)
        if rev:
            counter = {"reversible_factor": sorted(rev)[0]}
    if counter is None:
        counter = _bounded_hit(img112, "xyxYX", 6, 6)
    return VerificationReport(
        check_id="w1",
        claim="f1(t) has no length-7 factor z with z reversed also a factor, and no "
              "instance of xyxYX with |X|,|Y| <= 6; hence w1 avoids xyxYX",
        parameters={"reversible_length": 7, "max_x": 6, "max_y": 6},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"tm_prefix_reversible": len(tau56), "tm_prefix_instances": len(tau112),
                        "factor_bounds": [rev_bound, inst_bound]},
    )


def vf_w2() -> VerificationReport:
    """w2 = f2(t) avoids xyXYx."""
    tau, img, _ = _image_window(F2, 3 * 6 + 2 * 6)
    counter = None
    if len(tau) != 112:
        counter = {"derived_prefix": len(tau)}
    elif len(img) != 504:
        counter = {"image_length": len(img)}
    else:
        counter = _bounded_hit(img, "xyXYx", 6, 6)
    return VerificationReport(
        check_id="w2",
        claim="f2(t) restricted to the covering prefix (length 504) has no instance "
              "of xyXYx with |X|,|Y| <= 6; hence w2 avoids xyXYx",
        parameters={"max_x": 6, "max_y": 6},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"tm_prefix": len(tau), "image_length": len(img)},
    )


def _context_sets(w: str, y: str) -> tuple[set[str], set[str]]:
    """Length-3 words usable on the given side of both y and its reversal."""
    yr = y[::-1]
    triples = ["".join(t) for t in product("01", repeat=3)]
    left = {chi for chi in triples if chi + y in w and chi + yr in w}
    right = {chi for chi in triples if y + chi in w and yr + chi in w}
    return left, right


def vf_w3(completion_len: int = 24, completion_factor_bound: int = 64) -> VerificationReport:
    """The five finite searches behind: w3 = f3(t) avoids xyxYx.

    Clauses are evaluated independently.  The context-set clause is checked
    exactly as claimed and is KNOWN TO FAIL for the nine palindromic table
    entries: for a palindrome y the two conditions defining each context set
    collapse to one, and w3 really does contain, e.g., 011000, 110000,
    000101 and 000010 (junction factors around image blocks), so both sets
    are non-empty for y = 000.  The repaired decomposition that the avoidance
    theorem actually needs is checked by vf_w3_contexts_repaired.
    """
    windows = {
        "reversible": _image_window(F3, 6),
        "contexts": _image_window(F3, 9),
        "instances": _image_window(F3, 3 * 8 + 2 * 2),
        "completions": _image_window(F3, completion_len),
    }
    tau, w, _ = max(windows.values(), key=lambda window: len(window[0]))
    clauses: dict[str, bool] = {}
    details: dict[str, object] = {}

    # (a) words readable both ways lie in the fixed 22-element set
    stray = set()
    for length in range(1, 7):
        stray |= reversible_factors(w, length) - UPSILON
    clauses["reversible"] = not stray
    if stray:
        details["reversible"] = sorted(stray)

    # (b) no length-3 context works on both sides of y and its reversal
    violations = {}
    for y in CONTEXT_TABLE:
        left, right = _context_sets(w, y)
        if left and right:
            violations[y] = {"left": sorted(left), "right": sorted(right)}
    clauses["contexts"] = not violations
    if violations:
        details["contexts"] = violations

    # (c) no short instance of xyxYx
    hit = _bounded_hit(w, "xyxYx", 8, 2)
    clauses["instances"] = hit is None
    if hit is not None:
        details["instances"] = hit

    # (d) every length-9 factor contains 11
    missing11 = sorted(z for z in factor_set(w, 9) if "11" not in z)
    clauses["length-9"] = not missing11
    if missing11:
        details["length-9"] = missing11[:3]

    # (e) factors ending in 11 have exactly one left completion
    completion_failures = {}
    for length in range(2, completion_len + 1):
        for u in sorted(factor_set(w, length)):
            if u.endswith("11"):
                found = left_completions(u, F3, completion_factor_bound)
                if len(found) != 1:
                    completion_failures[u] = found
    clauses["completions"] = not completion_failures
    if completion_failures:
        details["completions"] = completion_failures

    failed = [name for name, ok in clauses.items() if not ok]
    return VerificationReport(
        check_id="w3",
        claim="f3(t): reversible factors up to length 6 lie in the 22-word table, "
              "their two-sided length-3 contexts never coexist outside {0,1,00}, no "
              "instance of xyxYx with |X|<=8,|Y|<=2, every length-9 factor contains "
              "11, and factors ending in 11 have unique left completions",
        parameters={"completion_len": completion_len,
                    "completion_factor_bound": completion_factor_bound},
        passed=not failed,
        counterexample={"clauses": failed, "details": details} if failed else None,
        searched_bound={"tm_prefix": len(tau),
                        "per_clause": {clause: len(t) for clause, (t, _, _) in windows.items()},
                        "image_length": len(w), "clause_results": clauses},
    )


def vf_w3_contexts_repaired() -> VerificationReport:
    """Replacement for the degenerate context-set clause of vf_w3.

    Non-palindromic table entries really are excluded by the two-sided
    context sets; the palindromic ones (for which that argument cannot work)
    are excluded directly by widening the bounded instance search to every
    table length, |X| <= 8 and |Y| <= 6.  Together with the unique-left-
    completion machinery for |X| >= 9 this is what the avoidance proof
    consumes.
    """
    tau, w, _ = _image_window(F3, 3 * 8 + 2 * 6)
    counter = None
    for y in CONTEXT_TABLE:
        if y == y[::-1]:
            continue
        left, right = _context_sets(w, y)
        if left and right:
            counter = {"y": y, "left": sorted(left), "right": sorted(right)}
            break
    if counter is None:
        counter = _bounded_hit(w, "xyxYx", 8, 6)
    return VerificationReport(
        check_id="w3-contexts-repaired",
        claim="non-palindromic reversible factors of w3 outside {0,1,00} fail one of "
              "the two-sided context sets, and no instance of xyxYx with |X| <= 8 and "
              "|Y| <= 6 occurs at all",
        parameters={"max_x": 8, "max_y": 6},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"tm_prefix": len(tau), "image_length": len(w)},
    )


def internal_factors(w: str, min_len: int) -> set[str]:
    """Factors of w of at least min_len letters touching neither end."""
    return {w[i:j] for i in range(1, len(w)) for j in range(i + min_len, len(w))}


def vf_w4() -> VerificationReport:
    """The finite searches behind: w4 = f4(t) avoids xyXyx."""
    windows = [_image_window(F4, 21), _image_window(F4, 3 * 20 + 2 * 5), _image_window(F4, 26)]
    rev_prefix, inst_prefix, bis_prefix = (len(tau) for tau, _, _ in windows)
    tau, w, at = max(windows, key=lambda window: len(window[0]))
    counter = None

    if not (rev_prefix == 56 and inst_prefix == 112 and len(w) == 616):
        counter = {"derived": [rev_prefix, inst_prefix, len(w)]}

    # (a) no length-21 factor is reversible
    if counter is None:
        rev = reversible_factors(w, 21)
        if rev:
            counter = {"clause": "reversible", "factor": sorted(rev)[0]}

    # (b) no bounded instance of xyXyx in the covering image
    if counter is None:
        hit = _bounded_hit(w, "xyXyx", 20, 5)
        if hit is not None:
            counter = {"clause": "instances", **hit}

    # (c) every 011 ends an image block of 1
    if counter is None:
        one_ends = {at[i + 1] for i, c in enumerate(tau) if c == "1"}
        i = w.find("011")
        while i != -1:
            if i + 3 not in one_ends:
                counter = {"clause": "alignment", "position": i}
                break
            i = w.find("011", i + 1)

    # (d) the long internal factors of f4(1) are the six known words and occur
    # only inside image blocks of 1
    if counter is None:
        expected = {"000010", "000100", "001001", "0000100", "0001001", "00001001"}
        got = internal_factors(F4[1], 6)
        if got != expected:
            counter = {"clause": "internal", "got": sorted(got)}
    if counter is None:
        one_spans = [(at[i], at[i + 1]) for i, c in enumerate(tau) if c == "1"]
        for u in sorted(expected):
            i = w.find(u)
            while i != -1:
                if not any(s <= i and i + len(u) <= e for s, e in one_spans):
                    counter = {"clause": "internal-placement", "factor": u, "position": i}
                    break
                i = w.find(u, i + 1)
            if counter is not None:
                break

    # (e) bispecial factors of length 6..24 are image words
    if counter is None:
        images = tm_factor_images(F4, 24)
        for y in sorted(bispecial_factors(w, 24)):
            if len(y) >= 6 and y not in images:
                counter = {"clause": "bispecial", "factor": y}
                break

    return VerificationReport(
        check_id="w4",
        claim="f4(t): no reversible length-21 factor, no instance of xyXyx with "
              "|X|<=20,|Y|<=5 in the covering image, 011 occurs only as an image-block "
              "suffix, the six long internal factors of f4(1) stay inside blocks, and "
              "long bispecial factors are image words",
        parameters={"max_x": 20, "max_y": 5, "bispecial_range": [6, 24]},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"tm_prefix": len(tau),
                        "per_clause": {"reversible": rev_prefix, "instances": inst_prefix,
                                       "bispecial": bis_prefix}},
    )


# --- unavoidability, the alternating word, and the classifier oracle --------------

def vf_pigeonhole(k: int = 2) -> VerificationReport:
    """Every word of length 2k+1 over k letters contains xyx and xyX."""
    length = 2 * k + 1
    counter = None
    digits = "".join(str(d) for d in range(k))
    total = 0
    for tup in product(digits, repeat=length):
        w = "".join(tup)
        total += 1
        for p in ("xyx", "xyX"):
            if find_instance(w, p) is None:
                counter = {"word": w, "pattern": p}
                break
        if counter is not None:
            break
    return VerificationReport(
        check_id="pigeonhole",
        claim=f"every word of length {length} over {k} letters contains an instance "
              "of xyx and of xyX",
        parameters={"k": k, "word_length": length},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"words_checked": total},
    )


def vf_alternating_theorem(max_len: int = 4) -> VerificationReport:
    """Graph bipartiteness coincides with having an instance in 0101..."""
    counter = None
    checked = 0
    for length in range(2, max_len + 1):
        for tup in product(PATTERN_ALPHABET, repeat=length):
            p = "".join(tup)
            checked += 1
            bip = bipartite_check(pattern_graph(p)).is_bipartite
            host = alternating_prefix(4 * length + 4)
            brute = find_instance_bounded(host, p, 2, 2) is not None
            construction = instance_in_alternating(p) is not None
            if not (bip == brute == construction):
                counter = {"pattern": p, "bipartite": bip, "brute_force": brute,
                           "construction": construction}
                break
        if counter is not None:
            break
    return VerificationReport(
        check_id="alternating",
        claim="for every pattern of length 2..{}: the pattern graph is 2-colorable "
              "exactly when 0101... contains an instance (images of 1 or 2 letters "
              "suffice)".format(max_len),
        parameters={"max_len": max_len},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"patterns_checked": checked, "image_bounds": [2, 2]},
    )


def _class_search(c: str, k: int, depth: int,
                  searches: dict) -> tuple[BacktrackReport, str, dict | None]:
    """Search for a word of ``depth`` letters over k avoiding the class c.

    A word that avoids a factor of c avoids c.  So the canonical proper
    factors of c are searched first, shortest first with ties broken by
    ``pattern_key``, and the first tree that reaches ``depth`` supplies the
    witness; c itself is searched only when every factor tree is exhausted,
    so an exhaustion certificate for c is always a search on c.  Returns the
    deciding report, the pattern it searched and a problem: None, or what
    went wrong when the matcher refutes the witness for c or the search ran
    out of budget.  ``searches`` memoises prover reports by (pattern, k).
    """
    proper = sorted({canonical(u) for u in factors(c) if len(u) < len(c)},
                    key=lambda q: (len(q), pattern_key(q)))
    for q in proper + [c]:
        if (q, k) not in searches:
            searches[q, k] = prove_k_unavoidable(q, k, depth)
        report = searches[q, k]
        if not report.terminated:
            if report.inconclusive or not avoids(report.longest_word, c):
                return report, q, {"alphabet": k, "searched": q, "witness": report.longest_word}
            return report, q, None
    return report, c, None


def _class_verdict(c: str, avoider_len: int, unavoidable_depth: int, searches: dict,
                   witness_factors: dict) -> tuple[Avoidability, dict | None]:
    """The searched avoidability index of the class c, and a problem or None.

    The ternary search runs only once the binary one is exhausted; the
    pattern that supplied a witness is recorded in ``witness_factors``.
    """
    for k, index in ((2, Avoidability.TWO), (3, Avoidability.THREE)):
        report, source, problem = _class_search(c, k, avoider_len, searches)
        if not report.terminated:
            witness_factors[c] = source
            return index, problem
    if report.longest_word_length >= unavoidable_depth:
        return Avoidability.UNAVOIDABLE, {"ternary_longest": report.longest_word_length}
    return Avoidability.UNAVOIDABLE, None


def vf_classifier_oracle(max_len: int = 4, avoider_len: int = 200,
                         unavoidable_depth: int = 60) -> VerificationReport:
    """The closed-form classifier agrees with exhaustive search everywhere.

    Searches run once per equivalence class (avoidability is class-invariant);
    the classifier is still checked against every individual pattern.  A
    witness comes from the first canonical proper factor of the class, or
    else the class itself, whose tree reaches ``avoider_len`` letters, and
    the matcher re-validates it against the class; the factor is reported in
    ``witness_factors``.  Every exhaustion certificate, behind "index 3" and
    "unavoidable", is a terminated search on the class itself.
    ``prove_nodes`` counts the nodes of every search, factor searches
    included, each distinct (pattern, alphabet) search once.
    """
    searches: dict[tuple[str, int], BacktrackReport] = {}
    verdicts: dict[str, tuple] = {}
    witness_factors: dict[str, str] = {}
    counter = None
    checked = 0
    for length in range(1, max_len + 1):
        for tup in product(PATTERN_ALPHABET, repeat=length):
            p = "".join(tup)
            checked += 1
            c = canonical(p)
            if c not in verdicts:
                verdicts[c] = _class_verdict(c, avoider_len, unavoidable_depth, searches,
                                             witness_factors)
            searched, problem = verdicts[c]
            if problem is None and classify(p) is not searched:
                problem = {"classifier": classify(p).value, "search": searched.value}
            if problem is not None:
                counter = {"pattern": p, **problem}
                break
        if counter is not None:
            break
    return VerificationReport(
        check_id="classifier-oracle",
        claim="for every pattern up to length {}: index 2 iff a binary avoider of "
              "length {} exists, unavoidable iff the ternary tree dies below depth "
              "{}, index 3 otherwise with a ternary avoider found".format(
                  max_len, avoider_len, unavoidable_depth),
        parameters={"max_len": max_len, "avoider_len": avoider_len,
                    "unavoidable_depth": unavoidable_depth},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"patterns_checked": checked, "classes_searched": len(verdicts),
                        "prove_nodes": sum(r.nodes_visited for r in searches.values()),
                        "witness_factors": witness_factors},
    )


def vf_classical_seed_avoiders(witness_len: int = 200,
                               matcher_prefix: int = 400,
                               overlap_prefix: int = 2000) -> VerificationReport:
    """Binary avoiders exist for the five classical seeds; t is overlap-free.

    Thue-Morse is checked for xxx/xyxyx instances through the equivalent
    a.z.a.z.a factor scan at full length and through the generic matcher on a
    shorter prefix; the square-limited word supplies the xyxyX witness.
    """
    counter = None
    for p in sorted(SEED_PARTITION["classical"]):
        r = prove_k_unavoidable(p, 2, witness_len)
        if r.terminated or not avoids(r.longest_word, p):
            counter = {"pattern": p, "terminated": r.terminated}
            break
    if counter is None:
        tm = thue_morse_prefix(overlap_prefix)
        over = contains_overlap(tm)
        if over is not None:
            counter = {"overlap": over}
    if counter is None:
        tm_short = thue_morse_prefix(matcher_prefix)
        for p in ("xxx", "xyxyx"):
            if not avoids(tm_short, p):
                counter = {"pattern": p, "matcher_prefix": matcher_prefix}
                break
    if counter is None:
        sub = vf_square_limited_xyxyX()
        if not sub.passed:
            counter = {"square_limited": sub.counterexample}
    return VerificationReport(
        check_id="classical-seeds",
        claim="each of the five classical seeds has a binary avoider of length "
              f"{witness_len}; the Thue-Morse prefix of length {overlap_prefix} is "
              "overlap-free; the square-limited word avoids xyxyX",
        parameters={"witness_len": witness_len, "matcher_prefix": matcher_prefix,
                    "overlap_prefix": overlap_prefix},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"overlap_scan": overlap_prefix, "matcher_scan": matcher_prefix},
    )


# --- factor-locality of morphic images and Thue-Morse windows ---------------------

def vf_image_locality(morphism: str, max_len: int = 30) -> VerificationReport:
    """Short factors of m(t) appear in images of short Thue-Morse factors."""
    if morphism not in MORPHISMS or morphism == "h":
        raise ValueError("image locality applies to f1, f2, f3 or f4")
    m = MORPHISMS[morphism]
    tau, img, _ = _image_window(m, max_len)
    counter = None
    checked = 0
    for length in range(1, max_len + 1):
        bound = bound_factor_length(length, len(m[1]))
        # the images of the Thue-Morse factors of length bound
        src_tau, src, at = _image_window(m, length)
        images = {src[at[i]:at[i + bound]] for i in range(len(src_tau) - bound + 1)}
        for u in sorted(factor_set(img, length)):
            checked += 1
            if not any(u in s for s in images):
                counter = {"factor": u, "bound": bound}
                break
        if counter is not None:
            break
    return VerificationReport(
        check_id=f"image-locality-{morphism}",
        claim=f"every factor of {morphism}(t) up to length {max_len} is a factor of "
              f"{morphism}(v) for a Thue-Morse factor v within the derived length bound",
        parameters={"morphism": morphism, "max_len": max_len},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"image_prefix": len(tau), "factors_checked": checked},
    )


def vf_tm_prefix_covering(max_exp: int = 6, big_len: int = 7 * 256) -> VerificationReport:
    """Factors of length 2**e + 1 all occur in their covering prefix, of length 7 * 2**e."""
    big = thue_morse_prefix(big_len)
    counter = None
    for e in range(max_exp + 1):
        flen = (1 << e) + 1
        window = thue_morse_prefix(covering_prefix_length(flen))
        stray = factor_set(big, flen) - factor_set(window, flen)
        if stray:
            counter = {"exp": e, "factor": sorted(stray)[0]}
            break
    return VerificationReport(
        check_id="tm-prefix-covering",
        claim=f"for e = 0..{max_exp}, every factor of Thue-Morse of length 2^e + 1 "
              "occurs in the prefix of length 7 * 2^e",
        parameters={"max_exp": max_exp, "big_len": big_len},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"host_prefix": big_len},
    )


def vf_tm_desubstitution(prefix_len: int = 512) -> VerificationReport:
    """Odd-length factors come from images of half-length factors under h."""
    host = thue_morse_prefix(prefix_len)
    counter = cover = None
    for length in range(1, prefix_len + 1, 2):
        half = (length + 1) // 2
        # h doubles every letter, so the words h(v) less one letter at either
        # end, over the factors v of tau of half letters, are exactly the
        # factors of h(tau) of this odd length
        n = covering_prefix_length(half)
        if n != cover:  # n grows with half: one image per covering length
            cover, image = n, apply_binary_morphism(H, thue_morse_prefix(n))
        stray = {u for u in factor_set(host, length) if u not in image}
        if stray:
            counter = {"length": length, "factor": sorted(stray)[0]}
            break
    return VerificationReport(
        check_id="tm-desubstitution",
        claim=f"every odd-length factor of the length-{prefix_len} Thue-Morse prefix "
              "is a factor of h(v) for a factor v of half its rounded-up length",
        parameters={"prefix_len": prefix_len},
        passed=counter is None,
        counterexample=counter,
        searched_bound={"host_prefix": prefix_len},
    )


# --- registry ---------------------------------------------------------------------

def _host_covers_claim(max_exp: int, big_len: int) -> None:
    """A tm-prefix-covering host shorter than the covering prefix of factors
    four times as long as the longest claimed ones cannot test the claim."""
    if big_len < (least := covering_prefix_length((1 << (max_exp + 2)) + 1)):
        raise ValueError(f"big_len must be at least 7 * 2^(max_exp + 2) = {least} "
                         f"for max_exp={max_exp}, got {big_len}")


# check id -> (check, range (least, greatest) of each integer parameter, then any
# relation among its parameters).  A value outside its range would leave the check
# nothing to search, or a search it does not define: run_checks rejects it, and calls
# each relation, before any check runs.  What names the check, such as the morphism
# of image-locality, is bound into the callable, so no parameter can make one id run
# another check; so is an id's own default, which inspect.signature then reports.
CHECKS: dict[str, tuple] = {
    "square-limited": (vf_square_limited, {"n": (1, inf)}),
    "g-avoidance": (vf_g_avoidance, {"n": (4, inf)}),
    "square-limited-xyxyX": (vf_square_limited_xyxyX, {"n": (5, inf)}),
    "w1": (vf_w1, {}),
    "w2": (vf_w2, {}),
    "w3": (vf_w3, {"completion_len": (2, inf), "completion_factor_bound": (1, inf)}),
    "w3-contexts-repaired": (vf_w3_contexts_repaired, {}),
    "w4": (vf_w4, {}),
    "pigeonhole": (vf_pigeonhole, {"k": (1, 3)}),
    "alternating": (vf_alternating_theorem, {"max_len": (2, inf)}),
    "classifier-oracle": (vf_classifier_oracle, {
        "max_len": (1, 5), "avoider_len": (1, inf), "unavoidable_depth": (1, inf)}),
    "classical-seeds": (vf_classical_seed_avoiders, {
        "witness_len": (1, inf), "matcher_prefix": (1, inf), "overlap_prefix": (1, inf)}),
    "image-locality-f1": (partial(vf_image_locality, "f1"), {"max_len": (1, inf)}),
    "image-locality-f2": (partial(vf_image_locality, "f2"), {"max_len": (1, inf)}),
    "image-locality-f3": (partial(vf_image_locality, "f3", max_len=9), {"max_len": (1, inf)}),
    "image-locality-f4": (partial(vf_image_locality, "f4", max_len=21), {"max_len": (1, inf)}),
    "tm-prefix-covering": (vf_tm_prefix_covering, {"max_exp": (0, inf), "big_len": (1, inf)},
                           _host_covers_claim),
    "tm-desubstitution": (vf_tm_desubstitution, {"prefix_len": (1, inf)}),
}


def _typed(key: str, value: object, default: object) -> object:
    """A string value for a parameter whose default is an int, as an int."""
    if isinstance(value, str) and isinstance(default, int):
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} expects an integer, got {value!r}") from None
    return value


def run_checks(only: str | None = None, params: dict | None = None) -> list[VerificationReport]:
    """Run one named check or the whole registry, in registry order.

    Each selected check receives just the parameters its signature accepts,
    a string value (as the CLI passes) converted by ``int()`` where the
    parameter's default is an int; a parameter that no selected check accepts,
    a string there that ``int()`` rejects, a value outside the check's
    declared range for it, or values that break a relation the check declares
    among its parameters, is an error, raised before any check runs.
    A report that passed with every integer count in its ``searched_bound``
    at zero searched nothing, and raises RuntimeError.
    This is the one place a check is timed: each report's ``elapsed`` is set
    here, in seconds rounded to six digits.
    """
    import inspect

    params = params or {}
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check id {only!r}; expected one of {', '.join(CHECKS)}")
    selected = [only] if only is not None else list(CHECKS)
    accepted = {cid: inspect.signature(CHECKS[cid][0]).parameters for cid in selected}
    for key in params:
        if not any(key in names for names in accepted.values()):
            scope = f"check {only!r} does not accept" if only is not None else "no check accepts"
            raise ValueError(f"{scope} parameter {key!r}")
    calls = {}
    for cid, names in accepted.items():
        fn, ranges, *relations = CHECKS[cid]
        kwargs = {k: _typed(k, v, names[k].default) for k, v in params.items() if k in names}
        values = {k: q.default for k, q in names.items()} | kwargs
        for key, (least, greatest) in ranges.items():
            if not least <= values[key] <= greatest:
                bound = f">= {least}" if values[key] < least else f"<= {greatest}"
                raise ValueError(f"check {cid!r} needs parameter {key!r} {bound}, "
                                 f"got {values[key]!r}")
        for relation in relations:
            relation(**values)
        calls[cid] = fn, kwargs
    reports = []
    for cid, (fn, kwargs) in calls.items():
        started = time.perf_counter()
        report = fn(**kwargs)
        report.elapsed = round(time.perf_counter() - started, 6)
        counts = [v for v in report.searched_bound.values() if type(v) is int]
        if report.passed and counts and not any(counts):
            raise RuntimeError(f"check {cid!r} passed having searched nothing: "
                               f"searched_bound {report.searched_bound}")
        reports.append(report)
    return reports
