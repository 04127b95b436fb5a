"""Machine-checkable reproductions of every finite search the toolkit rests on.

Each ``vf_*`` function runs one bounded, deterministic check and returns a
VerificationReport: what was claimed, with which parameters, over which
search bounds, and a concrete counterexample whenever the check fails.
``run_checks`` drives the whole registry; the CLI ``verify`` command is a
thin wrapper around it.

Every check yields the counterexample of each failing clause, in clause
order, from a local ``failures()`` generator and hands it to ``_verdict``,
which takes the first and stops there: a failing report's ``searched_bound``
holds the counts reached at that clause.  ``w3`` evaluates all its clauses
before it yields one counterexample that names each clause that fails.

The morphic-image checks ``w1``, ``w2``, ``w3-contexts-repaired`` and ``w4``
are one function, ``vf_morphic``, over the rows of ``MORPHIC``.  Their window
lengths are derived at run time from ``bound_factor_length`` and the
Thue-Morse covering arithmetic, and pinned per row: a different derived value
fails the report.  ``w3`` and ``vf_morphic`` both name the factor length each
clause reads and read the largest window, from ``_largest_window``.  A variable
whose lowercase and uppercase slots both occur in the pattern is capped at
L - 1 by one clause, ``_reversal_bound`` at the row's length L; the pattern
text says which.  Each failing clause reports ``{"clause": name, ...}``.
The covering arithmetic of ``tm-prefix-covering`` rests on one clause,
``_fixed_point_break``: t[:n] is h(t[:ceil(n/2)]) cut to n letters, checked on
a host of 7 * 2**(max_exp + 2) letters and so on each of its prefixes.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product
from math import inf
from typing import NamedTuple

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
from .patterns import PATTERN_ALPHABET, canonical, factors, pattern_key, variable_counts
from .sequences import (
    ALLOWED_SQUARES,
    COMPLETION_FACTOR_BOUND,
    DEFAULT_LOOKAHEAD,
    F1,
    F2,
    F3,
    F4,
    H,
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
# reversals; none of length 7 does (the reversal clause of
# w3-contexts-repaired), so none longer does either.
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

# Greatest |X| and |Y| of the bounded instance searches in g and the square-limited word.
SQUARE_LIMITED_CAP = 15


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

    For a binary morphism m with m(0) = 0 and |m(1)| = image1_len = l, every
    occurrence of a factor u in m(t) lies in m(v) for the factor v of t whose
    letters' images it meets, and |v| <= floor(2(|u| + 3l - 3) / (l + 1)), the
    value returned.  Every l >= 1 is covered; at l = 1 the bound |u| is exact.

    Proof.  t = h(t) (the fixed-point clause), so t is a run of the blocks 01
    and 10, and a factor of t of length n holds at least floor((n - 1) / 2)
    whole blocks, hence as many 1s.  Let k = |v| >= 2.  The occurrence holds a
    letter of m(v[0]), a letter of m(v[-1]) and all of m(v[1:-1]), whose
    k - 2 letters hold at least (k - 4) / 2 ones, each l - 1 letters longer in
    the image than a 0.  So |u| >= 2 + (k - 2) + (l - 1)(k - 4) / 2, that is
    k <= 2(|u| + 2l - 2) / (l + 1), at most the bound since 2l - 2 <= 3l - 3.
    k = 1 needs |u| >= 1, where the bound is at least 2(3l - 2) // (l + 1) >= 1,
    and k = 0 only the empty u.  v extends rightwards to a factor of t of the
    bound's length, which ``tm-prefix-covering`` places in the prefix that
    ``_image_window`` maps: its image holds every factor of m(t) of length |u|.
    """
    if u_len < 0 or image1_len < 1:
        raise ValueError("factor length must be >= 0 and image length >= 1")
    return 2 * (u_len + 3 * image1_len - 3) // (image1_len + 1)


def _image_window(m: tuple[str, str], factor_len: int) -> tuple[str, str, list[int]]:
    """``tm_image`` of the Thue-Morse prefix whose m-image contains every
    m(t)-factor of the given length."""
    return tm_image(m, covering_prefix_length(bound_factor_length(factor_len, len(m[1]))))


def _largest_window(m: tuple[str, str],
                    factor_lengths: dict[str, int]) -> tuple[dict, tuple[str, str, list[int]]]:
    """The ``_image_window`` of each named factor length, and the largest of them,
    which holds every factor the others do."""
    windows = {name: _image_window(m, n) for name, n in factor_lengths.items()}
    return windows, max(windows.values(), key=lambda window: len(window[0]))


def _reversal_bound(m: tuple[str, str], length: int) -> tuple[str | None, int]:
    """The least reversible factor of m(t) of the given length L, or None, and
    the Thue-Morse prefix whose image was read.

    If x and x reversed both occur and |x| >= L, then z = x[:L] occurs, and z
    reversed, a suffix of x reversed, occurs too: z is reversible.  So when
    this returns None, every variable that a pattern uses in both orientations
    is shorter than L in any instance in m(t): its cap is L - 1.  The window
    holds every length-L factor of m(t), so None speaks for all of m(t).
    """
    tau, w, _ = _image_window(m, length)
    return min(reversible_factors(w, length), default=None), len(tau)


def _instance_length(p: str, max_x: int, max_y: int) -> int:
    """Length of the longest instance of p with |X| <= max_x and |Y| <= max_y."""
    a, b = variable_counts(p)
    return a * max_x + b * max_y


def _bounded_hit(w: str, p: str, max_x: int, max_y: int) -> dict | None:
    """Counterexample for a bounded instance search: the pattern and the
    least instance of it in w with |X| <= max_x and |Y| <= max_y, or None."""
    wit = find_instance_bounded(w, p, max_x, max_y)
    if wit is None:
        return None
    return {"pattern": p, "start": wit.start, "x": wit.x, "y": wit.y}


def _verdict(check_id: str, claim: str, parameters: dict, failures: Iterator[dict],
             searched_bound: dict) -> VerificationReport:
    """The report of a check that stops at its first failing clause: the first
    counterexample ``failures`` yields, or a pass if it yields none.  The
    generator may update ``searched_bound``, which is read only after it stops."""
    counter = next(failures, None)
    return VerificationReport(check_id, claim, parameters, counter is None, counter,
                              searched_bound)


# --- squares and the section-4 constructions --------------------------------------

def vf_square_limited(n: int = 2000) -> VerificationReport:
    """Square inventory of the square-limited word: exactly 00, 11, 0101."""
    w = square_limited_prefix(n)
    squares = collect_squares(w)

    def failures():
        if stray := sorted(squares - ALLOWED_SQUARES):
            yield {"square": stray[0]}
        if missing := sorted(ALLOWED_SQUARES - squares):
            yield {"missing_squares": missing}

    return _verdict(
        "square-limited",
        "every square factor of the square-limited word is one of 00, 11, 0101, "
        "all three occur, and 1010 never occurs",
        {"n": n, "lookahead": DEFAULT_LOOKAHEAD, "injected": False},  # a pinned key
        failures(), {"prefix_length": len(w)})


def mod3_step_violation(w: str) -> str | None:
    """First length-2 factor cd of a ternary word with c = d + 1 (mod 3)."""
    return next((w[i:i + 2] for i in range(len(w) - 1) if w[i:i + 2] in ("10", "21", "02")),
                None)


def vf_g_avoidance(n: int = 400) -> VerificationReport:
    """The ternary word g avoids xyxY and xyXY, plus its structure facts."""
    g = g_from(square_limited_prefix(n))
    cap = min(len(g) // 4, SQUARE_LIMITED_CAP)

    def failures():
        for p in ("xyxY", "xyXY"):
            if hit := _bounded_hit(g, p, cap, cap):
                yield hit
        if bad := mod3_step_violation(g):
            yield {"mod3_factor": bad}
        for f in FORBIDDEN_G_FACTORS:
            if f in g:
                yield {"forbidden_factor": f}

    return _verdict(
        "g-avoidance",
        "the ternary word g built from the square-limited word avoids xyxY and "
        "xyXY, has no length-2 factor cd with c = d+1 mod 3, and never contains "
        "220122201 or 012220122",
        {"n": n, "lookahead": DEFAULT_LOOKAHEAD, "max_x": cap, "max_y": cap},
        failures(), {"g_length": len(g)})


def vf_square_limited_xyxyX(n: int = 400) -> VerificationReport:
    """The square-limited word avoids xyxyX (and has no factor 1010)."""
    w = square_limited_prefix(n)
    cap = min(n // 5, SQUARE_LIMITED_CAP)

    def failures():
        if hit := _bounded_hit(w, "xyxyX", cap, cap):
            yield hit
        if "1010" in w:
            yield {"factor": "1010"}

    return _verdict(
        "square-limited-xyxyX",
        "the square-limited word avoids xyxyX; 1010 is not among its factors",
        {"n": n, "lookahead": DEFAULT_LOOKAHEAD, "max_x": cap, "max_y": cap},
        failures(), {"prefix_length": len(w)})


# --- the four morphic images ------------------------------------------------------

def _context_sets(w: str, y: str) -> tuple[set[str], set[str]]:
    """Length-3 words usable on the given side of both y and its reversal."""
    yr = y[::-1]
    triples = ["".join(t) for t in product("01", repeat=3)]
    left = {chi for chi in triples if chi + y in w and chi + yr in w}
    right = {chi for chi in triples if y + chi in w and yr + chi in w}
    return left, right


def _two_sided_contexts(w: str, palindromes: bool) -> Iterator[tuple[str, dict[str, list[str]]]]:
    """Each ``CONTEXT_TABLE`` entry y whose left and right context sets in w are
    both non-empty, with the sorted sets; palindromic entries only when asked."""
    for y in CONTEXT_TABLE:
        if palindromes or y != y[::-1]:
            left, right = _context_sets(w, y)
            if left and right:
                yield y, {"left": sorted(left), "right": sorted(right)}


def vf_w3(completion_len: int = 24) -> VerificationReport:
    """The five finite searches behind: w3 = f3(t) avoids xyxYx.

    Every clause is evaluated, and a failing report names each clause that
    fails.  The context-set clause is checked exactly as claimed and is KNOWN
    TO FAIL for the nine palindromic table entries: for a palindrome y the
    two conditions defining each context set collapse to one, and w3 really
    does contain, e.g., 011000, 110000, 000101 and 000010 (junction factors
    around image blocks), so both sets are non-empty for y = 000.  The
    repaired decomposition that the avoidance theorem actually needs is
    checked by the ``w3-contexts-repaired`` row of ``MORPHIC``.
    """
    windows, (tau, w, _) = _largest_window(F3, {
        "reversible": 6, "contexts": 9, "instances": _instance_length("xyxYx", 8, 2),
        "completions": completion_len})
    clauses: dict[str, bool] = {}

    def failures():
        evidence: dict[str, object] = {}  # empty evidence: the clause holds

        # (a) words readable both ways lie in the fixed 22-element set
        stray = set().union(*(reversible_factors(w, length) for length in range(1, 7)))
        evidence["reversible"] = sorted(stray - UPSILON)

        # (b) no length-3 context works on both sides of y and its reversal
        evidence["contexts"] = dict(_two_sided_contexts(w, palindromes=True))

        # (c) no short instance of xyxYx
        evidence["instances"] = _bounded_hit(w, "xyxYx", 8, 2)

        # (d) every length-9 factor contains 11
        evidence["length-9"] = sorted(z for z in factor_set(w, 9) if "11" not in z)[:3]

        # (e) factors ending in 11 have exactly one left completion; asked
        # longest first, so one completion table serves every length
        us = [u for length in range(2, completion_len + 1) for u in sorted(factor_set(w, length))
              if u.endswith("11")]
        found = {u: left_completions(u, F3) for u in reversed(us)}
        evidence["completions"] = {u: found[u] for u in us if len(found[u]) != 1}

        clauses.update({name: not ev for name, ev in evidence.items()})
        if failed := [name for name, ok in clauses.items() if not ok]:
            yield {"clauses": failed, "details": {name: evidence[name] for name in failed}}

    return _verdict(
        "w3",
        "f3(t): reversible factors up to length 6 lie in the 22-word table, "
        "their two-sided length-3 contexts never coexist outside {0,1,00}, no "
        "instance of xyxYx with |X|<=8,|Y|<=2, every length-9 factor contains "
        "11, and factors ending in 11 have unique left completions",
        {"completion_len": completion_len, "completion_factor_bound": COMPLETION_FACTOR_BOUND},
        failures(), {"tm_prefix": len(tau),
                     "per_clause": {clause: len(t) for clause, (t, _, _) in windows.items()},
                     "image_length": len(w), "clause_results": clauses})


def _w3_contexts(tau: str, w: str, at: list[int]) -> Iterator[dict]:
    """Non-palindromic table entries are excluded by the two-sided context
    sets; the palindromic ones, for which that argument cannot work, by the
    bounded instance search at every table length.  Together with the
    unique-left-completion machinery for |X| >= 9 this is what the avoidance
    proof consumes."""
    for y, sets in _two_sided_contexts(w, palindromes=False):
        yield {"clause": "contexts", "y": y, **sets}


def internal_factors(w: str, min_len: int) -> set[str]:
    """Factors of w of at least min_len letters touching neither end."""
    return {w[i:j] for i in range(1, len(w)) for j in range(i + min_len, len(w))}


# Lengths of the bispecial factors of w4 that must be image words.
BISPECIAL_RANGE = (6, 24)


def _w4_blocks(tau: str, w: str, at: list[int]) -> Iterator[dict]:
    """Where 011, the long internal factors of f4(1) and the long bispecial
    factors of w4 sit among the image blocks."""
    # every 011 ends an image block of 1
    one_ends = {at[i + 1] for i, c in enumerate(tau) if c == "1"}
    i = w.find("011")
    while i != -1:
        if i + 3 not in one_ends:
            yield {"clause": "alignment", "position": i}
        i = w.find("011", i + 1)

    # the long internal factors of f4(1) are the six known words and occur
    # only inside image blocks of 1
    expected = {"000010", "000100", "001001", "0000100", "0001001", "00001001"}
    if (got := internal_factors(F4[1], 6)) != expected:
        yield {"clause": "internal", "got": sorted(got)}
    one_spans = [(at[i], at[i + 1]) for i, c in enumerate(tau) if c == "1"]
    for u in sorted(expected):
        i = w.find(u)
        while i != -1:
            if not any(s <= i and i + len(u) <= e for s, e in one_spans):
                yield {"clause": "internal-placement", "factor": u, "position": i}
            i = w.find(u, i + 1)

    # bispecial factors in the range are image words
    least, greatest = BISPECIAL_RANGE
    images = tm_factor_images(F4, greatest)
    for y in sorted(bispecial_factors(w, greatest)):
        if len(y) >= least and y not in images:
            yield {"clause": "bispecial", "factor": y}


class Morphic(NamedTuple):
    """A row of ``MORPHIC``: the image m(t) of Thue-Morse avoids the pattern."""

    morphism: tuple[str, str]
    pattern: str
    reversible_length: int  # L: m(t) has no reversible factor of length L
    one_way_cap: int | None  # the cap of a variable the pattern uses one way only
    pinned: list[int]  # derived [reversal prefix, instance prefix, image length]
    claim: str
    clauses: Callable[[str, str, list[int]], Iterator[dict]] | None = None  # (tau, image, offsets)
    windows: dict[str, int] = {}  # factor length of each further window, by clause
    parameters: dict[str, object] = {}


MORPHIC = {
    "w1": Morphic(F1, "xyxYX", 7, None, [56, 112, 672],
                  "f1(t) has no length-7 factor z with z reversed also a factor, and no "
                  "instance of xyxYX with |X|,|Y| <= 6; hence w1 avoids xyxYX"),
    "w2": Morphic(F2, "xyXYx", 7, None, [56, 112, 504],
                  "f2(t) restricted to the covering prefix (length 504) has no instance "
                  "of xyXYx with |X|,|Y| <= 6; hence w2 avoids xyXYx"),
    "w3-contexts-repaired": Morphic(
        F3, "xyxYx", 7, 8, [56, 112, 392],
        "non-palindromic reversible factors of w3 outside {0,1,00} fail one of "
        "the two-sided context sets, and no instance of xyxYx with |X| <= 8 and "
        "|Y| <= 6 occurs at all", _w3_contexts),
    # a bispecial y of length up to 24 shows as its extensions ayb, 26 letters long
    "w4": Morphic(
        F4, "xyXyx", 21, 5, [56, 112, 616],
        "f4(t): no reversible length-21 factor, no instance of xyXyx with "
        "|X|<=20,|Y|<=5 in the covering image, 011 occurs only as an image-block "
        "suffix, the six long internal factors of f4(1) stay inside blocks, and "
        "long bispecial factors are image words", _w4_blocks,
        {"bispecial": BISPECIAL_RANGE[1] + 2}, {"bispecial_range": list(BISPECIAL_RANGE)}),
}


def vf_morphic(check_id: str) -> VerificationReport:
    """The finite searches behind: the image of ``MORPHIC[check_id]`` avoids
    its pattern.

    A variable whose lowercase and uppercase slots both occur in the pattern
    is capped at L - 1 by the reversal clause, L the row's reversible length;
    a variable used one way takes the row's one-way cap.  The derived-lengths
    clause, the reversal clause and the bounded instance search run first,
    then the row's own clauses; all but the reversal clause read the largest
    window the row needs.  A failing clause reports {"clause": name, ...}.
    """
    row = MORPHIC[check_id]
    m, p, length = row.morphism, row.pattern, row.reversible_length
    max_x, max_y = (length - 1 if v in p and v.upper() in p else row.one_way_cap for v in "xy")
    reversible, rev_prefix = _reversal_bound(m, length)
    factor_lengths = {"instances": _instance_length(p, max_x, max_y), **row.windows}
    windows, (tau, w, at) = _largest_window(m, factor_lengths)
    derived = [rev_prefix, len(windows["instances"][0]), len(w)]

    def failures():
        if derived != row.pinned:
            yield {"clause": "derived", "lengths": derived}
        if reversible:
            yield {"clause": "reversible", "factor": reversible}
        if hit := _bounded_hit(w, p, max_x, max_y):
            yield {"clause": "instances", **hit}
        if row.clauses:
            yield from row.clauses(tau, w, at)

    return _verdict(
        check_id, row.claim,
        {"reversible_length": length, "max_x": max_x, "max_y": max_y, **row.parameters},
        failures(), {"tm_prefix": len(tau), "image_length": len(w),
                     "tm_prefix_reversible": rev_prefix, "tm_prefix_instances": derived[1],
                     "per_clause": {"reversible": rev_prefix} | {
                         name: len(t) for name, (t, _, _) in windows.items()},
                     "factor_bounds": [bound_factor_length(n, len(m[1]))
                                       for n in (length, *factor_lengths.values())]})


# --- unavoidability, the alternating word, and the classifier oracle --------------

def vf_pigeonhole(k: int = 2) -> VerificationReport:
    """Every word of length 2k+1 over k letters contains xyx and xyX."""
    length = 2 * k + 1
    digits = "".join(str(d) for d in range(k))
    searched_bound = {"words_checked": 0}

    def failures():
        for tup in product(digits, repeat=length):
            w = "".join(tup)
            searched_bound["words_checked"] += 1
            for p in ("xyx", "xyX"):
                if find_instance(w, p) is None:
                    yield {"word": w, "pattern": p}

    return _verdict(
        "pigeonhole",
        f"every word of length {length} over {k} letters contains an instance "
        "of xyx and of xyX",
        {"k": k, "word_length": length}, failures(), searched_bound)


def vf_alternating_theorem(max_len: int = 4) -> VerificationReport:
    """Graph bipartiteness coincides with having an instance in 0101..."""
    searched_bound = {"patterns_checked": 0, "image_bounds": [2, 2]}

    def failures():
        for length in range(2, max_len + 1):
            for tup in product(PATTERN_ALPHABET, repeat=length):
                p = "".join(tup)
                searched_bound["patterns_checked"] += 1
                bip = bipartite_check(pattern_graph(p)).is_bipartite
                host = alternating_prefix(4 * length + 4)
                brute = find_instance_bounded(host, p, 2, 2) is not None
                construction = instance_in_alternating(p) is not None
                if not (bip == brute == construction):
                    yield {"pattern": p, "bipartite": bip, "brute_force": brute,
                           "construction": construction}

    return _verdict(
        "alternating",
        "for every pattern of length 2..{}: the pattern graph is 2-colorable "
        "exactly when 0101... contains an instance (images of 1 or 2 letters "
        "suffice)".format(max_len),
        {"max_len": max_len}, failures(), searched_bound)


def _class_verdict(c: str, avoider_len: int, unavoidable_depth: int, searches: dict,
                   witness_factors: dict) -> tuple[Avoidability, dict | None]:
    """The searched avoidability index of the class c, and a problem or None.

    A word that avoids a factor of c avoids c.  So for k = 2 and then k = 3,
    the canonical proper factors of c are searched first, shortest first with
    ties broken by ``pattern_key``, then c itself; the first tree that reaches
    ``avoider_len`` letters over k gives the index, and its pattern is
    recorded in ``witness_factors``.  Every exhaustion certificate is thus a
    search on c.  The problem is None, or the witness when the search ran out
    of budget or the matcher refutes it against c, or the ternary depth when
    an unavoidable class's tree reaches ``unavoidable_depth``.  ``searches``
    memoises prover reports by (pattern, k).
    """
    proper = sorted({canonical(u) for u in factors(c) if len(u) < len(c)},
                    key=lambda q: (len(q), pattern_key(q)))
    for k, index in ((2, Avoidability.TWO), (3, Avoidability.THREE)):
        for q in proper + [c]:
            if (q, k) not in searches:
                searches[q, k] = prove_k_unavoidable(q, k, avoider_len)
            report = searches[q, k]
            if not report.terminated:
                witness_factors[c] = q
                if report.inconclusive or not avoids(report.longest_word, c):
                    return index, {"alphabet": k, "searched": q, "witness": report.longest_word}
                return index, None
    if report.longest_word_length >= unavoidable_depth:
        return Avoidability.UNAVOIDABLE, {"ternary_longest": report.longest_word_length}
    return Avoidability.UNAVOIDABLE, None


def vf_classifier_oracle(max_len: int = 4, avoider_len: int = 200,
                         unavoidable_depth: int = 60) -> VerificationReport:
    """The closed-form classifier agrees with exhaustive search everywhere.

    Avoidability is class-invariant, so ``_class_verdict`` searches each
    equivalence class once, and ``classify`` is checked against every pattern
    of the class.  A pattern fails when its class's search reports a problem
    or a verdict other than the classifier's.  ``witness_factors`` names, per
    class with a witness, the pattern whose tree supplied it; ``prove_nodes``
    counts the nodes of each distinct (pattern, alphabet) search once, factor
    searches included.
    """
    searches: dict[tuple[str, int], BacktrackReport] = {}
    verdicts: dict[str, tuple] = {}
    witness_factors: dict[str, str] = {}
    searched_bound = {"patterns_checked": 0, "classes_searched": 0, "prove_nodes": 0,
                      "witness_factors": witness_factors}

    def failures():
        for length in range(1, max_len + 1):
            for tup in product(PATTERN_ALPHABET, repeat=length):
                p = "".join(tup)
                searched_bound["patterns_checked"] += 1
                c = canonical(p)
                if c not in verdicts:
                    verdicts[c] = _class_verdict(c, avoider_len, unavoidable_depth, searches,
                                                 witness_factors)
                    nodes = sum(r.nodes_visited for r in searches.values())
                    searched_bound.update(classes_searched=len(verdicts), prove_nodes=nodes)
                searched, problem = verdicts[c]
                if problem is None and classify(p) is not searched:
                    problem = {"classifier": classify(p).value, "search": searched.value}
                if problem is not None:
                    yield {"pattern": p, **problem}

    return _verdict(
        "classifier-oracle",
        "for every pattern up to length {}: index 2 iff a binary avoider of "
        "length {} exists, unavoidable iff the ternary tree dies below depth "
        "{}, index 3 otherwise with a ternary avoider found".format(
            max_len, avoider_len, unavoidable_depth),
        {"max_len": max_len, "avoider_len": avoider_len,
         "unavoidable_depth": unavoidable_depth},
        failures(), searched_bound)


def vf_classical_seed_avoiders(witness_len: int = 200,
                               matcher_prefix: int = 400,
                               overlap_prefix: int = 2000) -> VerificationReport:
    """Binary avoiders exist for the five classical seeds; t is overlap-free.

    Thue-Morse is checked for xxx/xyxyx instances through the equivalent
    a.z.a.z.a factor scan at full length and through the generic matcher on a
    shorter prefix; the square-limited word supplies the xyxyX witness.
    """
    def failures():
        for p in sorted(SEED_PARTITION["classical"]):
            r = prove_k_unavoidable(p, 2, witness_len)
            if r.terminated or not avoids(r.longest_word, p):
                yield {"pattern": p, "terminated": r.terminated}
        if over := contains_overlap(thue_morse_prefix(overlap_prefix)):
            yield {"overlap": over}
        tm_short = thue_morse_prefix(matcher_prefix)
        for p in ("xxx", "xyxyx"):
            if not avoids(tm_short, p):
                yield {"pattern": p, "matcher_prefix": matcher_prefix}
        if not (sub := vf_square_limited_xyxyX()).passed:
            yield {"square_limited": sub.counterexample}

    return _verdict(
        "classical-seeds",
        "each of the five classical seeds has a binary avoider of length "
        f"{witness_len}; the Thue-Morse prefix of length {overlap_prefix} is "
        "overlap-free; the square-limited word avoids xyxyX",
        {"witness_len": witness_len, "matcher_prefix": matcher_prefix,
         "overlap_prefix": overlap_prefix},
        failures(), {"overlap_scan": overlap_prefix, "matcher_scan": matcher_prefix})


# --- Thue-Morse windows -------------------------------------------------------------

def _fixed_point_break(n: int) -> int | None:
    """First position where t[:n] and h(t[:ceil(n/2)]) differ, or None; an image shorter
    than the host differs where it ends.  None gives h(t[:m]) = t[:2m] for m <= n / 2."""
    host = thue_morse_prefix(n)
    image = apply_binary_morphism(H, thue_morse_prefix((n + 1) // 2))[:n]
    return next((i for i, (a, b) in enumerate(zip(host, image)) if a != b),
                None if host == image else min(len(host), len(image)))


def vf_tm_prefix_covering(max_exp: int = 6) -> VerificationReport:
    """Factors of length 2**e + 1 all occur in their covering prefix, of length 7 * 2**e.

    By induction on e.  Base: 00, 01, 10 and 11 occur in t[:7].  Step: a factor of
    length 2**(e+1) + 1 at i, of either parity, lies in h(v) for the 2**e + 1 letters
    v of t from i // 2; v occurs in t[:7 * 2**e], so h(v) occurs in h(t[:7 * 2**e]) =
    t[:7 * 2**(e+1)], the next covering prefix when the covering lengths double.  The
    host, 7 * 2**(max_exp + 2) letters, settles h(t[:m]) = t[:2m] for every step.
    """
    big_len = covering_prefix_length((1 << (max_exp + 2)) + 1)

    def failures():
        base = thue_morse_prefix(covering_prefix_length(2))
        if missing := [u for u in ("00", "01", "10", "11") if u not in base]:
            yield {"exp": 0, "factor": missing[0]}
        for e in range(max_exp):
            pair = [covering_prefix_length((1 << k) + 1) for k in (e, e + 1)]
            if pair[1] != 2 * pair[0]:
                yield {"exp": e + 1, "covering": pair}
        if (at := _fixed_point_break(big_len)) is not None:
            yield {"position": at}

    return _verdict(
        "tm-prefix-covering",
        f"for e = 0..{max_exp}, every factor of Thue-Morse of length 2^e + 1 "
        "occurs in the prefix of length 7 * 2^e",
        {"max_exp": max_exp, "big_len": big_len}, failures(), {"host_prefix": big_len})


# --- registry ---------------------------------------------------------------------

# check id -> (check, range (least, greatest) of each of its parameters, all integers).
# A value outside its range would leave the check nothing to search, or a search it does
# not define or cannot afford: run_checks rejects it before any check runs.  What names
# the check, such as the MORPHIC row of w1..w4 or the word square-limited reads, is not
# a parameter, so no parameter can make one id run another check.
CHECKS: dict[str, tuple] = {
    "square-limited": (vf_square_limited, {"n": (7, inf)}),
    "g-avoidance": (vf_g_avoidance, {"n": (4, inf)}),
    "square-limited-xyxyX": (vf_square_limited_xyxyX, {"n": (5, inf)}),
    "w1": (partial(vf_morphic, "w1"), {}),
    "w2": (partial(vf_morphic, "w2"), {}),
    "w3": (vf_w3, {"completion_len": (2, inf)}),
    "w3-contexts-repaired": (partial(vf_morphic, "w3-contexts-repaired"), {}),
    "w4": (partial(vf_morphic, "w4"), {}),
    "pigeonhole": (vf_pigeonhole, {"k": (1, 3)}),
    "alternating": (vf_alternating_theorem, {"max_len": (2, inf)}),
    "classifier-oracle": (vf_classifier_oracle, {
        "max_len": (1, 5), "avoider_len": (1, inf), "unavoidable_depth": (1, inf)}),
    "classical-seeds": (vf_classical_seed_avoiders, {
        "witness_len": (1, inf), "matcher_prefix": (1, inf), "overlap_prefix": (1, inf)}),
    "tm-prefix-covering": (vf_tm_prefix_covering, {"max_exp": (0, 12)}),
}


def _integer(key: str, value: object) -> int:
    """The value of an integer parameter: an int that is not a bool, or an
    ASCII string (as the CLI passes) that ``int()`` reads."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii():
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"parameter {key!r} expects an integer, got {value!r}")


def run_checks(only: str | None = None, params: dict | None = None) -> list[VerificationReport]:
    """Run one named check or the whole registry, in registry order.

    Every parameter is an integer, and a check accepts exactly the keys whose
    ranges ``CHECKS`` declares for it.  Each selected check receives the given
    values of its keys, a string (as the CLI passes) converted by ``int()``.
    A parameter that no selected check accepts, a value that is neither an int
    (not a bool) nor a string ``int()`` reads, a value outside the check's
    declared range for it, or a parameter that several selected checks accept
    (it would set them all), is an error, raised before any check runs.
    A report that passed with every integer count in its ``searched_bound``
    at zero searched nothing, and raises RuntimeError.
    This is the one place a check is timed: each report's ``elapsed`` is set
    here, in seconds rounded to six digits.
    """
    params = params or {}
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check id {only!r}; expected one of {', '.join(CHECKS)}")
    selected = [only] if only is not None else list(CHECKS)
    for key in params:
        if not any(key in CHECKS[cid][1] for cid in selected):
            scope = f"check {only!r} does not accept" if only is not None else "no check accepts"
            raise ValueError(f"{scope} parameter {key!r}")
    calls = {}
    for cid in selected:
        fn, ranges = CHECKS[cid]
        kwargs = {k: _integer(k, v) for k, v in params.items() if k in ranges}
        for key, value in kwargs.items():
            least, greatest = ranges[key]
            if not least <= value <= greatest:
                bound = f">= {least}" if value < least else f"<= {greatest}"
                raise ValueError(f"check {cid!r} needs parameter {key!r} {bound}, got {value!r}")
        calls[cid] = fn, kwargs
    for key in params:
        sharing = [cid for cid, (_, kwargs) in calls.items() if key in kwargs]
        if len(sharing) > 1:
            raise ValueError(f"parameter {key!r} is accepted by several selected checks "
                             f"({', '.join(sharing)}); select one of them")
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
