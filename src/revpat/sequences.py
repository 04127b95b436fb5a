"""Generators for the concrete word families and their factor machinery.

The families, addressed by the ids in ``SEQUENCE_IDS``:

* ``thue-morse`` -- the fixed point t of 0 -> 01, 1 -> 10, starting from 0.
* ``alternating`` -- 010101...
* ``square-limited`` -- the lexicographically least infinite binary word whose
  only square factors are ``ALLOWED_SQUARES``: 00, 11 and 0101.  It is
  produced by depth-first backtracking over one growing word; a prefix of
  length n is emitted only once that word has a valid extension by
  ``DEFAULT_LOOKAHEAD`` (100) further letters.  Backtracking across an
  already emitted boundary would invalidate earlier output and raises
  instead of being absorbed.  Grown a letter at a time through its first
  30,100 letters, the search revises no letter more than 17 places below
  the length it grows to (that deep first at 508), so the lookahead's
  margin is 83 letters.
* ``g-ternary`` -- the ternary word obtained from the square-limited word by
  replacing every factor 10 with 12220.
* ``w1`` .. ``w4`` -- images of t under the binary morphisms F1 .. F4 below.

Everything downstream treats these as pure prefix functions: prefix(m) is a
prefix of prefix(n) for m <= n.

The repetition scans take ASCII digit words (else ``ValueError`` naming the
position) and read their answers off ``_periodic_runs``, one C-speed scan
per period; ``contains_overlap`` reports the least start, then least period.
Those scans XOR the word's bytes, read once as one integer, the only byte
form a word takes: every other word here, the square-limited generator's
included, is a ``str``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, islice

from .matcher import _square_halves, parse_word

# Binary morphisms as (image of 0, image of 1).
H = ("01", "10")
F1 = ("0", "00101101111")
F2 = ("0", "00101111")
F3 = ("0", "001011")
F4 = ("0", "1000010011")

MORPHISMS = {"h": H, "f1": F1, "f2": F2, "f3": F3, "f4": F4}

DEFAULT_LOOKAHEAD = 100

ALLOWED_SQUARES = frozenset({"00", "11", "0101"})


class _BinaryImages(dict):
    """``str.translate`` table of a binary morphism; other letters raise."""

    def __missing__(self, code: int):
        raise ValueError(f"letter {chr(code)!r} is not binary: expected 0 or 1")


def apply_binary_morphism(m: tuple[str, str], w: str) -> str:
    """Letterwise image of a binary word under the morphism m."""
    return w.translate(_BinaryImages({48: m[0], 49: m[1]}))


# --- Thue-Morse ---------------------------------------------------------------

_tm_cache = "0"


def thue_morse_prefix(n: int) -> str:
    """Length-n prefix of the Thue-Morse word."""
    global _tm_cache
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    while len(_tm_cache) < n:
        _tm_cache = apply_binary_morphism(H, _tm_cache)
    return _tm_cache[:n]


def tm_image(m: tuple[str, str], n: int) -> tuple[str, str, list[int]]:
    """The length-n Thue-Morse prefix tau, its image under m, and offsets.

    ``at[i]`` is where the image of ``tau[i]`` starts and ``at[n]`` is the
    image's length, so, m being a morphism, the image of ``tau[i:j]`` is
    ``image[at[i]:at[j]]``.
    """
    tau = thue_morse_prefix(n)
    at = list(accumulate((len(m[int(c)]) for c in tau), initial=0))
    return tau, apply_binary_morphism(m, tau), at


def alternating_prefix(n: int) -> str:
    """Length-n prefix of 010101..."""
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    return ("01" * (n // 2 + 1))[:n]


def covering_prefix_length(factor_len: int) -> int:
    """Thue-Morse prefix length guaranteed to contain every factor this short.

    All length-2 factors occur in the length-7 prefix, and factors of length
    2**e + 1 occur in the prefix of length 7 * 2**e; the returned value is the
    smallest such 7 * 2**e covering the requested factor length.
    """
    if factor_len < 0:
        raise ValueError("factor length must be >= 0")
    return 7 << max(factor_len - 2, 0).bit_length()


# --- the square-limited word ----------------------------------------------------

# The raw DFS word, newest letter first: n + DEFAULT_LOOKAHEAD letters for the largest n emitted.
_sl_word = ""


def _ends_in_forbidden_square(word: str) -> bool:
    """Does ``word``, newest letter first, start with a square whose
    reversal is not in ``ALLOWED_SQUARES``?"""
    return any(word[:2 * half][::-1] not in ALLOWED_SQUARES
               for half in _square_halves(word, 0, 1, len(word) // 2))


def _extend_square_limited(word: str, target: int, floor: int) -> str:
    """The raw DFS word grown to ``target`` letters, backtracking as needed.

    ``floor`` letters have already been handed out to callers and may not be
    revised; crossing that boundary is a hard error.
    """
    c = "0"  # try 0 first: the generated word is lexicographically least
    while len(word) < target:
        word = c + word
        bad = _ends_in_forbidden_square(word)
        if bad:
            # drop the failed letter and every 1 before it; the 0 reached becomes a 1
            word = word.lstrip("1")
            if len(word) <= floor:
                raise RuntimeError(
                    "square-limited generation backtracked across an emitted prefix; "
                    "increase DEFAULT_LOOKAHEAD"
                )
            word = word[1:]
        c = "1" if bad else "0"
    return word


def square_limited_prefix(n: int) -> str:
    """Length-n prefix of the least binary word whose squares are ``ALLOWED_SQUARES``."""
    global _sl_word
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if n and len(_sl_word) < n + DEFAULT_LOOKAHEAD:
        _sl_word = _extend_square_limited(_sl_word, n + DEFAULT_LOOKAHEAD,
                                          max(len(_sl_word) - DEFAULT_LOOKAHEAD, 0))
    return _sl_word[len(_sl_word) - n:][::-1]


def g_from(fw: str) -> str:
    """Ternary word obtained by replacing every factor 10 with 12220.

    Occurrences of 10 never overlap, and the replacement starts with the same
    letter 1, so the image of a prefix stays a prefix of the image.
    """
    return fw.replace("10", "12220")


# --- factor machinery -----------------------------------------------------------

def factor_set(w: str, length: int) -> set[str]:
    """All distinct factors of w of exactly the given length."""
    if not 0 <= length <= len(w):
        raise ValueError(f"factor length {length} outside 0..{len(w)}")
    return {w[i:i + length] for i in range(len(w) - length + 1)}


def reversible_factors(w: str, length: int) -> set[str]:
    """Factors z of the given length whose reversal is also a factor."""
    fs = factor_set(w, length)
    return {z for z in fs if z[::-1] in fs}


def bispecial_factors(w: str, max_len: int) -> set[str]:
    """Non-empty factors y with 0y, 1y, y0 and y1 all factors of w, up to
    max_len letters; 0y is a factor, so no y is longer than len(w) - 1."""
    out = set()
    for length in range(1, min(max_len, len(w) - 1) + 1):
        for y in factor_set(w, length):
            if "0" + y in w and "1" + y in w and y + "0" in w and y + "1" in w:
                out.add(y)
    return out


_ZEROS = re.compile(rb"\0+")


def _periodic_runs(word: int, size: int, period: int, min_len: int):
    """Maximal stretches (i, j), period < min_len <= j - i, left to right, with
    data[k] == data[k + period] for i <= k < j - period: the runs of zero
    bytes of data XOR data shifted by the period (0 < period < size).

    ``word`` is the ``size`` bytes of data read as one big-endian integer, so
    one conversion serves every period: shifted right by the period it is
    data[:size - period], and masked to its low size - period bytes it is
    data[period:].
    """
    n = size - period
    diff = ((word >> 8 * period) ^ (word & ((1 << 8 * n) - 1))).to_bytes(n, "big")
    need = b"\0" * (min_len - period)
    k = diff.find(need)
    while k >= 0:
        end = _ZEROS.match(diff, k).end()
        yield k, end + period
        k = diff.find(need, end)


def collect_squares(w: str) -> set[str]:
    """Every square factor uu of w (the squares themselves, not positions)."""
    word = int.from_bytes(parse_word(w).encode(), "big")
    # a run of period h holds at most h distinct squares of half-length h
    return {w[s:s + 2 * h] for h in range(1, len(w) // 2 + 1)
            for i, j in _periodic_runs(word, len(w), h, 2 * h)
            for s in range(i, min(j - 2 * h, i + h - 1) + 1)}


def contains_overlap(w: str) -> str | None:
    """The factor a.z.a.z.a (a a letter, z possibly empty) with the least
    start and, among those, the least period |az|; None when w has none.

    Such a factor exists exactly when w contains an instance of xxx or of
    xyxyx, so this is the fast equivalent of those two pattern searches.
    """
    word = int.from_bytes(parse_word(w).encode(), "big")
    first = min(((i, p) for p in range(1, (len(w) - 1) // 2 + 1)
                 for i, _ in islice(_periodic_runs(word, len(w), p, 2 * p + 1), 1)), default=None)
    return first and w[first[0]:first[0] + 2 * first[1] + 1]


# --- left completions -----------------------------------------------------------

@lru_cache(maxsize=32)
def tm_factor_images(m: tuple[str, str], max_factor_len: int) -> frozenset[str]:
    """Images under m of all Thue-Morse factors of length 1..max_factor_len."""
    tau, image, at = tm_image(m, covering_prefix_length(max_factor_len))
    return frozenset({image[at[i]:at[i + length]]
                      for length in range(1, max_factor_len + 1)
                      for i in range(len(tau) - length + 1)})


# Longest Thue-Morse factor whose image ``left_completions`` searches.
COMPLETION_FACTOR_BOUND = 64

# The largest left-completion table built so far per morphism, after its bound.
_completion_tables: dict[tuple[str, str], tuple[int, dict[str, int], list[tuple[str, int]]]] = {}


def _completion_table(m: tuple[str, str], bound: int) -> tuple[dict[str, int], list[tuple[str, int]]]:
    """Each image of a Thue-Morse factor of length 1..bound, with the least
    length of a factor having it; and those pairs with each image reversed,
    sorted.

    The images whose least length is at most L <= bound are exactly
    ``tm_factor_images(m, L)``: the covering prefix read here holds every
    factor of length 1..L, as the one that function reads does.
    """
    tau, image, at = tm_image(m, covering_prefix_length(bound))
    # longest first, so each image keeps the least length that gives it
    least = {image[at[i]:at[i + length]]: length
             for length in range(bound, 0, -1) for i in range(len(tau) - length + 1)}
    return least, sorted((v[::-1], length) for v, length in least.items())


def left_completions(u: str, m: tuple[str, str]) -> list[str]:
    """All image words v = m(t) ending in u whose shorter image-suffixes miss u.

    A word v qualifies when u is a suffix of v but u is not a suffix of any
    proper suffix of v that is itself an image of a Thue-Morse factor; since u
    and those suffixes are all suffixes of v, the latter just means no proper
    image-suffix of v has length >= |u|.  The search covers images of factors
    up to COMPLETION_FACTOR_BOUND letters, but only factors up to |u| letters
    matter, as m is non-erasing: m(s) has the proper image-suffix m(s[1:]) of
    at least |s| - 1 letters, so it qualifies only when |s| <= |u|; and a
    proper image-suffix m(s') with |s'| > |u| ends in m(s''), s'' the
    |u|-letter suffix of s', which is itself at least |u| letters long.  So
    the images of factors up to L = min(COMPLETION_FACTOR_BOUND, |u|) letters
    give the same answer.

    One table per morphism serves every L: it is built again only when a
    query needs a larger bound than the largest built so far, and read at L
    through its least lengths.  The images ending in u are one ``bisect``
    range of the reversed images, and only those are checked for a long
    image-suffix.
    """
    if not u:
        raise ValueError("left completions are defined for non-empty factors")
    if m[0] != "0":
        raise ValueError("left completions expect a morphism fixing 0")
    bound = min(COMPLETION_FACTOR_BOUND, len(u))
    if m not in _completion_tables or _completion_tables[m][0] < bound:
        _completion_tables[m] = (bound, *_completion_table(m, bound))
    _, least, reversed_images = _completion_tables[m]
    key = u[::-1]
    found = []
    i = bisect_left(reversed_images, (key,))
    while i < len(reversed_images) and reversed_images[i][0].startswith(key):
        r, length = reversed_images[i]
        i += 1
        if length <= bound:
            v = r[::-1]
            for n in range(len(u), len(v)):
                if least.get(v[-n:], bound + 1) <= bound:
                    break
            else:
                found.append(v)
    return sorted(found, key=lambda v: (len(v), v))


# --- unified prefix access ----------------------------------------------------

_PREFIXES = {
    "thue-morse": thue_morse_prefix,
    "alternating": alternating_prefix,
    "square-limited": square_limited_prefix,
    "g-ternary": lambda n: g_from(square_limited_prefix(n))[:n],
    **{"w" + name[1:]: lambda n, m=m: apply_binary_morphism(m, thue_morse_prefix(n))[:n]
       for name, m in MORPHISMS.items() if m != H},
}

SEQUENCE_IDS = tuple(_PREFIXES)


def sequence_prefix(seq_id: str, n: int) -> str:
    """Length-n prefix of one of the named sequences."""
    if seq_id not in _PREFIXES:
        raise ValueError(f"unknown sequence id {seq_id!r}; expected one of {', '.join(SEQUENCE_IDS)}")
    return _PREFIXES[seq_id](n)
