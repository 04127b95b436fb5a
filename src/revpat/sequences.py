"""Generators for the concrete word families and their factor machinery.

The families, addressed by the ids in ``SEQUENCE_IDS``:

* ``thue-morse`` -- the fixed point t of 0 -> 01, 1 -> 10, starting from 0.
* ``alternating`` -- 010101...
* ``square-limited`` -- the lexicographically least infinite binary word whose
  only square factors are 00, 11 and 0101.  It is produced by depth-first
  backtracking over one growing word; a prefix of length n is emitted only
  once that word has a valid extension by ``DEFAULT_LOOKAHEAD`` (100) further
  letters.  Backtracking across an already emitted boundary would invalidate
  earlier output and raises instead of being absorbed.  Grown a letter at a
  time through its first 30,100 letters, the search revises no letter more
  than 17 places below the length it grows to (that deep first at 508), so
  the lookahead's margin is 83 letters.
* ``g-ternary`` -- the ternary word obtained from the square-limited word by
  replacing every factor 10 with 12220.
* ``w1`` .. ``w4`` -- images of t under the binary morphisms F1 .. F4 below.

Everything downstream treats these as pure prefix functions: prefix(m) is a
prefix of prefix(n) for m <= n.

The repetition scans take ASCII digit words (else ``ValueError`` naming the
position) and read their answers off ``_periodic_runs``, one C-speed scan
per period; ``contains_overlap`` reports the least start, then least period.
"""

from __future__ import annotations

import re
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
_sl_word = bytearray()


def _ends_in_forbidden_square(word: bytearray) -> bool:
    """Does ``word``, newest letter first, start with a square outside
    {00, 11, 0101} reversed: of half 2 other than 1010, or of half 3 or more?"""
    return any(half > 2 or not word.startswith(b"1010")
               for half in _square_halves(word, 0, 2, len(word) // 2))


def _extend_square_limited(word: bytearray, target: int, floor: int) -> None:
    """Grow the raw DFS word to ``target`` letters, backtracking as needed.

    ``floor`` letters have already been handed out to callers and may not be
    revised; crossing that boundary is a hard error.
    """
    c = 0x30  # try 0 first: the generated word is lexicographically least
    while len(word) < target:
        word.insert(0, c)
        bad = _ends_in_forbidden_square(word)
        if bad:
            # drop the failed letter and every 1 before it; the 0 reached becomes a 1
            while word.pop(0) == 0x31:
                if len(word) <= floor:
                    raise RuntimeError(
                        "square-limited generation backtracked across an emitted prefix; "
                        "increase DEFAULT_LOOKAHEAD"
                    )
        c = 0x31 if bad else 0x30


def square_limited_prefix(n: int) -> str:
    """Length-n prefix of the least binary word with square set {00, 11, 0101}."""
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if n and len(_sl_word) < n + DEFAULT_LOOKAHEAD:
        _extend_square_limited(_sl_word, n + DEFAULT_LOOKAHEAD,
                               max(len(_sl_word) - DEFAULT_LOOKAHEAD, 0))
    return _sl_word[len(_sl_word) - n:][::-1].decode()


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


def _periodic_runs(data: bytes, period: int, min_len: int):
    """Maximal stretches (i, j), period < min_len <= j - i, left to right, with
    data[k] == data[k + period] for i <= k < j - period: the runs of zero
    bytes of data XOR data shifted by the period (0 < period < len(data))."""
    n = len(data) - period
    diff = (int.from_bytes(data[:n], "big") ^ int.from_bytes(data[period:], "big")).to_bytes(n, "big")
    need = b"\0" * (min_len - period)
    k = diff.find(need)
    while k >= 0:
        end = _ZEROS.match(diff, k).end()
        yield k, end + period
        k = diff.find(need, end)


def collect_squares(w: str) -> set[str]:
    """Every square factor uu of w (the squares themselves, not positions)."""
    data = parse_word(w).encode()
    # a run of period h holds at most h distinct squares of half-length h
    return {w[s:s + 2 * h] for h in range(1, len(w) // 2 + 1) for i, j in _periodic_runs(data, h, 2 * h)
            for s in range(i, min(j - 2 * h, i + h - 1) + 1)}


def contains_overlap(w: str) -> str | None:
    """The factor a.z.a.z.a (a a letter, z possibly empty) with the least
    start and, among those, the least period |az|; None when w has none.

    Such a factor exists exactly when w contains an instance of xxx or of
    xyxyx, so this is the fast equivalent of those two pattern searches.
    """
    data = parse_word(w).encode()
    first = min(((i, p) for p in range(1, (len(w) - 1) // 2 + 1)
                 for i, _ in islice(_periodic_runs(data, p, 2 * p + 1), 1)), default=None)
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


@lru_cache(maxsize=32)
def _image_suffix_lengths(m: tuple[str, str], max_factor_len: int) -> dict[str, int]:
    """For each image v, the length of its longest proper suffix that is
    itself an image (0 when none)."""
    images = tm_factor_images(m, max_factor_len)
    return {v: next((n for n in range(len(v) - 1, 0, -1) if v[-n:] in images), 0) for v in images}


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
    |u|-letter suffix of s', which is itself at least |u| letters long.  So one
    scan of the table built at min(COMPLETION_FACTOR_BOUND, |u|) gives the
    same answer.
    """
    if not u:
        raise ValueError("left completions are defined for non-empty factors")
    if m[0] != "0":
        raise ValueError("left completions expect a morphism fixing 0")
    suffix_lengths = _image_suffix_lengths(m, min(COMPLETION_FACTOR_BOUND, len(u)))
    found = (v for v, suffix_len in suffix_lengths.items() if suffix_len < len(u) and v.endswith(u))
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
