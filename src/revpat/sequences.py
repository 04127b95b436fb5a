"""Generators for the concrete word families and their factor machinery.

The families, addressed by the ids in ``SEQUENCE_IDS``:

* ``thue-morse`` -- the fixed point t of 0 -> 01, 1 -> 10, starting from 0.
* ``alternating`` -- 010101...
* ``square-limited`` -- the lexicographically least infinite binary word whose
  only square factors are 00, 11 and 0101.  It is produced by depth-first
  backtracking; a prefix of length n is emitted only once a valid extension by
  ``lookahead`` further letters exists.  Backtracking across an already
  emitted boundary would invalidate earlier output and raises instead of
  being absorbed (it has never been observed for the default lookahead).
* ``g-ternary`` -- the ternary word obtained from the square-limited word by
  replacing every factor 10 with 12220.
* ``w1`` .. ``w4`` -- images of t under the binary morphisms F1 .. F4 below.

Everything downstream treats these as pure prefix functions: prefix(m) is a
prefix of prefix(n) for m <= n, for a fixed lookahead policy.
"""

from __future__ import annotations

import os
import tempfile
from functools import lru_cache

# Binary morphisms as (image of 0, image of 1).
H = ("01", "10")
F1 = ("0", "00101101111")
F2 = ("0", "00101111")
F3 = ("0", "001011")
F4 = ("0", "1000010011")

MORPHISMS = {"h": H, "f1": F1, "f2": F2, "f3": F3, "f4": F4}

SEQUENCE_IDS = (
    "thue-morse",
    "alternating",
    "square-limited",
    "g-ternary",
    "w1",
    "w2",
    "w3",
    "w4",
)

DEFAULT_LOOKAHEAD = 100

ALLOWED_SQUARES = frozenset({"00", "11", "0101"})


def apply_binary_morphism(m: tuple[str, str], w: str) -> str:
    """Letterwise image of a binary word under the morphism m."""
    img0, img1 = m
    return "".join(img1 if c == "1" else img0 for c in w)


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
    e = 0
    while (1 << e) + 1 < factor_len:
        e += 1
    return 7 << e


# --- the square-limited word ----------------------------------------------------

# Per lookahead: the raw DFS word so far and the largest emitted prefix length.
_sl_state: dict[int, dict] = {}


def _square_violation_at_end(mv: memoryview, n: int) -> bool:
    """Does a square outside {00, 11, 0101} end at position n-1?

    Half-length 1 squares are 00 or 11 and always allowed; half-length 2 only
    0101; anything longer is forbidden.
    """
    for h in range(2, n // 2 + 1):
        if mv[n - 2 * h:n - h] == mv[n - h:n]:
            if h == 2 and mv[n - 4:n] == b"0101":
                continue
            return True
    return False


def _extend_square_limited(word: bytearray, target: int, floor: int) -> None:
    """Grow the raw DFS word to ``target`` letters, backtracking as needed.

    ``floor`` letters have already been handed out to callers and may not be
    revised; crossing that boundary is a hard error.
    """
    while len(word) < target:
        c = 0x30  # try 0 first: the generated word is lexicographically least
        while True:
            word.append(c)
            mv = memoryview(word)
            bad = _square_violation_at_end(mv, len(word))
            mv.release()
            if not bad:
                break
            word.pop()
            if c == 0x30:
                c = 0x31
                continue
            while True:
                if not word:
                    raise RuntimeError("square-limited generation backtracked past position 0")
                last = word.pop()
                if len(word) < floor:
                    raise RuntimeError(
                        "square-limited generation backtracked across an emitted prefix; "
                        "increase the lookahead"
                    )
                if last == 0x30:
                    c = 0x31
                    break


def square_limited_prefix(n: int, lookahead: int = DEFAULT_LOOKAHEAD) -> str:
    """Length-n prefix of the least binary word with square set {00, 11, 0101}."""
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1")
    if n == 0:
        return ""
    state = _sl_state.setdefault(lookahead, {"word": bytearray(), "emitted": 0})
    target = n + lookahead
    if len(state["word"]) < target:
        _extend_square_limited(state["word"], target, state["emitted"])
    state["emitted"] = max(state["emitted"], n)
    return state["word"][:n].decode()


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
    """Non-empty factors y with 0y, 1y, y0 and y1 all factors of w."""
    out = set()
    for length in range(1, max_len + 1):
        for y in factor_set(w, length):
            if "0" + y in w and "1" + y in w and y + "0" in w and y + "1" in w:
                out.add(y)
    return out


def collect_squares(w: str) -> set[str]:
    """Every square factor uu of w (the squares themselves, not positions)."""
    data = w.encode()
    mv = memoryview(data)
    n = len(w)
    found = set()
    for h in range(1, n // 2 + 1):
        for i in range(n - 2 * h + 1):
            if data[i] == data[i + h] and mv[i:i + h] == mv[i + h:i + 2 * h]:
                found.add(w[i:i + 2 * h])
    return found


def contains_overlap(w: str) -> str | None:
    """First factor of the form a.z.a.z.a (a letter, z possibly empty).

    Such a factor exists exactly when w contains an instance of xxx or of
    xyxyx, so this is the fast equivalent of those two pattern searches.
    Returns the factor, or None.
    """
    data = w.encode()
    mv = memoryview(data)
    n = len(w)
    for i in range(n - 2):
        for period in range(1, (n - i - 1) // 2 + 1):
            if data[i] == data[i + period] and mv[i:i + period + 1] == mv[i + period:i + 2 * period + 1]:
                return w[i:i + 2 * period + 1]
    return None


# --- left completions -----------------------------------------------------------

@lru_cache(maxsize=32)
def tm_factor_images(m: tuple[str, str], max_factor_len: int) -> frozenset[str]:
    """Images under m of all Thue-Morse factors of length 1..max_factor_len."""
    tau = thue_morse_prefix(covering_prefix_length(max_factor_len))
    images = set()
    for length in range(1, max_factor_len + 1):
        for v in factor_set(tau, length):
            images.add(apply_binary_morphism(m, v))
    return frozenset(images)


@lru_cache(maxsize=32)
def _max_image_suffix(m: tuple[str, str], max_factor_len: int) -> dict[str, int]:
    """For each image v: the length of its longest proper suffix that is
    itself an image (0 when none)."""
    images = tm_factor_images(m, max_factor_len)
    out = {}
    for v in images:
        best = 0
        for length in range(len(v) - 1, 0, -1):
            if v[-length:] in images:
                best = length
                break
        out[v] = best
    return out


@lru_cache(maxsize=4096)
def _images_by_suffix(m: tuple[str, str], max_factor_len: int, suffix_len: int) -> dict:
    index: dict[str, list[str]] = {}
    for v in tm_factor_images(m, max_factor_len):
        if len(v) >= suffix_len:
            index.setdefault(v[-suffix_len:], []).append(v)
    return index


def left_completions(u: str, m: tuple[str, str], max_factor_len: int = 64) -> list[str]:
    """All image words v = m(t) ending in u whose shorter image-suffixes miss u.

    A word v qualifies when u is a suffix of v but u is not a suffix of any
    proper suffix of v that is itself an image of a Thue-Morse factor; since u
    and those suffixes are all suffixes of v, the latter just means no proper
    image-suffix of v has length >= |u|.  The search covers images of factors
    up to max_factor_len letters.
    """
    if not u:
        raise ValueError("left completions are defined for non-empty factors")
    if m[0] != "0":
        raise ValueError("left completions expect a morphism fixing 0")
    candidates = _images_by_suffix(m, max_factor_len, len(u)).get(u, [])
    suffix_len = _max_image_suffix(m, max_factor_len)
    return sorted((v for v in candidates if suffix_len[v] < len(u)), key=lambda v: (len(v), v))


# --- unified prefix access and the on-disk cache ---------------------------------

def _grow_image_prefix(m: tuple[str, str], n: int) -> str:
    return apply_binary_morphism(m, thue_morse_prefix(n))[:n]


def sequence_prefix(seq_id: str, n: int, lookahead: int = DEFAULT_LOOKAHEAD,
                    cache_dir: str | None = None) -> str:
    """Length-n prefix of one of the named sequences, optionally disk-cached.

    Cache files hold a single digit string, newline-terminated, under the name
    ``<seqid>-<n>[-la<lookahead>].txt`` (the lookahead part only for the two
    backtracking-derived sequences).  A cached word of the wrong length or
    with a letter outside the sequence's alphabet is regenerated and
    overwritten; files are written under a temporary name and renamed into
    place, so a reader never sees a partly written one.
    """
    if seq_id not in SEQUENCE_IDS:
        raise ValueError(f"unknown sequence id {seq_id!r}; expected one of {', '.join(SEQUENCE_IDS)}")
    if n < 0:
        raise ValueError("prefix length must be non-negative")

    path = None
    if cache_dir is not None:
        name = f"{seq_id}-{n}"
        if seq_id in ("square-limited", "g-ternary"):
            name += f"-la{lookahead}"
        path = os.path.join(cache_dir, name + ".txt")
        if os.path.exists(path):
            with open(path, encoding="ascii", errors="replace") as fh:
                word = fh.read().strip()
            if len(word) == n and set(word) <= set("012" if seq_id == "g-ternary" else "01"):
                return word

    if seq_id == "thue-morse":
        word = thue_morse_prefix(n)
    elif seq_id == "alternating":
        word = alternating_prefix(n)
    elif seq_id == "square-limited":
        word = square_limited_prefix(n, lookahead)
    elif seq_id == "g-ternary":
        word = g_from(square_limited_prefix(n, lookahead))[:n]
    else:
        word = _grow_image_prefix(MORPHISMS["f" + seq_id[1]], n)

    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(word + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    return word
