"""Binary patterns with reversal and their symmetry maps.

A pattern is a plain string over the four symbols ``x``, ``X``, ``y``, ``Y``:
lowercase marks a variable slot, uppercase the slot filled by the *reversal*
of the same variable's value.  Three involutions act on patterns,

* ``iota(1, p)`` swaps x with X (the reversal mark on the first variable),
* ``iota(2, p)`` swaps the two variables (x<->y, X<->Y),
* ``iota(3, p)`` reverses the symbol sequence,

and generate a group of 16 elements: the eight renamings that keep x with X
and y with Y, each with or without reversal (reversal commutes with every
renaming).  ``equivalence_class`` lists the 16 images of a pattern.
``canonical`` picks the least orbit member under the symbol order
x < X < y < Y (which differs from ASCII order, hence ``pattern_key``).
"""

from __future__ import annotations

from functools import lru_cache

PATTERN_ALPHABET = "xXyY"

# The eight renamings, each as its images of x, X, y, Y: the identity, iota 1,
# reverse_mark, iota 2 and their products.
_RENAMINGS = tuple(str.maketrans(PATTERN_ALPHABET, images) for images in (
    "xXyY", "XxyY", "xXYy", "XxYy", "yYxX", "YyxX", "yYXx", "YyXx"))
_SWAP_REVERSAL, _MARK, _SWAP_VARIABLES = _RENAMINGS[1], _RENAMINGS[3], _RENAMINGS[4]
_SYMBOL_RANK = {c: i for i, c in enumerate(PATTERN_ALPHABET)}


def parse_pattern(text: str) -> str:
    """Validate pattern text; the empty string is the empty pattern."""
    for i, ch in enumerate(text):
        if ch not in _SYMBOL_RANK:
            raise ValueError(
                f"invalid pattern symbol {ch!r} at position {i}: expected one of x, X, y, Y"
            )
    return text


def nonempty_pattern(text: str) -> str:
    """Validate pattern text that must have instances to look for."""
    if not parse_pattern(text):
        raise ValueError("the empty pattern has no instances; classify it directly")
    return text


def reverse_mark(symbol: str) -> str:
    """Swap a symbol with its reversed-slot partner: x<->X, y<->Y."""
    if symbol not in _SYMBOL_RANK:
        raise ValueError(f"invalid pattern symbol {symbol!r}")
    return symbol.translate(_MARK)


def iota(j: int, p: str) -> str:
    parse_pattern(p)
    if j == 1:
        return p.translate(_SWAP_REVERSAL)
    if j == 2:
        return p.translate(_SWAP_VARIABLES)
    if j == 3:
        return p[::-1]
    raise ValueError(f"iota index must be 1, 2 or 3, got {j}")


def pattern_key(p: str) -> tuple[int, ...]:
    """Sort key realising the pattern order x < X < y < Y, prefixes first."""
    return tuple(_SYMBOL_RANK[c] for c in p)


def variable_counts(p: str) -> tuple[int, int]:
    """Occurrences of the first variable (x or X) and the second (y or Y)."""
    a = p.count("x") + p.count("X")
    return a, len(p) - a


@lru_cache(maxsize=1 << 16)
def equivalence_class(p: str) -> frozenset[str]:
    """The images of p under the 16 symmetries: each renaming, with and
    without reversal."""
    images = [parse_pattern(p).translate(table) for table in _RENAMINGS]
    return frozenset(images + [q[::-1] for q in images])


@lru_cache(maxsize=1 << 16)
def canonical(p: str) -> str:
    """Least member of the pattern's equivalence class."""
    return min(equivalence_class(p), key=pattern_key)


def factors(p: str) -> set[str]:
    """All non-empty contiguous subpatterns of p."""
    return {p[i:j] for i in range(len(p)) for j in range(i + 1, len(p) + 1)}


def sorted_patterns(patterns) -> list[str]:
    return sorted(patterns, key=pattern_key)
