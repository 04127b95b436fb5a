"""Classification of patterns with reversal by avoidability index.

Every pattern is 2-avoidable, 3-avoidable-but-not-2, or unavoidable.  The
decision procedure is closed-form: a pattern is unavoidable exactly when its
canonical form is one of the five listed in UNAVOIDABLE_CANONICAL, and
2-avoidable exactly when some factor canonicalizes into the seventeen
TWO_AVOIDABLE_SEEDS.  The search machinery in this module exists to
cross-validate that procedure, not to implement it: ``prove_k_unavoidable``
exhausts the tree of avoiding words over a k-letter alphabet, and
``seed_free_patterns`` rebuilds the finite table of canonical patterns with
no 2-avoidable factor.  The prover keeps each node word reversed and asks
the matcher's slot kernel for an instance of the reversed pattern at its
start, which is an instance of the pattern ending at the node's last letter.
It remembers each dead subtree by the suffix that holds every instance that
killed it, and settles a later node ending with that suffix without
searching below it again.

The pattern graph (an edge {reversed-mark(a), b} for every length-2 factor
ab) decides whether the alternating word 0101... contains an instance: it
does exactly when the graph is 2-colorable, that is, when it has no odd
cycle.  Lemma: on its four vertices that means no loop and no triangle.  A
shortest odd cycle has no chord (a chord would split it into two shorter
cycles, one of them odd), and a chordless cycle of five or more edges needs
five vertices.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from typing import ClassVar, Iterator

from .matcher import _match_at, _plan, apply_morphism
from .patterns import (
    PATTERN_ALPHABET,
    canonical,
    equivalence_class,
    factors,
    iota,
    nonempty_pattern,
    parse_pattern,
    pattern_key,
    reverse_mark,
    variable_counts,
)
from .sequences import alternating_prefix


class Avoidability(Enum):
    TWO = 2
    THREE = 3
    UNAVOIDABLE = "infinity"


# The seventeen canonical seeds of 2-avoidability, partitioned by the
# construction that avoids them: classical binary words (Thue/Roth/Cassaigne
# patterns without reversal marks), the square-limited word, the alternating
# word 0101..., and the four morphic images w1..w4 of Thue-Morse.
SEED_PARTITION: dict[str, frozenset[str]] = {
    "classical": frozenset({"xxx", "xxyxyy", "xxyyx", "xyxxy", "xyxyx"}),
    "square_limited": frozenset({"xyxyX"}),
    "alternating": frozenset({"xX", "xxyxY", "xxyXy", "xxyXY", "xxyyX", "xyXXy", "xyyX"}),
    "morphic": frozenset({"xyxYx", "xyxYX", "xyXyx", "xyXYx"}),
}

TWO_AVOIDABLE_SEEDS: frozenset[str] = frozenset().union(*SEED_PARTITION.values())

THREE_AVOIDABLE_SEEDS: frozenset[str] = frozenset({"xx", "xyxy", "xyxY", "xyXY"})

# Canonical forms of the unavoidable patterns: the prefixes of xyx and xyX.
UNAVOIDABLE_CANONICAL: frozenset[str] = frozenset({"", "x", "xy", "xyx", "xyX"})


def _has_two_avoidable_factor(p: str) -> bool:
    return any(canonical(u) in TWO_AVOIDABLE_SEEDS for u in factors(p))


def classify(p: str) -> Avoidability:
    """Avoidability index of a pattern (the empty pattern is unavoidable)."""
    if canonical(p) in UNAVOIDABLE_CANONICAL:
        return Avoidability.UNAVOIDABLE
    if _has_two_avoidable_factor(p):
        return Avoidability.TWO
    return Avoidability.THREE


@lru_cache(maxsize=None)
def seed_free_patterns(n: int) -> frozenset[str]:
    """Canonical length-n patterns none of whose factors is a 2-avoidable seed.

    Built by extending the length n-1 table: every such pattern of positive
    length is some orbit member of a shorter one plus a final symbol.  The
    table empties out at length 6 and stays empty.
    """
    if n < 0:
        raise ValueError("pattern length must be non-negative")
    if n == 0:
        return frozenset({""})
    out = set()
    for shorter in seed_free_patterns(n - 1):
        for r in equivalence_class(shorter):
            for sym in PATTERN_ALPHABET:
                q = r + sym
                if q in out or canonical(q) != q:
                    continue
                if not _has_two_avoidable_factor(q):
                    out.add(q)
    return frozenset(out)


# --- exhaustive avoider search ---------------------------------------------------

@dataclass(frozen=True)
class BacktrackReport:
    """Outcome of one depth-first search of the avoiding-word tree.

    ``terminated`` means the whole tree was exhausted below the depth limit,
    certifying that no avoiding word of that length exists.  Otherwise either
    some branch reached the limit and ``longest_word`` is an avoiding word of
    exactly that length, or ``inconclusive`` is set: the node budget ran out
    first, and ``longest_word`` is only the longest avoiding word seen so far.
    ``settled`` counts the visited nodes that a stored dead suffix closed
    without expanding them (see ``prove_k_unavoidable``).
    """

    pattern: str
    alphabet_size: int
    depth_limit: int
    terminated: bool
    nodes_visited: int
    longest_word_length: int
    longest_word: str
    inconclusive: bool = False
    settled: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# Each factory names one kind of end check; the perfbench harness reads a
# checker's shape back from its __qualname__ and the per-node flag, so four
# factories cover five shapes.  All four run the same kernel on a reversed
# node word and its floor.

def _end_length(plan: tuple, rword: bytes, floor: int) -> int:
    """Length of the least instance of ``plan`` at the start of ``rword``
    longer than ``floor``, or 0 when none starts there."""
    found = _match_at(plan, rword, 0, None, None, floor)
    if found is None:
        return 0
    x, y = found
    return plan[0] * len(x) + (plan[1] * len(y) if y else 0)


def _pure_end_check(plan: tuple):
    """The pattern uses only x and X slots."""
    return lambda rword, floor: _end_length(plan, rword, floor)


def _gap_then_block_check(plan: tuple):
    """A single y slot followed by an x-only block."""
    return lambda rword, floor: _end_length(plan, rword, floor)


def _block_gap_block_check(plan: tuple):
    """An x-only block, a single y slot, another x-only block."""
    return lambda rword, floor: _end_length(plan, rword, floor)


def _general_end_check(plan: tuple):
    """Each variable occurs at least twice."""
    return lambda rword, floor: _end_length(plan, rword, floor)


def _compile_end_checker(p: str):
    """Build the end check for p: the length of an instance ending here.

    Returns (per_node, check, anchored).  ``check`` takes a word reversed
    and its floor, runs the slot kernel at its start on ``anchored`` and
    returns the length of the instance it finds, 0 for none: p ends at n in
    w exactly when p reversed starts at 0 in w reversed.
    ``anchored`` is p reversed, less its final y slot in a per-node check;
    ``matcher._plan`` compiles its x-led form.  The floor is the length of a
    prefix of the reversed word that recurs further on, where no instance of
    ``anchored`` starts (each shorter node word on the path passed the same
    check), so the kernel skips instances no longer than it.
    A per-node predicate runs on a word and decides the fate of all its
    children at once (possible when the pattern ends with its single y slot:
    the gap absorbs any final letter, so only the x-block before it is
    checked); otherwise the predicate runs on each candidate child.  A
    per-node length is that of the x-block's instance: the instance of p in
    each child is one letter longer and starts at the same place.
    """
    a, b = variable_counts(p)
    if b > a:
        p, b = iota(2, p), a
    y_at = next((i for i, sym in enumerate(p) if sym in "yY"), None)
    per_node = b == 1 and y_at == len(p) - 1
    anchored = (p[:-1] if per_node else p)[::-1].swapcase()
    if b == 0 or per_node:
        factory = _pure_end_check
    elif b >= 2:
        factory = _general_end_check
    elif y_at == 0:
        factory = _gap_then_block_check
    else:
        factory = _block_gap_block_check
    return per_node, factory(_plan(anchored)), anchored


class _Frame:  # one expanded node of prove_k_unavoidable's search
    __slots__ = ("rword", "floor", "reach", "height", "letters")

    def __init__(self, rword: bytes, floor: int, reach: int, height: int,
                 letters: Iterator[bytes]) -> None:
        self.rword, self.floor, self.reach, self.height = rword, floor, reach, height
        self.letters = letters


def prove_k_unavoidable(p: str, k: int, depth_limit: int,
                        max_nodes: int | None = None) -> BacktrackReport:
    """Exhaust the tree of words over a k-letter alphabet avoiding p.

    Children are tried in letter order, and the first letter is fixed to 0:
    avoidance is invariant under alphabet permutations.  Node words are kept
    reversed, so that every end check runs the slot kernel at their start.
    A node's floor is its parent's plus one when that prefix of the node
    word recurs after its first letter, else 0.
    With a ``max_nodes`` budget the search visits at most that many nodes;
    a search that would need more returns an ``inconclusive`` report.

    Each expanded node u has a frame: ``rword``, u reversed; ``floor``;
    ``reach``, the least start (in the forward word) of an instance that
    killed a node below u; ``height``, the length of the longest avoider
    below u; and the ``letters`` left to try.  When u's subtree is exhausted,
    its dead suffix s = u[reach:] is stored with the offset height - |u|.

    Lemma: for every word e with |ue| > height, ue contains an instance of p
    inside s·e.  So an avoiding word v that ends with s has no avoider v·e
    longer than |v| + offset, and each such v·e contains an instance inside
    its suffix s·e.  (Follow e down from u: the path leaves the expanded
    nodes at a killed node, whose instance starts at ``reach`` or later; at
    a child of a node that a per-node check killed, likewise; or at a node
    v' settled by an earlier suffix s', whose own lemma applies, and which
    counts in u's frame as a kill at |v'| - |s'| and an avoider of length
    |v'| + offset'.)

    A visited avoider whose reversed word starts with a stored suffix is
    settled: counted, not expanded.  It is settled only when
    |v| + offset <= len(longest) and < depth_limit, so its subtree could
    neither lengthen ``longest`` nor reach the limit: the report is the one
    the full search gives, but for ``nodes_visited`` and ``settled``.
    """
    nonempty_pattern(p)
    if not 1 <= k <= 4:
        raise ValueError(f"alphabet size must be between 1 and 4, got {k}")
    if depth_limit < 1:
        raise ValueError("depth limit must be at least 1")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"node budget must be at least 1, got {max_nodes}")

    per_node, check, _ = _compile_end_checker(p)
    letters = [str(c).encode() for c in range(k)]
    budget = -1 if max_nodes is None else max_nodes

    longest = ""
    nodes = settled = 0
    frames = [_Frame(b"", 0, 0, 0, iter(letters[:1]))]  # the root tries letter 0 only
    dead: dict[bytes, int] = {}  # the stored suffixes, reversed, and their offsets
    lengths: list[int] = []  # their distinct lengths, ascending

    while frames:
        top = frames[-1]
        letter = next(top.letters, None)
        if letter is None:
            frames.pop()
            if frames:
                n = len(top.rword)
                key, offset = top.rword[:n - top.reach], top.height - n
                if len(key) not in lengths:
                    insort(lengths, len(key))
                if dead.get(key, offset) >= offset:
                    dead[key] = offset
                parent = frames[-1]
                parent.reach = min(parent.reach, top.reach)
                parent.height = max(parent.height, top.height)
            continue
        if nodes == budget:
            break
        nodes += 1
        rword = letter + top.rword
        floor = top.floor + 1
        if rword.find(rword[:floor], 1) < 0:
            floor = 0
        n = len(rword)
        found = check(rword, floor)
        if found and not per_node:
            top.reach = min(top.reach, n - found)
            continue
        if n > len(longest):
            longest = rword[::-1].decode()
        if n >= depth_limit:
            break
        if found:  # a per-node hit: every child of rword contains p
            top.reach = min(top.reach, n - found)
            top.height = max(top.height, n)
            continue
        room = min(len(longest), depth_limit - 1) - n
        offset = depth_limit
        for cut in lengths:
            if cut > n:
                break
            offset = dead.get(rword[:cut], depth_limit)
            if offset <= room:
                break
        if offset <= room:  # rword[:cut] is a stored suffix whose bound fits
            settled += 1
            top.reach = min(top.reach, n - cut)
            top.height = max(top.height, n + offset)
            continue
        frames.append(_Frame(rword, floor, n, n, iter(letters)))

    terminated = not frames  # else the search broke at the depth limit or the budget
    return BacktrackReport(p, k, depth_limit, terminated, nodes, len(longest), longest,
                           not terminated and len(longest) < depth_limit, settled)


# --- the pattern graph and the alternating-word criterion ------------------------

@dataclass(frozen=True)
class PatternGraph:
    """Multigraph on the four pattern symbols; loops allowed.

    One edge {reverse_mark(a), b} per length-2 factor ab of the source
    pattern, kept in factor order (so multiplicities are preserved).  The
    vertices are fixed: the module's lemma holds for these four only.
    """

    edges: tuple[tuple[str, str], ...]
    vertices: ClassVar[tuple[str, ...]] = tuple(PATTERN_ALPHABET)


def pattern_graph(p: str) -> PatternGraph:
    parse_pattern(p)
    return PatternGraph(edges=tuple(tuple(sorted((reverse_mark(a), b), key=pattern_key))
                                    for a, b in zip(p, p[1:])))


@dataclass(frozen=True)
class BipartiteResult:
    """Either a proper 2-coloring, or an odd closed walk witnessing that
    none exists (a loop shows up as the length-1 walk [v, v])."""

    coloring: dict[str, int] | None = None
    odd_cycle: list[str] | None = None

    @property
    def is_bipartite(self) -> bool:
        return self.coloring is not None


def bipartite_check(g: PatternGraph) -> BipartiteResult:
    """The first loop [u, u] in edge order, else the first triangle
    [a, b, c, a] in symbol order, else the least proper coloring in symbol
    order (each component's least vertex colored 0).  By the module's
    lemma, one of the three exists."""
    for u, v in g.edges:
        if u == v:
            return BipartiteResult(odd_cycle=[u, u])
    edges = {frozenset(e) for e in g.edges}
    for a, b, c in combinations(g.vertices, 3):
        if {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))} <= edges:
            return BipartiteResult(odd_cycle=[a, b, c, a])
    colorings = (dict(zip(g.vertices, colors))
                 for colors in product((0, 1), repeat=len(g.vertices)))
    return BipartiteResult(coloring=next(
        c for c in colorings if all(c[u] != c[v] for u, v in g.edges)))


def instance_in_alternating(p: str) -> tuple[str | None, str | None] | None:
    """Variable assignment placing an instance of p inside 010101..., if any.

    When the pattern graph is 2-colorable the images are read off the
    coloring (each is the shortest word from the variable's color to its
    reversed slot's color, so one or two letters); otherwise returns None.
    """
    result = bipartite_check(pattern_graph(nonempty_pattern(p)))
    if result.coloring is None:
        return None
    c = result.coloring
    a, b = variable_counts(p)
    x = _colored_image(c["x"], c["X"]) if a else None
    y = _colored_image(c["y"], c["Y"]) if b else None
    image = apply_morphism(p, x, y)
    if image not in alternating_prefix(len(image) + 2):
        raise RuntimeError(f"coloring-derived image {image} missing from the alternating word")
    return x, y


def _colored_image(first: int, last: int) -> str:
    return str(first) if first == last else f"{first}{last}"
