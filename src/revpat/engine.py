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

The pattern graph (an edge {reversed-mark(a), b} for every length-2 factor
ab) decides whether the alternating word 0101... contains an instance: it
does exactly when the graph is 2-colorable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache

from .matcher import _match_at, _plan, apply_morphism
from .patterns import (
    PATTERN_ALPHABET,
    canonical,
    equivalence_class,
    factors,
    iota,
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
    """

    pattern: str
    alphabet_size: int
    depth_limit: int
    terminated: bool
    nodes_visited: int
    longest_word_length: int
    longest_word: str
    inconclusive: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


# Each factory names one kind of end check; the perfbench harness reads a
# checker's shape back from its __qualname__ and the per-node flag, so four
# factories cover five shapes.  All four run the same kernel.

def _pure_end_check(plan: tuple):
    """The pattern uses only x and X slots."""
    return lambda rword: _match_at(plan, rword, 0) is not None


def _gap_then_block_check(plan: tuple):
    """A single y slot followed by an x-only block."""
    return lambda rword: _match_at(plan, rword, 0) is not None


def _block_gap_block_check(plan: tuple):
    """An x-only block, a single y slot, another x-only block."""
    return lambda rword: _match_at(plan, rword, 0) is not None


def _general_end_check(plan: tuple):
    """Each variable occurs at least twice."""
    return lambda rword: _match_at(plan, rword, 0) is not None


def _compile_end_checker(p: str):
    """Build the does-an-instance-end-here predicate for p.

    Returns (per_node, check, anchored).  ``check`` takes a word reversed
    and runs the slot kernel at its start on ``anchored``: p ends at n in w
    exactly when p reversed starts at 0 in w reversed.  ``anchored`` is p
    reversed, less its final y slot in a per-node check; ``matcher._plan``
    compiles its x-led form.
    A per-node predicate runs on a word and decides the fate of all its
    children at once (possible when the pattern ends with its single y slot:
    the gap absorbs any final letter, so only the x-block before it is
    checked); otherwise the predicate runs on each candidate child.
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


def prove_k_unavoidable(p: str, k: int, depth_limit: int,
                        max_nodes: int | None = None) -> BacktrackReport:
    """Exhaust the tree of words over a k-letter alphabet avoiding p.

    Children are tried in letter order, and the first letter is fixed to 0:
    avoidance is invariant under alphabet permutations.  Node words are kept
    reversed, so that every end check runs the slot kernel at their start.
    With a ``max_nodes`` budget the search visits at most that many nodes;
    a search that would need more returns an ``inconclusive`` report.
    """
    if not parse_pattern(p):
        raise ValueError("the empty pattern has no instances; classify it directly")
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
    nodes = 0
    stack = [0]
    rwords = [b""]  # the path's node words, each reversed

    while stack:
        idx = stack[-1]
        if idx >= (1 if len(stack) == 1 else k):
            stack.pop()
            rwords.pop()
            continue
        if nodes == budget:
            return BacktrackReport(p, k, depth_limit, False, nodes, len(longest), longest,
                                   inconclusive=True)
        stack[-1] += 1
        nodes += 1
        rword = letters[idx] + rwords[-1]
        if not per_node and check(rword):
            continue
        n = len(rword)
        if n > len(longest):
            longest = rword[::-1].decode()
        if n >= depth_limit:
            return BacktrackReport(p, k, depth_limit, False, nodes, len(longest), longest)
        if per_node and check(rword):
            continue  # every child of rword contains p
        rwords.append(rword)
        stack.append(0)

    return BacktrackReport(p, k, depth_limit, True, nodes, len(longest), longest)


# --- the pattern graph and the alternating-word criterion ------------------------

@dataclass(frozen=True)
class PatternGraph:
    """Multigraph on the four pattern symbols; loops allowed.

    One edge {reverse_mark(a), b} per length-2 factor ab of the source
    pattern, kept in factor order (so multiplicities are preserved).
    """

    edges: tuple[tuple[str, str], ...]
    vertices: tuple[str, ...] = tuple(PATTERN_ALPHABET)


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
    for u, v in g.edges:
        if u == v:
            return BipartiteResult(odd_cycle=[u, u])

    adjacency: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    color: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(adjacency[u], key=pattern_key):
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return BipartiteResult(odd_cycle=_odd_walk(u, v, parent))
    return BipartiteResult(coloring=color)


def _odd_walk(u: str, v: str, parent: dict) -> list[str]:
    def path_to_root(w: str) -> list[str]:
        path = [w]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]

    pu, pv = path_to_root(u), path_to_root(v)
    common = 0
    while common < min(len(pu), len(pv)) and pu[common] == pv[common]:
        common += 1
    # u ... lowest common ancestor ... v, then the conflicting edge back to u
    return pu[common - 1:][::-1] + pv[common:] + [u]


def instance_in_alternating(p: str) -> tuple[str | None, str | None] | None:
    """Variable assignment placing an instance of p inside 010101..., if any.

    When the pattern graph is 2-colorable the images are read off the
    coloring (each is the shortest word from the variable's color to its
    reversed slot's color, so one or two letters); otherwise returns None.
    """
    if not p:
        raise ValueError("the empty pattern has no instances; classify it directly")
    result = bipartite_check(pattern_graph(p))
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
