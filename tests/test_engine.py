from itertools import product

import pytest

from revpat.engine import (
    Avoidability,
    SEED_PARTITION,
    THREE_AVOIDABLE_SEEDS,
    TWO_AVOIDABLE_SEEDS,
    UNAVOIDABLE_CANONICAL,
    bipartite_check,
    classify,
    instance_in_alternating,
    pattern_graph,
    prove_k_unavoidable,
    seed_free_patterns,
)
from revpat.matcher import apply_morphism, avoids, find_instance_bounded
from revpat.patterns import PATTERN_ALPHABET, canonical, factors
from revpat.sequences import alternating_prefix


def test_seed_sets_sizes_and_canonicity():
    assert len(TWO_AVOIDABLE_SEEDS) == 17
    assert len(THREE_AVOIDABLE_SEEDS) == 4
    assert THREE_AVOIDABLE_SEEDS == {"xx", "xyxy", "xyxY", "xyXY"}
    for s in TWO_AVOIDABLE_SEEDS | THREE_AVOIDABLE_SEEDS:
        assert canonical(s) == s


def test_seed_partition():
    sizes = {k: len(v) for k, v in SEED_PARTITION.items()}
    assert sizes == {"classical": 5, "square_limited": 1, "alternating": 7, "morphic": 4}
    union = frozenset().union(*SEED_PARTITION.values())
    assert union == TWO_AVOIDABLE_SEEDS
    assert sum(sizes.values()) == 17


def test_classify_examples():
    assert classify("xxx") is Avoidability.TWO
    assert classify("xyxY") is Avoidability.THREE
    assert classify("xyX") is Avoidability.UNAVOIDABLE
    assert classify("Xyy") is Avoidability.THREE
    assert classify("") is Avoidability.UNAVOIDABLE


def test_classify_is_constant_on_classes_and_monotone():
    for n in range(1, 5):
        for tup in product(PATTERN_ALPHABET, repeat=n):
            p = "".join(tup)
            assert classify(p) is classify(canonical(p))
            if any(classify(u) is Avoidability.TWO for u in factors(p)):
                assert classify(p) is Avoidability.TWO


def test_unavoidable_iff_canonical_in_the_five():
    for n in range(5):
        for tup in product(PATTERN_ALPHABET, repeat=n):
            p = "".join(tup)
            expected = canonical(p) in UNAVOIDABLE_CANONICAL
            assert (classify(p) is Avoidability.UNAVOIDABLE) == expected


A_TABLES = {
    0: {""},
    1: {"x"},
    2: {"xx", "xy"},
    3: {"xxy", "xyx", "xyX"},
    4: {"xxyx", "xxyX", "xxyy", "xyxy", "xyxY", "xyXY", "xyyx"},
    5: {"xxyxx", "xxyxy", "xxyXX"},
    6: set(),
}


def test_seed_free_tables_exact():
    for n, expected in A_TABLES.items():
        assert seed_free_patterns(n) == frozenset(expected), n


def test_seed_free_matches_direct_definition():
    # direct filter over all patterns of each length, no recurrence
    for n in range(6):
        direct = set()
        for tup in product(PATTERN_ALPHABET, repeat=n):
            q = "".join(tup)
            if canonical(q) != q:
                continue
            if all(canonical(u) not in TWO_AVOIDABLE_SEEDS for u in factors(q)):
                direct.add(q)
        if n == 0:
            direct = {""}
        assert seed_free_patterns(n) == frozenset(direct), n


def test_prove_examples():
    r = prove_k_unavoidable("xyx", 2, 10)
    assert r.terminated and r.longest_word_length == 4
    assert avoids(r.longest_word, "xyx")

    r = prove_k_unavoidable("xX", 2, 100)
    assert not r.terminated and r.longest_word_length == 100
    assert r.longest_word == alternating_prefix(100)

    r = prove_k_unavoidable("xyxY", 2, 200)
    assert r.terminated and r.longest_word_length == 13


def test_prove_report_invariants():
    for p, k in [("xx", 2), ("xyy", 2), ("xyxy", 3), ("yy", 2)]:
        r = prove_k_unavoidable(p, k, 40)
        assert r.pattern == p and r.alphabet_size == k and r.depth_limit == 40
        assert r.longest_word_length == len(r.longest_word)
        if r.longest_word:
            assert avoids(r.longest_word, p)
        if r.terminated:
            assert r.longest_word_length < r.depth_limit
        assert r.nodes_visited > 0
        assert r.as_dict()["terminated"] == r.terminated


def test_prove_argument_validation():
    with pytest.raises(ValueError):
        prove_k_unavoidable("", 2, 10)
    with pytest.raises(ValueError):
        prove_k_unavoidable("xx", 0, 10)
    with pytest.raises(ValueError):
        prove_k_unavoidable("xx", 2, 0)


def _brute_force_prove(p, k, depth):
    """(terminated, longest_word_length, longest_word) from level-by-level
    enumeration of the 0-led avoiders, with ``avoids`` as the only test."""
    level = ["0"] if avoids("0", p) else []
    deepest = [""]
    while level:
        deepest = level
        if len(level[0]) == depth:
            break
        level = [u + c for u in level for c in "0123"[:k] if avoids(u + c, p)]
    word = min(deepest)
    return len(word) < depth, len(word), word


def test_prover_matches_brute_force_enumeration():
    for n in range(1, 4):
        for tup in product(PATTERN_ALPHABET, repeat=n):
            p = "".join(tup)
            for k, depth in ((2, 12), (3, 6)):
                r = prove_k_unavoidable(p, k, depth)
                got = (r.terminated, r.longest_word_length, r.longest_word)
                assert got == _brute_force_prove(p, k, depth), (p, k)


# (pattern, k, depth) -> (terminated, nodes_visited), one or two patterns for
# each end-checker shape; node counts are the prover's machine-independent cost
PINNED_NODE_COUNTS = {
    ("xxx", 2, 100): (False, 150),
    ("xx", 3, 100): (False, 227),
    ("xxy", 2, 30): (True, 7),
    ("xXy", 3, 40): (False, 59),
    ("yxx", 2, 30): (True, 15),
    ("xxyx", 3, 40): (False, 54998),
    ("xyxx", 2, 100): (True, 91),
    ("xyxyx", 2, 200): (False, 284),
    ("xyxY", 2, 30): (True, 227),
    ("xyXYx", 2, 200): (False, 295),
}


@pytest.mark.parametrize("case", sorted(PINNED_NODE_COUNTS), ids="{0[0]}-{0[1]}-{0[2]}".format)
def test_prove_node_counts_are_pinned(case):
    r = prove_k_unavoidable(*case)
    assert (r.terminated, r.nodes_visited) == PINNED_NODE_COUNTS[case]


def test_pattern_graph_worked_example():
    g = pattern_graph("XxyXXy")
    expected = [("x", "x"), ("X", "y"), ("X", "Y"), ("x", "X"), ("x", "y")]
    assert sorted(g.edges) == sorted(expected)
    res = bipartite_check(g)
    assert not res.is_bipartite
    assert res.odd_cycle == ["x", "x"]


def test_pattern_graph_small_cases():
    assert pattern_graph("x").edges == ()
    g = pattern_graph("xX")
    assert ("X", "X") in g.edges
    assert bipartite_check(g).odd_cycle == ["X", "X"]
    res = bipartite_check(pattern_graph("xy"))
    assert res.is_bipartite
    assert res.coloring["X"] != res.coloring["y"]


def _valid_odd_walk(g, walk):
    if len(walk) < 2 or walk[0] != walk[-1]:
        return False
    steps = list(zip(walk, walk[1:]))
    if len(steps) % 2 == 0:
        return False
    edges = set(g.edges)
    return all(tuple(sorted(e, key="xXyY".index)) in edges for e in steps)


def test_bipartite_check_is_sound_for_all_short_patterns():
    for n in range(2, 4):
        for tup in product(PATTERN_ALPHABET, repeat=n):
            g = pattern_graph("".join(tup))
            res = bipartite_check(g)
            if res.is_bipartite:
                assert all(res.coloring[u] != res.coloring[v] for u, v in g.edges)
            else:
                assert _valid_odd_walk(g, res.odd_cycle)


def test_alternating_avoided_seeds_have_odd_cycles():
    for p in SEED_PARTITION["alternating"]:
        assert not bipartite_check(pattern_graph(p)).is_bipartite, p


def test_instance_in_alternating():
    found = instance_in_alternating("xy")
    assert found is not None
    x, y = found
    assert apply_morphism("xy", x, y) in alternating_prefix(20)
    assert instance_in_alternating("xX") is None
    # y-only pattern gets a y assignment
    x, y = instance_in_alternating("yy")
    assert x is None and apply_morphism("yy", y=y) in alternating_prefix(20)


def test_instance_in_alternating_matches_brute_force():
    for n in range(2, 4):
        for tup in product(PATTERN_ALPHABET, repeat=n):
            p = "".join(tup)
            built = instance_in_alternating(p)
            brute = find_instance_bounded(alternating_prefix(4 * n + 4), p, 2, 2)
            assert (built is None) == (brute is None), p
