import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

from revpat.engine import classify, instance_in_alternating, pattern_graph, prove_k_unavoidable
from revpat.matcher import (
    InstanceWitness,
    apply_morphism,
    avoids,
    find_instance,
    find_instance_bounded,
    witness_image,
)
from revpat.patterns import (
    PATTERN_ALPHABET,
    canonical,
    equivalence_class,
    factors,
    iota,
    parse_pattern,
    pattern_key,
    reverse_mark,
    sorted_patterns,
    variable_counts,
)

patterns_st = st.text(alphabet=PATTERN_ALPHABET, max_size=6)


def test_parse_accepts_the_four_symbols():
    assert parse_pattern("xyxY") == "xyxY"
    assert parse_pattern("") == ""
    assert parse_pattern("xXyY") == "xXyY"


def test_parse_rejects_and_names_the_position():
    with pytest.raises(ValueError, match="position 2"):
        parse_pattern("xyzzY")


# every public function that answers a question about a pattern, applied to one
PATTERN_QUESTIONS = {
    "classify": classify,
    "canonical": canonical,
    "equivalence_class": equivalence_class,
    "iota": lambda p: iota(2, p),
    "find_instance": lambda p: find_instance("0101", p),
    "find_instance_bounded": lambda p: find_instance_bounded("0101", p, 2, 2),
    "avoids": lambda p: avoids("0000", p),
    "apply_morphism": lambda p: apply_morphism(p, "0", "1"),
    "witness_image": lambda p: witness_image(p, InstanceWitness(0, "0", "1")),
    "prove_k_unavoidable": lambda p: prove_k_unavoidable(p, 2, 10),
    "pattern_graph": pattern_graph,
    "instance_in_alternating": instance_in_alternating,
}


@pytest.mark.parametrize("text, symbol, position", [("xq", "q", 1), ("x y", " ", 1),
                                                     ("aa", "a", 0)])
@pytest.mark.parametrize("question", PATTERN_QUESTIONS)
def test_every_pattern_question_rejects_a_foreign_symbol(question, text, symbol, position):
    with pytest.raises(ValueError, match=re.escape(f"symbol {symbol!r} at position {position}")):
        PATTERN_QUESTIONS[question](text)


@pytest.mark.parametrize("question", ["find_instance", "find_instance_bounded", "avoids",
                                      "prove_k_unavoidable", "instance_in_alternating"])
def test_instance_questions_reject_the_empty_pattern(question):
    with pytest.raises(ValueError, match="the empty pattern has no instances; classify it"):
        PATTERN_QUESTIONS[question]("")


def test_reverse_mark_swaps_partners():
    assert reverse_mark("x") == "X"
    assert reverse_mark("Y") == "y"
    for sym in PATTERN_ALPHABET:
        assert reverse_mark(reverse_mark(sym)) == sym
    with pytest.raises(ValueError, match="invalid pattern symbol 'q'"):
        reverse_mark("q")


def test_iota_examples():
    assert iota(1, "x") == "X"
    assert iota(2, "xy") == "yx"
    assert iota(3, "xyXy") == "yXyx"
    with pytest.raises(ValueError):
        iota(4, "x")


@given(patterns_st, st.integers(min_value=1, max_value=3))
def test_iota_is_an_involution(p, j):
    assert iota(j, iota(j, p)) == p


def test_singleton_class_covers_all_symbols():
    assert equivalence_class("x") == frozenset({"x", "X", "y", "Y"})
    assert equivalence_class("") == frozenset({""})


def _full_orbit(p):
    """Independent orbit computation: close the two letter swaps under
    composition (8 letter maps), then apply each with and without reversal."""
    base = {
        "swap_mark": str.maketrans("xX", "Xx"),
        "swap_vars": str.maketrans("xXyY", "yYxX"),
    }
    maps = {PATTERN_ALPHABET}
    grew = True
    while grew:
        grew = False
        for m in list(maps):
            for table in base.values():
                new = m.translate(table)
                if new not in maps:
                    maps.add(new)
                    grew = True
    assert len(maps) == 8
    orbit = set()
    for image in maps:
        table = str.maketrans(PATTERN_ALPHABET, image)
        q = p.translate(table)
        orbit.add(q)
        orbit.add(q[::-1])
    return orbit


@given(patterns_st)
def test_class_matches_brute_force_orbit(p):
    assert equivalence_class(p) == _full_orbit(p)


def test_class_matches_brute_force_orbit_for_all_short_patterns():
    for n in range(7):
        for tup in product(PATTERN_ALPHABET, repeat=n):
            p = "".join(tup)
            assert equivalence_class(p) == _full_orbit(p), p


def test_class_size_of_xyXy_is_pinned():
    assert len(equivalence_class("xyXy")) == 16


@given(patterns_st)
def test_class_members_generate_the_same_class(p):
    for q in equivalence_class(p):
        assert equivalence_class(q) == equivalence_class(p)
        assert len(q) == len(p)


def test_canonical_examples():
    assert canonical("Xyy") == "xxy"
    assert canonical("xyXy") == "xyxY"
    assert canonical("yy") == "xx"


@given(patterns_st)
def test_canonical_is_the_least_member_and_idempotent(p):
    c = canonical(p)
    assert c in equivalence_class(p)
    assert all(pattern_key(c) <= pattern_key(q) for q in equivalence_class(p))
    assert canonical(c) == c


def test_factors_examples():
    assert factors("xy") == {"x", "y", "xy"}
    assert factors("x") == {"x"}
    assert factors("xxx") == {"x", "xx", "xxx"}
    assert len(factors("xyxY")) <= 4 * 5 // 2


def test_variable_counts():
    assert variable_counts("xyxY") == (2, 2)
    assert variable_counts("") == (0, 0)
    assert variable_counts("XXX") == (3, 0)


def test_ordering_prefers_prefixes_and_symbol_rank():
    assert pattern_key("x") < pattern_key("xx")
    assert pattern_key("xX") < pattern_key("xy")
    assert sorted_patterns(["y", "X", "x", "Y"]) == ["x", "X", "y", "Y"]


def test_all_length2_canonicals():
    got = {canonical("".join(t)) for t in product(PATTERN_ALPHABET, repeat=2)}
    assert got == {"xx", "xX", "xy"}
