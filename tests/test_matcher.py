import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from revpat.engine import TWO_AVOIDABLE_SEEDS
from revpat.matcher import (
    InstanceWitness,
    apply_morphism,
    avoids,
    find_instance,
    find_instance_bounded,
    parse_word,
    witness_image,
)
from revpat.patterns import PATTERN_ALPHABET, iota, variable_counts
from revpat.sequences import alternating_prefix

ALL_PATTERNS_TO_4 = ["".join(t) for n in range(1, 5)
                     for t in product(PATTERN_ALPHABET, repeat=n)]


def test_parse_word():
    assert parse_word("0110") == "0110"
    assert parse_word("012", alphabet_size=3) == "012"
    with pytest.raises(ValueError, match="position 1"):
        parse_word("0a1")
    with pytest.raises(ValueError, match="outside"):
        parse_word("012", alphabet_size=2)
    with pytest.raises(ValueError):
        parse_word("0", alphabet_size=11)
    # str.isdigit accepts ARABIC-INDIC DIGIT THREE and SUPERSCRIPT TWO
    for text, pos in (("\u0663", 0), ("\u00b2", 0), ("\u0663\u0663", 0), ("0\u0663", 1)):
        for size in (None, 3, 10):
            with pytest.raises(ValueError, match=f"position {pos}"):
                parse_word(text, alphabet_size=size)


def test_apply_morphism_examples():
    assert apply_morphism("xyyX", x="01", y="2") == "012210"
    assert apply_morphism("xX", x="01") == "0110"
    assert apply_morphism("xyx", x="0", y="1") == "010"
    assert apply_morphism("yY", y="01") == "0110"


def test_apply_morphism_rejects_erasing():
    with pytest.raises(ValueError):
        apply_morphism("xyx", x="0")
    with pytest.raises(ValueError):
        apply_morphism("xyx", x="", y="1")
    with pytest.raises(ValueError):
        apply_morphism("x")


def test_find_instance_examples():
    assert find_instance("010", "xyx") == InstanceWitness(0, "0", "1")
    assert find_instance("010", "xyX") == InstanceWitness(0, "0", "1")
    assert find_instance("0110", "xX") == InstanceWitness(0, "01", None)
    assert find_instance(alternating_prefix(50), "xX") is None


def test_bounded_search_examples():
    assert find_instance_bounded("0110", "xX", 1, 1) == InstanceWitness(1, "1", None)
    assert find_instance_bounded("010010", "xyx", 1, 2) == InstanceWitness(0, "0", "1")
    with pytest.raises(ValueError):
        find_instance_bounded("0", "x", 0, 1)


def test_avoids_examples():
    assert avoids("0011", "xyx")
    assert not avoids("0110", "xyx")  # X=0, Y=11
    assert avoids("0", "xx")


def test_empty_pattern_is_rejected():
    with pytest.raises(ValueError):
        find_instance("01", "")
    with pytest.raises(ValueError):
        avoids("01", "")


def test_non_ascii_words_are_rejected():
    # "\u0663" is ARABIC-INDIC DIGIT THREE: a digit for str.isdigit, two bytes in UTF-8
    with pytest.raises(ValueError):
        find_instance("\u066300", "xx")
    with pytest.raises(ValueError):
        avoids("\u0663\u0664\u0663", "xyx")


def test_y_only_patterns_report_y_assignments():
    w = find_instance("00", "yy")
    assert w == InstanceWitness(0, None, "0")
    assert witness_image("yy", w) == "00"


def _oracle_find(w, p, max_x=None, max_y=None):
    """Direct enumeration of (start, |X|, |Y|) with apply_morphism as the
    only reconstruction step; independent of the matcher's slot logic."""
    a, b = variable_counts(p)
    n = len(w)
    for start in range(n):
        for lx in (range(1, min(n, max_x or n) + 1) if a else (0,)):
            for ly in (range(1, min(n, max_y or n) + 1) if b else (0,)):
                total = a * lx + b * ly
                if total == 0 or start + total > n:
                    continue
                x_val = y_val = None
                pos = start
                for sym in p:
                    length = lx if sym in "xX" else ly
                    seg = w[pos:pos + length]
                    if sym in "xX" and x_val is None:
                        x_val = seg if sym == "x" else seg[::-1]
                    if sym in "yY" and y_val is None:
                        y_val = seg if sym == "y" else seg[::-1]
                    pos += length
                if apply_morphism(p, x_val, y_val) == w[start:start + total]:
                    return InstanceWitness(start, x_val if a else None,
                                           y_val if b else None)
    return None


def test_matcher_agrees_with_oracle_on_all_short_patterns():
    # the 30-40 letter words and the length-5 seeds reach the kernel's
    # repeat cutoff and its |Y| pinning at many lengths
    rng = random.Random(20260810)
    words = [""] + ["".join(rng.choice("012"[:k]) for _ in range(rng.randint(1, 12)))
                    for k in (2, 2, 2, 3, 3) for _ in range(5)]
    words += ["".join(rng.choice("012"[:k]) for _ in range(rng.randint(30, 40)))
              for k in (2, 2, 3, 3)]
    seeds = sorted(s for s in TWO_AVOIDABLE_SEEDS if len(s) == 5)
    for p in ALL_PATTERNS_TO_4 + seeds:
        for w in words:
            got = find_instance(w, p) if w else None
            want = _oracle_find(w, p) if w else None
            assert got == want, (p, w)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["01", "012"]).flatmap(
           lambda letters: st.text(alphabet=letters, min_size=1, max_size=14)),
       st.text(alphabet=PATTERN_ALPHABET, min_size=1, max_size=4),
       st.integers(1, 5), st.integers(1, 5))
def test_matcher_agrees_with_oracle_on_random_words(w, p, max_x, max_y):
    assert find_instance(w, p) == _oracle_find(w, p)
    assert find_instance_bounded(w, p, max_x, max_y) == _oracle_find(w, p, max_x, max_y)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="012", min_size=1, max_size=14),
       st.text(alphabet=PATTERN_ALPHABET, min_size=1, max_size=4))
def test_witness_reconstructs_its_factor(w, p):
    wit = find_instance(w, p)
    if wit is not None:
        image = witness_image(p, wit)
        assert w[wit.start:wit.start + len(image)] == image


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=14),
       st.text(alphabet=PATTERN_ALPHABET, min_size=1, max_size=4))
def test_reversal_duality(w, p):
    assert (find_instance(w, p) is None) == (find_instance(w[::-1], iota(3, p)) is None)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="012", min_size=1, max_size=12),
       st.text(alphabet=PATTERN_ALPHABET, min_size=1, max_size=4),
       st.permutations("012"))
def test_letter_renaming_invariance(w, p, perm):
    table = str.maketrans("012", "".join(perm))
    assert avoids(w, p) == avoids(w.translate(table), p)


def test_bound_restricts_the_search():
    # unbounded finds X=01 at start 0; the bound forces the start-1 witness
    assert find_instance("0110", "xX").start == 0
    assert find_instance_bounded("0110", "xX", 1, 1).start == 1
