import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from revpat import matcher
from revpat.engine import TWO_AVOIDABLE_SEEDS, prove_k_unavoidable
from revpat.matcher import (
    InstanceWitness,
    apply_morphism,
    avoids,
    find_instance,
    find_instance_bounded,
    parse_word,
    witness_image,
    x_led,
)
from revpat.patterns import PATTERN_ALPHABET, equivalence_class, iota, variable_counts
from revpat.sequences import alternating_prefix, square_limited_prefix, thue_morse_prefix

ALL_PATTERNS_TO_4 = ["".join(t) for n in range(1, 5)
                     for t in product(PATTERN_ALPHABET, repeat=n)]
ALL_PATTERNS_5 = ["".join(t) for t in product(PATTERN_ALPHABET, repeat=5)]


class _CountedWord(bytes):
    """A word whose ``find`` fails after 100 calls, so a kernel call that
    stops making progress fails instead of looping."""

    finds = 0

    def find(self, *args):
        self.finds += 1
        if self.finds > 100:
            raise RuntimeError("the kernel called find more than 100 times")
        return super().find(*args)


def test_key_hit_at_the_reach_needs_no_jump():
    # kept first in the module: the key slot's head found exactly at this
    # |X|'s reach is an instance, and jumping there would leave |X| as it is
    for p, w, want in (("xx", b"00", (b"0", None)), ("xyx", b"010", (b"0", b"1")),
                       ("xxX", b"000", (b"0", None))):
        assert matcher._match_at(matcher._plan(p), _CountedWord(w), 0) == want, p


def test_square_y_kernel_stops_where_no_square_begins_the_y_run():
    # kept before the oracle tests: a square jump that loops stalls them but
    # fails here, where the word gives up after 100 calls to find.  With
    # x = 0 or 00, no square of any half begins where the y-run does, so
    # the kernel stops at the first place of the run instead of walking the
    # 150 places of x that give a whole |Y|
    w = b"001" + b"0" * 300
    for p in ("xxyyx", "xxYYx", "xyyxx"):
        assert matcher._match_at(matcher._plan(p), _CountedWord(w), 0) is None, p
    # the run gives |Y| = 2 at 6, and the head 10 of the y-run at 2 recurs
    # at 5, one place on: the run search goes on from |Y| = 3, where the
    # square 101101 begins the y-run and x = 0 follows it
    w = b"00" + b"10110" + b"1" + b"0" * 60
    assert matcher._match_at(matcher._plan("xxyyx"), _CountedWord(w), 0) == (b"0", b"101")


def test_parse_word():
    assert parse_word("0110") == "0110"
    assert parse_word("0123456789") == "0123456789"
    with pytest.raises(ValueError, match="position 1"):
        parse_word("0a1")
    # str.isdigit accepts ARABIC-INDIC DIGIT THREE and SUPERSCRIPT TWO
    for text, pos in (("\u0663", 0), ("\u00b2", 0), ("\u0663\u0663", 0), ("0\u0663", 1)):
        with pytest.raises(ValueError, match=f"position {pos}"):
            parse_word(text)


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
    # a y-led pattern is scanned with x and y swapped, bounds included
    assert find_instance("00100", "yxy") == InstanceWitness(0, "1", "00")
    assert find_instance_bounded("00100", "yxy", 2, 1) == InstanceWitness(0, "01", "0")
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


def test_words_must_be_digit_strings():
    with pytest.raises(ValueError, match="'a' at position 0"):
        find_instance("abab", "xx")
    with pytest.raises(ValueError, match="'a' at position 1"):
        avoids("0a0a", "xx")
    with pytest.raises(ValueError, match="'x' at position 2"):
        find_instance_bounded("01x", "x", 1, 1)
    with pytest.raises(ValueError, match="position 1"):
        avoids("0 1", "yY")  # a y-only pattern is matched through its x form


def test_y_only_patterns_report_y_assignments():
    w = find_instance("00", "yy")
    assert w == InstanceWitness(0, None, "0")
    assert witness_image("yy", w) == "00"


def _oracle_find(w, p, max_x=None, max_y=None, starts=None, floor=0):
    """Direct enumeration of (start, |X|, |Y|): each slot's letters, read
    backwards in an uppercase slot, must equal its variable's first value;
    independent of the matcher's slot logic.  ``starts`` limits the starts
    tried; instances no longer than ``floor`` are skipped."""
    a, b = variable_counts(p)
    n = len(w)
    for start in range(n) if starts is None else starts:
        for lx in (range(1, min(n, max_x or n) + 1) if a else (0,)):
            for ly in (range(1, min(n, max_y or n) + 1) if b else (0,)):
                if start + a * lx + b * ly > n:
                    break  # a longer |Y| overruns the word too
                if a * lx + b * ly <= floor:
                    continue
                values = {}
                pos = start
                for sym in p:
                    length = lx if sym in "xX" else ly
                    seg = w[pos:pos + length]
                    pos += length
                    if sym in "XY":
                        seg = seg[::-1]
                    if values.setdefault(sym.lower(), seg) != seg:
                        break
                else:
                    return InstanceWitness(start, values.get("x"), values.get("y"))
    return None


def _y_after_pinned_run(p):
    """True when p's x-led form has a y slot right after the x-run that
    follows its first y-run."""
    after_y = x_led(p).lstrip("xX").lstrip("yY")
    return after_y.lstrip("xX") not in ("", after_y)


def test_matcher_agrees_with_oracle_on_all_short_patterns():
    # the 30-40 letter words and the length-5 seeds reach the kernel's
    # recurrence jump at many lengths (a head with no place left, a jump
    # past the last |X| and a jump that lands, with forward and reversed key
    # slots), its |Y| pinning and its floor; the
    # seeds' y-led and Y-led orbit members are scanned renamed and re-read in
    # their own order, also under bounds, which cap the renamed form's |Y| by
    # p's |X|
    rng = random.Random(20260810)
    words = [""] + ["".join(rng.choice("012"[:k]) for _ in range(rng.randint(1, 12)))
                    for k in (2, 2, 2, 3, 3) for _ in range(5)]
    words += ["".join(rng.choice("012"[:k]) for _ in range(rng.randint(30, 40)))
              for k in (2, 2, 3, 3)]
    # periodic, eventually periodic and Thue-Morse words, where most starts
    # get a high floor; in the last, xX and its orbit first occur after 32
    # periodic letters
    words += ["01" * 17, "0110" * 9 + "0", "0" * 5 + "011" * 10, "012" * 11,
              thue_morse_prefix(37), "01" * 16 + "00"]
    seeds = sorted(s for s in TWO_AVOIDABLE_SEEDS if len(s) == 5)
    y_led = sorted(q for s in seeds for q in equivalence_class(s) if q[0] in "yY")
    for p in ALL_PATTERNS_TO_4 + seeds + y_led:
        for w in words:
            got = find_instance(w, p) if w else None
            want = _oracle_find(w, p) if w else None
            assert got == want, (p, w)
    for p in y_led:
        for w in words[1:]:
            for max_x, max_y in ((1, 1), (1, 3), (3, 1), (2, 4)):
                got = find_instance_bounded(w, p, max_x, max_y)
                assert got == _oracle_find(w, p, max_x, max_y), (p, w, max_x, max_y)
    # the kernel rejects |Y| by the y slot right after the x-run that pins
    # it, before y is sliced: every length-5 pattern with such a slot, over
    # longer words where that slot is often the first to differ
    long_words = ["".join(rng.choice("012"[:k]) for _ in range(rng.randint(30, 48)))
                  for k in (2, 2, 3, 3)]
    for p in ALL_PATTERNS_5:
        if _y_after_pinned_run(p):
            for w in long_words:
                assert find_instance(w, p) == _oracle_find(w, p), (p, w)


# every x-led pattern up to length 6 that opens with a repeated two-slot
# block, xy.xy or xY.xY: the kernel reads its |Y| off the squares at a start
SQUARE_LED = ["x" + y + "x" + y + "".join(t) for y in "yY"
              for n in range(3) for t in product(PATTERN_ALPHABET, repeat=n)]


def test_square_led_kernel_agrees_with_oracle_on_square_rich_words():
    # overlap-free, periodic and square-limited hosts, where most starts
    # begin with a square and some with several; every start, floors 0..5,
    # with and without caps
    hosts = [thue_morse_prefix(32), thue_morse_prefix(64)[29:], "01" * 12,
             square_limited_prefix(30), "0102" * 6]
    for p in SQUARE_LED:
        plan = matcher._plan(p)
        assert plan[-1], p  # the square path
        for w in hosts:
            data = w.encode()
            for start in range(len(w)):
                for floor in range(6):
                    for max_x, max_y in ((None, None), (2, 3), (3, 1)):
                        got = matcher._match_at(plan, data, start, max_x, max_y, floor)
                        want = _oracle_find(w, p, max_x, max_y, (start,), floor)
                        assert got == (want and (want.x.encode(), want.y.encode())), (
                            p, w, start, max_x, max_y, floor)
            assert find_instance(w, p) == _oracle_find(w, p), (p, w)


def test_square_led_kernel_stops_where_no_square_starts():
    # 0120 starts no square, so neither does an instance of xyxy's form
    w = b"01201010"
    assert list(matcher._square_halves(w, 0, 1, len(w) // 2)) == []
    assert list(matcher._square_halves(w, 3, 1, 2)) == [2]  # 0101
    for p, at_3 in (("xyxy", (b"0", b"1")), ("xYxYx", (b"0", b"1")), ("xyxyy", None)):
        assert matcher._match_at(matcher._plan(p), _CountedWord(w), 0) is None
        assert matcher._match_at(matcher._plan(p), w, 3) == at_3, p

def _y_run_opens_with_a_square(p):
    """True when p's first y-run opens with yy or YY and an x-run follows it."""
    body = p.lstrip("xX")
    return body[:2] in ("yy", "YY") and body.lstrip("yY")[:1] in ("x", "X")


# every x-led pattern up to length 6 whose first y-run opens with yy or YY
# and is followed by an x-run: each |Y| the run gives must begin a square
SQUARE_Y = [p for n in range(4, 7) for t in product(PATTERN_ALPHABET, repeat=n - 1)
            for p in ["x" + "".join(t)] if _y_run_opens_with_a_square(p)]


def test_square_y_kernel_agrees_with_oracle_on_square_rich_words():
    # overlap-free, square-limited, periodic, unary and random binary hosts:
    # a y-run square at many |Y| the run gives, at none, or further on;
    # every start, floors 0..5, with and without caps
    rng = random.Random(20261020)
    hosts = [thue_morse_prefix(24), square_limited_prefix(24), "01" * 10, "0" * 16]
    hosts += ["".join(rng.choice("01") for _ in range(20)) for _ in range(2)]
    for p in ["x" + "".join(t) for n in range(1, 7) for t in product(PATTERN_ALPHABET, repeat=n - 1)]:
        pin = matcher._plan(p)[8]
        assert bool(pin and pin[4]) == (p in SQUARE_Y), p
    for p in SQUARE_Y:
        plan = matcher._plan(p)
        for w in hosts:
            data = w.encode()
            for start in range(len(w)):
                for floor in range(6):
                    for max_x, max_y in ((None, None), (2, 3), (3, 1)):
                        got = matcher._match_at(plan, data, start, max_x, max_y, floor)
                        want = _oracle_find(w, p, max_x, max_y, (start,), floor)
                        assert got == (want and (want.x.encode(), want.y.encode())), (
                            p, w, start, max_x, max_y, floor)


def test_square_halves_are_the_squares_at_a_start():
    words = [thue_morse_prefix(80), "01" * 30, "0" * 40, square_limited_prefix(80), "0102" * 15]
    for w in words:
        data = w.encode()
        for start in range(len(w)):
            room = len(w) - start
            squares = [h for h in range(1, room // 2 + 1) if w[start:start + h] == w[start + h:start + 2 * h]]
            for least, most in ((1, room // 2), (2, room // 2), (3, 5), (1, 1)):
                got = list(matcher._square_halves(data, start, least, most))
                assert got == [h for h in squares if least <= h <= most], (w, start, least, most)


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


def _first_repeated_suffix(w):
    """Least s whose suffix w[s:] also starts at an earlier position."""
    return next(s for s in range(len(w) + 1) if w.find(w[s:]) < s)


def _spy_starts(monkeypatch):
    starts = []
    match_at = matcher._match_at

    def spy(plan, w, start, max_x=None, max_y=None, floor=0):
        starts.append(start)
        return match_at(plan, w, start, max_x, max_y, floor)

    monkeypatch.setattr(matcher, "_match_at", spy)
    return starts


@pytest.mark.parametrize("p", ["yxYxx", "YxyXy", "yxxY"])
def test_y_led_scans_run_the_kernel_once_per_start(p, monkeypatch):
    # a search witness avoids p; appending an image of p makes an instance
    word = prove_k_unavoidable(p, 2, 200).longest_word
    hit = word + apply_morphism(p, "0", "1")
    assert not avoids(hit, p)
    starts = _spy_starts(monkeypatch)
    assert len(word) == 200 and avoids(word, p) and find_instance(word, p) is None
    # the scans stop at the first start whose whole suffix occurs earlier
    assert starts == 2 * list(range(_first_repeated_suffix(word)))
    starts.clear()
    wit = find_instance(hit, p)
    # the scan up to the hit, then only reruns at the start it found
    scanned = list(range(wit.start + 1))
    assert starts[:len(scanned)] == scanned and set(starts[len(scanned):]) <= {wit.start}
    assert hit[wit.start:].startswith(witness_image(p, wit))


def test_periodic_words_stop_the_scan_early(monkeypatch):
    starts = _spy_starts(monkeypatch)
    assert avoids("01" * 100, "xyYx")
    assert starts == [0, 1]
