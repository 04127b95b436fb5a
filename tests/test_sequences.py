import hashlib
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import revpat.sequences as seq
from revpat.matcher import avoids, find_instance
from revpat.sequences import (
    COMPLETION_FACTOR_BOUND,
    F1,
    F2,
    F3,
    F4,
    H,
    MORPHISMS,
    alternating_prefix,
    apply_binary_morphism,
    bispecial_factors,
    collect_squares,
    contains_overlap,
    covering_prefix_length,
    factor_set,
    g_from,
    left_completions,
    reversible_factors,
    sequence_prefix,
    square_limited_prefix,
    thue_morse_prefix,
    tm_factor_images,
    tm_image,
)


def test_thue_morse_examples():
    assert thue_morse_prefix(7) == "0110100"
    assert thue_morse_prefix(1) == "0"
    assert thue_morse_prefix(16) == "0110100110010110"
    assert thue_morse_prefix(0) == ""


def test_thue_morse_against_parity_oracle():
    w = thue_morse_prefix(2048)
    assert all(int(w[i]) == bin(i).count("1") % 2 for i in range(2048))


def test_thue_morse_prefix_stability_and_morphism_identity():
    assert thue_morse_prefix(100) == thue_morse_prefix(1000)[:100]
    assert apply_binary_morphism(H, "0110100") == thue_morse_prefix(14)


def test_alternating_examples():
    assert alternating_prefix(4) == "0101"
    assert alternating_prefix(0) == ""
    assert alternating_prefix(5) == "01010"
    with pytest.raises(ValueError, match="non-negative"):
        alternating_prefix(-1)


def test_morphism_constants():
    assert len(apply_binary_morphism(F1, "1")) == 11
    assert apply_binary_morphism(F3, "01") == "0001011"
    assert (len(F2[1]), len(F3[1]), len(F4[1])) == (8, 6, 10)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="01", max_size=40))
def test_binary_morphism_is_the_letterwise_image(w):
    for m in MORPHISMS.values():
        assert apply_binary_morphism(m, w) == "".join(m[int(c)] for c in w)


def test_binary_morphism_rejects_non_binary_letters():
    for w in ("0120", "2", "01a", "0\u0661"):
        with pytest.raises(ValueError, match="not binary"):
            apply_binary_morphism(F1, w)


def _allowed_squares_only(w):
    for h in range(2, len(w) // 2 + 1):
        for i in range(len(w) - 2 * h + 1):
            if w[i:i + h] == w[i + h:i + 2 * h] and w[i:i + 2 * h] != "0101":
                return False
    return True


def test_square_limited_matches_exhaustive_enumeration():
    # lexicographic enumeration: the first word with only allowed squares is
    # the minimum, independently of the generator's backtracking
    least = next(w for w in map("".join, product("01", repeat=18)) if _allowed_squares_only(w))
    assert seq._extend_square_limited("", 18, 0)[::-1] == least
    assert square_limited_prefix(12) == least[:12]
    assert least[:12] == "000101100011"


def test_square_limited_extension_never_revises_the_emitted_floor():
    # both 011010 and 011011 end in a forbidden square, so extending 01101
    # means revising its third letter; the generator holds its word newest
    # letter first
    with pytest.raises(RuntimeError, match="emitted prefix"):
        seq._extend_square_limited("01101"[::-1], 6, 5)
    word = seq._extend_square_limited("01101"[::-1], 6, 0)[::-1]
    assert len(word) == 6 and word[:3] == "011" and _allowed_squares_only(word)


def test_square_limited_extension_cannot_backtrack_past_the_first_letter(monkeypatch):
    # a rule that forbids every word leaves no first letter to revise; the floor,
    # never below 0, stops the search before the word runs out
    monkeypatch.setattr(seq, "_ends_in_forbidden_square", lambda word: True)
    with pytest.raises(RuntimeError, match="emitted prefix"):
        seq._extend_square_limited("", 3, 0)


@pytest.mark.parametrize("depth, reached", [(17, None), (16, 508)])
def test_square_limited_lookahead_margin_is_measured(depth, reached):
    # grown a letter at a time, the search revises no letter more than 17 places
    # below the length it grows to, first that deep at 508 letters: the lookahead
    # of 100 has a margin of 83
    word = ""
    try:
        for target in range(1, 4101):
            word = seq._extend_square_limited(word, target, max(target - depth, 0))
    except RuntimeError:
        assert target == reached
    else:
        assert reached is None and word[::-1] == square_limited_prefix(4100)


def test_square_limited_prefix_4000_is_pinned(monkeypatch):
    # sha256 of the 4,000-letter prefix as generated by the per-half-length
    # scan this generator replaced; a generator that keeps the allowed
    # squares but does not emit the least word fails here
    monkeypatch.setattr(seq, "_sl_word", "")
    digest = hashlib.sha256(square_limited_prefix(4000).encode()).hexdigest()
    assert digest == "8ef18093a6695230966f1277687d7143099f75e97b99beb1a28e45c7cb650071"


def test_square_limited_square_inventory():
    w = square_limited_prefix(400)
    assert collect_squares(w) <= {"00", "11", "0101"}
    assert {"00", "11", "0101"} <= collect_squares(w)
    assert "1010" not in w


def test_square_limited_prefix_stability_and_restart_equivalence(monkeypatch):
    extend = seq._extend_square_limited
    floors = []

    def recorded(word, target, floor):
        floors.append(floor)
        return extend(word, target, floor)

    monkeypatch.setattr(seq, "_extend_square_limited", recorded)
    monkeypatch.setattr(seq, "_sl_word", "")
    first = square_limited_prefix(60)
    longer = square_limited_prefix(700)
    assert longer[:60] == first
    # the word's length alone says how much of it was handed out
    assert floors == [0, 60]
    assert len(seq._sl_word) == 700 + seq.DEFAULT_LOOKAHEAD
    assert square_limited_prefix(300) == longer[:300] and floors == [0, 60]
    monkeypatch.setattr(seq, "_sl_word", "")
    assert square_limited_prefix(700) == longer


def test_square_limited_rejects_bad_arguments():
    with pytest.raises(ValueError):
        square_limited_prefix(-1)


def test_g_from_examples():
    assert g_from("0110") == "0112220"
    assert g_from("10") == "12220"
    assert g_from("") == ""


def test_g_block_shape():
    g = g_from(square_limited_prefix(500))
    runs = []
    i = 0
    while i < len(g):
        j = i
        while j < len(g) and g[j] == g[i]:
            j += 1
        runs.append((g[i], j - i))
        i = j
    # drop the possibly clipped last run; 2-runs have length exactly 3,
    # 0/1-runs length 1..3, and letters cycle 0 -> 1 -> 2 -> 0
    for (c, n) in runs[:-1]:
        if c == "2":
            assert n == 3
        else:
            assert 1 <= n <= 3
    order = "".join(c for c, _ in runs)
    assert all(cd not in order for cd in ("02", "21", "10"))


def test_g_mod3_and_forbidden_factors():
    g = g_from(square_limited_prefix(500))
    assert all(bad not in g for bad in ("10", "21", "02"))
    assert "220122201" not in g
    assert "012220122" not in g


def test_factor_set_examples():
    assert factor_set("0110100", 2) == {"01", "11", "10", "00"}
    assert factor_set("0110", 4) == {"0110"}
    assert factor_set("01", 0) == {""}
    with pytest.raises(ValueError):
        factor_set("01", 3)


def test_factor_count_pinned_and_covering():
    t112 = thue_morse_prefix(112)
    assert len(factor_set(t112, 17)) == 48
    assert factor_set(thue_morse_prefix(10000), 17) <= factor_set(t112, 17)


def test_reversible_factors_examples():
    img = apply_binary_morphism(F1, thue_morse_prefix(56))
    assert reversible_factors(img, 7) == set()
    assert reversible_factors("0110", 2) == {"01", "10", "11"}
    w = "01101"
    assert reversible_factors(w, 1) == factor_set(w, 1)


def test_bispecial_examples():
    assert bispecial_factors(thue_morse_prefix(16), 1) == {"0", "1"}
    assert bispecial_factors("0101", 2) == set()
    assert bispecial_factors("0110100110010110", 0) == set()
    # a max_len beyond the word reads every length a bispecial factor can have
    assert bispecial_factors("0110", 6) == {"1"}
    assert bispecial_factors("", 1) == set()
    t = thue_morse_prefix(16)
    assert bispecial_factors(t, 40) == bispecial_factors(t, 15) == {
        "0", "1", "01", "10", "010", "101", "0110", "1001"}


def test_left_completion_examples():
    assert left_completions("11", F3) == ["001011"]
    assert left_completions("011", F3)[0] == "001011"
    assert left_completions("01", F3) == []
    with pytest.raises(ValueError):
        left_completions("", F3)
    with pytest.raises(ValueError):
        left_completions("11", H)


def _left_completions_by_scan(u, suffix_lengths):
    """Every image v ending in u with no proper image-suffix as long as u, read
    off a linear scan of the whole table of image suffix lengths."""
    return sorted((v for v, suffix_len in suffix_lengths.items()
                   if suffix_len < len(u) and v.endswith(u)), key=lambda v: (len(v), v))


def _image_suffix_lengths(m, bound):
    images = tm_factor_images(m, bound)
    return {v: next((n for n in range(len(v) - 1, 0, -1) if v[-n:] in images), 0) for v in images}


@pytest.mark.parametrize("m", [F1, F2, F3, F4], ids=["f1", "f2", "f3", "f4"])
def test_left_completions_match_a_linear_scan(m):
    word = apply_binary_morphism(m, thue_morse_prefix(300))[:300]
    suffix_lengths = _image_suffix_lengths(m, COMPLETION_FACTOR_BOUND)
    longest = max(suffix_lengths, key=len)
    edge_cases = [
        "1", "01", "0010110",  # short: the tables over factors of 1, 2 and 7 letters
        longest, min(suffix_lengths, key=len),  # a whole image
        "0" + longest,  # longer than every image
        "2", "12", "0101101112",  # not binary
    ]
    factors_of_word = [u for length in range(1, 26) for u in sorted(factor_set(word, length))]
    for u in factors_of_word + edge_cases:
        assert left_completions(u, m) == _left_completions_by_scan(u, suffix_lengths), u
    assert left_completions(longest, m) == [longest]
    assert left_completions("0" + longest, m) == []


@pytest.mark.parametrize("m", [F1, F2, F3, F4], ids=["f1", "f2", "f3", "f4"])
def test_one_completion_table_reads_every_smaller_bound(m):
    # the images whose least factor length is at most L are the table at L
    least, reversed_images = seq._completion_table(m, COMPLETION_FACTOR_BOUND)
    assert reversed_images == sorted((v[::-1], length) for v, length in least.items())
    for max_len in range(1, 25):
        assert {v for v, length in least.items() if length <= max_len} == tm_factor_images(m, max_len)


def test_overlap_scan_examples():
    assert contains_overlap("000") == "000"
    assert contains_overlap("0101101101") == "1011011"  # start 1, period 3
    assert contains_overlap("0011") is None
    assert contains_overlap(thue_morse_prefix(2000)) is None


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=30))
def test_overlap_scan_equals_pattern_searches(w):
    scan = contains_overlap(w) is not None
    matched = (find_instance(w, "xxx") is not None
               or find_instance(w, "xyxyx") is not None)
    assert scan == matched


# Brute-force references: the per-(position, period) slice comparisons the
# period scans replaced.

def _brute_squares(w):
    data = w.encode()
    mv = memoryview(data)
    n = len(w)
    found = set()
    for h in range(1, n // 2 + 1):
        for i in range(n - 2 * h + 1):
            if data[i] == data[i + h] and mv[i:i + h] == mv[i + h:i + 2 * h]:
                found.add(w[i:i + 2 * h])
    return found


def _brute_overlap(w):
    data = w.encode()
    mv = memoryview(data)
    n = len(w)
    for i in range(n - 2):
        for period in range(1, (n - i - 1) // 2 + 1):
            if data[i] == data[i + period] and mv[i:i + period + 1] == mv[i + period:i + 2 * period + 1]:
                return w[i:i + 2 * period + 1]
    return None


def _brute_forbidden_square_ends(w):
    """Does a square outside {00, 11, 0101} end at the last letter of w?"""
    n = len(w)
    for h in range(1, n // 2 + 1):
        if w[n - 2 * h:n - h] == w[n - h:n]:
            if w[n - 2 * h:] in ("00", "11", "0101"):
                continue
            return True
    return False


def _generator_end_test(w):
    # the generator holds its word newest letter first
    return seq._ends_in_forbidden_square(w[::-1])


# The generator's former end test: a square outside {00, 11, 0101} at the
# start of the reversed word, half-length 2 except 1010, or 3 and more.
_FORBIDDEN_SQUARE = re.compile(r"(?!1010)(..)\1|(...+)\2")


def test_forbidden_square_end_test_matches_the_regular_expression():
    for n in range(17):
        for word in map("".join, product("01", repeat=n)):
            assert seq._ends_in_forbidden_square(word) == (
                _FORBIDDEN_SQUARE.match(word) is not None), word


def test_forbidden_square_end_test_reads_the_allowed_squares(monkeypatch):
    # newest letter first, 1010 is the allowed square 0101 read forward; a
    # square is forbidden once the inventory drops it, of half 1 too
    for dropped, word in (("0101", "1010"), ("00", "00")):
        assert not seq._ends_in_forbidden_square(word)
        monkeypatch.setattr(seq, "ALLOWED_SQUARES", seq.ALLOWED_SQUARES - {dropped})
        assert seq._ends_in_forbidden_square(word), dropped
        monkeypatch.undo()


_WORDS = st.sampled_from(["01", "012", "0123456789"]).flatmap(
    lambda letters: st.text(alphabet=letters, max_size=40))


@settings(max_examples=300, deadline=None)
@given(_WORDS)
def test_repetition_scans_match_brute_force(w):
    assert collect_squares(w) == _brute_squares(w)
    assert contains_overlap(w) == _brute_overlap(w)
    assert _generator_end_test(w) == _brute_forbidden_square_ends(w)


@pytest.mark.parametrize("w", [
    thue_morse_prefix(2000), square_limited_prefix(2000), "0" * 300, "01" * 200, "012" * 90,
], ids=["thue-morse-2000", "square-limited-2000", "0x300", "01x200", "012x90"])
def test_repetition_scans_match_brute_force_on_long_words(w):
    assert collect_squares(w) == _brute_squares(w)
    assert contains_overlap(w) == _brute_overlap(w)
    for n in range(len(w) + 1):
        assert _generator_end_test(w[:n]) == _brute_forbidden_square_ends(w[:n])


def test_repetition_scan_examples():
    assert collect_squares("201222012") == {"22"}  # the pivot word
    assert collect_squares("") == set() and contains_overlap("") is None
    assert contains_overlap("01" * 200) == "01010"
    assert contains_overlap("012" * 90) == "0120120"
    assert collect_squares("0" * 6) == {"00", "0000", "000000"}


def test_repetition_scans_reject_non_digit_words():
    for scan in (collect_squares, contains_overlap):
        with pytest.raises(ValueError, match="position 0"):
            scan("\u00e9\u00e9\u00e9")
        with pytest.raises(ValueError, match="'a' at position 1"):
            scan("0a0a00110101")


def test_overlap_freeness_via_matcher_at_shorter_length():
    t = thue_morse_prefix(400)
    assert avoids(t, "xxx")
    assert avoids(t, "xyxyx")


def test_covering_prefix_length_values():
    assert covering_prefix_length(2) == 7
    assert covering_prefix_length(6) == 56
    assert covering_prefix_length(9) == 56
    assert covering_prefix_length(10) == 112
    assert covering_prefix_length(17) == 112
    with pytest.raises(ValueError):
        covering_prefix_length(-5)


def test_tm_image_offsets_cut_out_every_factor_image():
    for m in MORPHISMS.values():
        tau, image, at = tm_image(m, 56)
        assert tau == thue_morse_prefix(56)
        assert at[-1] == len(image)
        for i in range(57):
            for j in range(i, 57):
                assert image[at[i]:at[j]] == apply_binary_morphism(m, tau[i:j])


def test_tm_factor_images_match_the_per_factor_images():
    tau = thue_morse_prefix(covering_prefix_length(12))
    for m in (F1, F2, F3, F4, H):
        for max_len in range(1, 13):
            expected = {apply_binary_morphism(m, v)
                        for length in range(1, max_len + 1) for v in factor_set(tau, length)}
            assert tm_factor_images(m, max_len) == expected


def test_odd_factors_parse_into_h_blocks():
    # the parsing lemma behind the fixed-point clause: the factor of length 2k - 1 at
    # i is h(v), for the k letters v of t from i // 2, less its first letter
    # when i is odd, else less its last
    t = thue_morse_prefix(512)
    for k in range(1, 257):
        for i in range(512 - 2 * k + 2):
            image = apply_binary_morphism(H, t[i // 2:i // 2 + k])
            assert t[i:i + 2 * k - 1] == image[i % 2:][:2 * k - 1], (i, k)


@pytest.mark.parametrize("e", range(7))
def test_covering_step_parses_into_h_blocks(e):
    # the step of tm-prefix-covering's induction, on every factor u of length
    # 2^(e+1) + 1 in a host four times the covering prefix of u's length: u lies
    # in h(v) for the 2^e + 1 letters v from i // 2, v lies in the covering prefix
    # of its length, and h of that prefix is the covering prefix of u's length
    short, long = (covering_prefix_length((1 << k) + 1) for k in (e, e + 1))
    assert long == 2 * short
    assert apply_binary_morphism(H, thue_morse_prefix(short)) == thue_morse_prefix(long)
    t = thue_morse_prefix(4 * long)
    u_len = (1 << (e + 1)) + 1
    for i in range(len(t) - u_len + 1):
        v = t[i // 2:i // 2 + (1 << e) + 1]
        assert t[i:i + u_len] in apply_binary_morphism(H, v), (e, i)
        assert v in t[:short], (e, i)


def test_trimmed_h_images_are_the_odd_factors_of_h_tau():
    # the converse of the parsing lemma: each h-image of a factor of half
    # letters, less one letter at either end, is an odd-length factor of h(tau)
    for half in range(1, 65):
        tau = thue_morse_prefix(covering_prefix_length(half))
        trimmed = set()
        for v in factor_set(tau, half):
            image = apply_binary_morphism(H, v)
            trimmed |= {image[:-1], image[1:]}
        assert trimmed == factor_set(apply_binary_morphism(H, tau), 2 * half - 1)


def test_sequence_prefix_definitional_identities():
    n = 200
    assert sequence_prefix("w1", n) == apply_binary_morphism(F1, thue_morse_prefix(n))[:n]
    assert sequence_prefix("w3", n) == apply_binary_morphism(F3, thue_morse_prefix(n))[:n]
    assert sequence_prefix("g-ternary", n) == g_from(square_limited_prefix(n))[:n]
    assert sequence_prefix("thue-morse", 16) == "0110100110010110"
    with pytest.raises(ValueError):
        sequence_prefix("nope", 5)


def test_prefix_stability_across_families():
    for sid in ("thue-morse", "alternating", "square-limited", "g-ternary",
                "w1", "w2", "w3", "w4"):
        short, long = sequence_prefix(sid, 40), sequence_prefix(sid, 300)
        assert long[:40] == short
