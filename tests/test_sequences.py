from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import revpat.sequences as seq
from revpat.matcher import avoids, find_instance
from revpat.sequences import (
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
    word = bytearray()
    seq._extend_square_limited(word, 18, 0)
    assert word.decode() == least
    assert square_limited_prefix(12) == least[:12]
    assert least[:12] == "000101100011"


def test_square_limited_extension_never_revises_the_emitted_floor():
    # both 011010 and 011011 end in a forbidden square, so extending 01101
    # means revising its third letter
    with pytest.raises(RuntimeError, match="emitted prefix"):
        seq._extend_square_limited(bytearray(b"01101"), 6, 5)
    word = bytearray(b"01101")
    seq._extend_square_limited(word, 6, 0)
    assert len(word) == 6 and word[:3] == b"011" and _allowed_squares_only(word.decode())


def test_square_limited_square_inventory():
    w = square_limited_prefix(400)
    assert collect_squares(w) <= {"00", "11", "0101"}
    assert {"00", "11", "0101"} <= collect_squares(w)
    assert "1010" not in w


def test_square_limited_prefix_stability_and_restart_equivalence(monkeypatch):
    monkeypatch.setattr(seq, "_sl_word", bytearray())
    monkeypatch.setattr(seq, "_sl_emitted", 0)
    first = square_limited_prefix(60)
    longer = square_limited_prefix(700)
    assert longer[:60] == first
    assert seq._sl_emitted == 700
    assert len(seq._sl_word) == 700 + seq.DEFAULT_LOOKAHEAD
    monkeypatch.setattr(seq, "_sl_word", bytearray())
    monkeypatch.setattr(seq, "_sl_emitted", 0)
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


def test_squares_of_the_pivot_word():
    assert collect_squares("201222012") == {"22"}


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


def test_left_completion_examples():
    assert left_completions("11", F3) == ["001011"]
    assert left_completions("011", F3)[0] == "001011"
    assert left_completions("01", F3) == []
    with pytest.raises(ValueError):
        left_completions("", F3)
    with pytest.raises(ValueError):
        left_completions("11", H)


def test_overlap_scan_examples():
    assert contains_overlap("000") == "000"
    assert contains_overlap("0101101101") is not None  # 011 011 0 -> a=0? scan finds some a.z.a.z.a
    assert contains_overlap("0011") is None
    assert contains_overlap(thue_morse_prefix(2000)) is None


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=30))
def test_overlap_scan_equals_pattern_searches(w):
    scan = contains_overlap(w) is not None
    matched = (find_instance(w, "xxx") is not None
               or find_instance(w, "xyxyx") is not None)
    assert scan == matched


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


def test_sequence_prefix_definitional_identities():
    n = 200
    assert sequence_prefix("w1", n) == apply_binary_morphism(F1, thue_morse_prefix(n))[:n]
    assert sequence_prefix("w3", n) == apply_binary_morphism(F3, thue_morse_prefix(n))[:n]
    assert sequence_prefix("g-ternary", n) == g_from(square_limited_prefix(n))[:n]
    assert sequence_prefix("thue-morse", 16) == "0110100110010110"
    with pytest.raises(ValueError):
        sequence_prefix("nope", 5)


def test_sequence_prefix_cache_round_trip(tmp_path):
    word = sequence_prefix("square-limited", 50, cache_dir=str(tmp_path))
    path = tmp_path / "square-limited-50.txt"
    assert path.read_text() == word + "\n"
    # a second call must come back from disk byte-identical
    assert sequence_prefix("square-limited", 50, cache_dir=str(tmp_path)) == word
    tm = sequence_prefix("thue-morse", 32, cache_dir=str(tmp_path))
    assert (tmp_path / "thue-morse-32.txt").read_text() == tm + "\n"


@pytest.mark.parametrize("seq_id, name, stored", [
    ("thue-morse", "thue-morse-32.txt", "0110100110010110"),  # truncated
    ("w2", "w2-32.txt", "0" * 31 + "2"),  # a letter outside {0, 1}
    ("g-ternary", "g-ternary-32.txt", "3" * 32),  # outside {0, 1, 2}
], ids=["truncated", "binary-holds-2", "ternary-holds-3"])
def test_sequence_prefix_regenerates_a_bad_cache_file(tmp_path, seq_id, name, stored):
    want = sequence_prefix(seq_id, 32)
    (tmp_path / name).write_text(stored + "\n")
    assert sequence_prefix(seq_id, 32, cache_dir=str(tmp_path)) == want
    assert (tmp_path / name).read_text() == want + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_prefix_stability_across_families():
    for sid in ("thue-morse", "alternating", "square-limited", "g-ternary",
                "w1", "w2", "w3", "w4"):
        short, long = sequence_prefix(sid, 40), sequence_prefix(sid, 300)
        assert long[:40] == short
