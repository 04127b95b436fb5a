import ast
import inspect
import json
import operator
import random
import sys
from math import inf
from pathlib import Path

import pytest

from revpat import engine, sequences, verify
from revpat.engine import Avoidability, BacktrackReport
from revpat.matcher import apply_morphism, find_instance
from revpat.patterns import canonical, factors
from revpat.sequences import (
    ALLOWED_SQUARES,
    COMPLETION_FACTOR_BOUND,
    F1,
    F2,
    F3,
    F4,
    H,
    apply_binary_morphism,
    covering_prefix_length,
    factor_set,
    left_completions,
    reversible_factors,
    thue_morse_prefix,
    tm_factor_images,
    tm_image,
)
from revpat.verify import (
    CHECKS,
    UPSILON,
    _bounded_hit,
    _image_window,
    _reversal_bound,
    bound_factor_length,
    internal_factors,
    mod3_step_violation,
    run_checks,
    vf_alternating_theorem,
    vf_classifier_oracle,
    vf_morphic,
    vf_pigeonhole,
    vf_square_limited,
    vf_w3,
)


def test_upsilon_table_shape():
    assert len(UPSILON) == 22
    assert {len(u) for u in UPSILON} == {1, 2, 3, 4, 5, 6}
    assert "100001" in UPSILON and "0110" in UPSILON


def test_bound_factor_length_anchors():
    assert bound_factor_length(7, 11) == 6
    assert bound_factor_length(7, 11) < 7
    assert bound_factor_length(30, 11) == 10
    assert bound_factor_length(0, 1) == 0
    # l = 1: v is u's own letters, so the bound is exact
    assert [bound_factor_length(n, 1) for n in range(6)] == list(range(6))
    with pytest.raises(ValueError):
        bound_factor_length(-1, 1)


@pytest.mark.parametrize("m", [F1, F2, F3, F4], ids=["f1", "f2", "f3", "f4"])
def test_bound_factor_length_holds_at_every_length_a_check_reads(m):
    # every occurrence of a factor u in f(t[:2048]) lies in the images of at
    # most bound_factor_length(|u|, l) letters of t, by the docstring's sharper
    # 2(|u| + 2l - 2) // (l + 1); and _image_window holds every such u
    ell = len(m[1])
    tau, image, at = tm_image(m, 2048)
    letter = [i for i in range(len(tau)) for _ in range(at[i], at[i + 1])]
    for n in range(1, 71):
        span = max(map(operator.sub, letter[n - 1:], letter)) + 1
        assert span <= 2 * (n + 2 * ell - 2) // (ell + 1) <= bound_factor_length(n, ell), n
        _, window, _ = _image_window(m, n)
        assert factor_set(image, n) <= factor_set(window, n), n


@pytest.mark.parametrize("m, length", [(F1, 7), (F2, 7), (F3, 7), (F4, 21)],
                         ids=["f1", "f2", "f3", "f4"])
def test_reversal_bound_is_the_least_length_without_a_reversible_factor(m, length):
    assert _reversal_bound(m, length) == (None, 56)
    shorter, _ = _reversal_bound(m, length - 1)
    _, window, _ = _image_window(m, length - 1)
    assert len(shorter) == length - 1 and shorter[::-1] in window
    assert shorter == min(reversible_factors(window, length - 1))


def test_both_orientation_caps_are_read_off_the_reversal_length():
    # (reversible length, |X| cap, |Y| cap): a variable used both ways is capped
    # at L - 1; w4's y and w3-contexts-repaired's x occur one way only
    expected = {"w1": (7, 6, 6), "w2": (7, 6, 6), "w3-contexts-repaired": (7, 8, 6),
                "w4": (21, 20, 5)}
    for cid, caps in expected.items():
        [report] = run_checks(only=cid)
        assert report.passed, (cid, report.counterexample)
        params = report.parameters
        assert (params["reversible_length"], params["max_x"], params["max_y"]) == caps, cid


def test_registry_covers_the_finite_searches():
    expected = {
        "square-limited", "g-avoidance", "square-limited-xyxyX",
        "w1", "w2", "w3", "w3-contexts-repaired", "w4",
        "pigeonhole", "alternating", "classifier-oracle", "classical-seeds",
        "tm-prefix-covering",
    }
    assert set(CHECKS) == expected


def test_run_checks_validation(monkeypatch):
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(only="nope")
    with pytest.raises(ValueError, match="does not accept"):
        run_checks(only="pigeonhole", params={"bogus": 1})
    # the row of w1 and w2 is part of the check, not a parameter of it
    with pytest.raises(ValueError, match="no check accepts parameter 'morphism'"):
        run_checks(params={"morphism": "f2"})
    for key in ("morphism", "check_id"):
        with pytest.raises(ValueError, match=f"does not accept parameter '{key}'"):
            run_checks(only="w1", params={key: "w2"})
    # across the registry too, a parameter no check accepts is an error
    monkeypatch.setattr(verify, "CHECKS", {"pigeonhole": CHECKS["pigeonhole"]})
    with pytest.raises(ValueError, match="'kk'"):
        run_checks(params={"kk": 3})
    with pytest.raises(ValueError, match="'lookahead'"):
        run_checks(params={"lookahead": 50})
    [report] = run_checks(params={"k": 3})
    assert report.parameters["k"] == 3
    # a string value takes the type of the parameter it sets
    [report] = run_checks(params={"k": "3"})
    assert report.parameters["k"] == 3
    with pytest.raises(ValueError, match="'k'.*'two'"):
        run_checks(params={"k": "two"})


@pytest.mark.parametrize("check_id, key, value, minimum", [
    ("tm-prefix-covering", "max_exp", "-1", 0),
    ("classifier-oracle", "max_len", "0", 1),
    ("alternating", "max_len", "1", 2),  # range(2, 2): no pattern checked
])
def test_run_checks_rejects_a_parameter_below_its_bound(check_id, key, value, minimum):
    with pytest.raises(ValueError, match=f"'{key}' >= {minimum}, got {value}"):
        run_checks(only=check_id, params={key: value})


def test_a_report_that_searched_nothing_cannot_pass(monkeypatch):
    def hollow(n: int = 0):
        return verify.VerificationReport("hollow", "nothing", {"n": n}, True,
                                         searched_bound={"words_checked": n, "note": "x"})

    monkeypatch.setattr(verify, "CHECKS", {"hollow": (hollow, {"n": (0, inf)})})
    with pytest.raises(RuntimeError, match="'hollow' passed having searched nothing"):
        run_checks()
    [report] = run_checks(params={"n": 1})
    assert report.passed


@pytest.mark.parametrize("params, message", [
    ({"k": 4}, "'k' <= 3, got 4"),
    ({"max_len": 6}, "'max_len' <= 5, got 6"),
    ({"max_exp": 13}, "'max_exp' <= 12, got 13"),
    ({"big_len": 100}, "no check accepts parameter 'big_len'"),
    ({"completion_factor_bound": 64}, "no check accepts parameter 'completion_factor_bound'"),
    # the square-limited check reads its one word, never a given one
    ({"word": "0011"}, "no check accepts parameter 'word'"),
    # an integer parameter takes an int that is not a bool, or a string int() reads
    ({"witness_len": 20.5}, "'witness_len' expects an integer, got 20.5"),
    ({"k": True}, "'k' expects an integer, got True"),
    ({"max_len": 3.0}, "'max_len' expects an integer, got 3.0"),
    # int() reads ARABIC-INDIC DIGIT THREE as 3, but a parameter, like a word, is ASCII
    ({"k": "\u0663"}, "'k' expects an integer, got '\u0663'"),
    # a key several checks accept would set them all
    ({"max_len": 5}, r"'max_len' is accepted by several selected checks \(alternating, "
                     r"classifier-oracle\)"),
    ({"n": 400}, r"'n' is accepted by several selected checks \(square-limited, g-avoidance, "
                 r"square-limited-xyxyX\)"),
], ids=["k=4", "max_len=6", "max_exp=13", "big_len=100", "completion_factor_bound=64",
        "word=0011", "witness_len=20.5", "k=True", "max_len=3.0", "k=arabic-indic-three",
        "max_len=5", "n=400"])
def test_run_checks_rejects_a_bad_value_before_any_check_runs(params, message, monkeypatch):
    called = []

    def spy(cid, fn):
        def check(**kwargs):  # run_checks reads the accepted keys from the ranges
            called.append(cid)
            return fn(**kwargs)
        return check

    monkeypatch.setattr(verify, "CHECKS", {cid: (spy(cid, fn), ranges)
                                           for cid, (fn, ranges) in CHECKS.items()})
    with pytest.raises(ValueError, match=message):
        run_checks(params=params)
    assert called == []


def test_every_integer_parameter_has_a_lower_bound():
    for cid, entry in CHECKS.items():
        assert type(entry) is tuple and len(entry) == 2, cid  # (check, ranges)
        fn, ranges = entry
        # run_checks range-checks only the values it is given, so the defaults' are here
        params = inspect.signature(fn).parameters
        assert set(ranges) == set(params), cid
        for key, (minimum, maximum) in ranges.items():
            assert type(minimum) is int, (cid, key)
            assert params[key].default >= minimum, (cid, key)
            assert params[key].default <= maximum, (cid, key)


def test_every_report_in_verify_is_built_by_verdict():
    def report_calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "VerificationReport"]

    tree = ast.parse(Path(verify.__file__).read_text())
    [verdict] = [fn for fn in tree.body if getattr(fn, "name", None) == "_verdict"]
    assert report_calls(tree) == report_calls(verdict) != []


def test_tm_prefix_covering_derives_its_host_from_max_exp():
    for max_exp, host in ((0, 28), (6, 1792), (7, 3584)):
        report = run_checks(only="tm-prefix-covering", params={"max_exp": max_exp})[0]
        assert report.passed, report.counterexample
        assert report.parameters == {"max_exp": max_exp, "big_len": host}
        assert report.searched_bound == {"host_prefix": host}


def test_reports_are_deterministic_and_json_clean():
    first = vf_pigeonhole(2).as_dict()
    second = vf_pigeonhole(2).as_dict()
    assert list(first) == ["check_id", "claim", "parameters", "passed",
                           "counterexample", "searched_bound", "elapsed"]
    assert first == second
    assert first["elapsed"] == 0.0  # only run_checks times a check
    json.dumps(second)


def test_run_checks_times_every_report(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", {cid: CHECKS[cid] for cid in
                                           ("pigeonhole", "alternating", "w2")})
    reports = run_checks(params={"max_len": 3})
    assert [r.check_id for r in reports] == ["pigeonhole", "alternating", "w2"]
    for report in reports:
        assert report.elapsed > 0
        assert report.elapsed == round(report.elapsed, 6)


def test_bounded_hit_replays_in_the_word():
    rng = random.Random(3)
    words = ["".join(rng.choice(letters) for _ in range(40)) for letters in ("01", "012")]
    hits = 0
    for w in words:
        for p in ("xyxY", "xyXY", "xyxyX", "xyxYX", "xyXYx", "xyxYx", "xyXyx", "yyX"):
            hit = _bounded_hit(w, p, 3, 3)
            if hit is not None:
                hits += 1
                assert set(hit) == {"pattern", "start", "x", "y"} and hit["pattern"] == p
                image = apply_morphism(p, hit["x"], hit["y"])
                assert w[hit["start"]:hit["start"] + len(image)] == image
    assert hits > 0
    assert _bounded_hit(thue_morse_prefix(64), "xxx", 5, 5) is None


def test_square_limited_check_passes_and_negative_controls(monkeypatch):
    report = vf_square_limited(300)
    assert report.passed
    assert report.parameters == {"n": 300, "lookahead": 100, "injected": False}
    words = {"00110011": {"square": "00110011"}, "0101": {"missing_squares": ["00", "11"]},
             # 1010 is a square outside {00, 11, 0101}, so the inventory reports it
             "001010": {"square": "1010"}}
    for word, counterexample in words.items():
        monkeypatch.setattr(verify, "square_limited_prefix", lambda n: word)
        report = vf_square_limited(300)
        assert not report.passed and report.counterexample == counterexample


def test_mod3_and_w2_negative_controls():
    assert mod3_step_violation("0012") is None
    # the leftmost step wins, whichever of 10, 21 and 02 it is
    assert mod3_step_violation("021") == "02"
    assert mod3_step_violation("0210") == "02"
    assert mod3_step_violation("1210") == "21"
    # a hand-built instance of xyXYx is found by the matcher
    from revpat.matcher import apply_morphism
    w = apply_morphism("xyXYx", x="01", y="0")
    assert w == "01010001"
    assert find_instance(w, "xyXYx") is not None


def test_square_limited_xyxyX_negative_control():
    assert find_instance("01010", "xyxyX") is not None


def test_quick_checks_pass():
    for cid, params in [
        ("g-avoidance", {"n": 100}),
        ("square-limited-xyxyX", {"n": 100}),
        ("w1", {}),
        ("w2", {}),
        ("w4", {}),
        ("pigeonhole", {"k": 1}),
        ("pigeonhole", {"k": 2}),
        ("alternating", {"max_len": 3}),
        ("tm-prefix-covering", {}),
    ]:
        report = run_checks(only=cid, params=params)[0]
        assert report.passed, (cid, report.counterexample)


def test_alternating_criterion_holds_at_length_five():
    # the registry default, 4, never brute-forces the five length-5 alternating seeds
    report = vf_alternating_theorem(max_len=5)
    assert report.passed, report.counterexample
    assert report.searched_bound["patterns_checked"] == 1360
    assert {p for p in engine.SEED_PARTITION["alternating"] if len(p) == 5} == {
        "xxyxY", "xxyXy", "xxyXY", "xxyyX", "xyXXy"}


def test_w2_image_length_anchor():
    tau = thue_morse_prefix(112)
    assert tau.count("1") == 56
    assert len(apply_binary_morphism(F2, tau)) == 504


def test_tm_112_prefix_is_the_fourth_image_of_t7():
    w = "0110100"
    from revpat.sequences import H
    for _ in range(4):
        w = apply_binary_morphism(H, w)
    assert w == thue_morse_prefix(112)
    assert len(apply_binary_morphism(F4, w)) == 616


def test_internal_factors_of_the_w4_block():
    assert internal_factors("1000010011", 6) == {
        "000010", "000100", "001001", "0000100", "0001001", "00001001"
    }


def test_w3_pins_the_degenerate_context_clause():
    report = vf_w3()
    assert not report.passed
    clauses = report.searched_bound["clause_results"]
    assert clauses == {"reversible": True, "contexts": False,
                       "instances": True, "length-9": True, "completions": True}
    violations = report.counterexample["details"]["contexts"]
    # exactly the palindromic table entries degenerate
    assert set(violations) == {y for y in UPSILON - {"0", "1", "00"} if y == y[::-1]}
    # the recorded factors replay: both context sets are genuinely inhabited
    w = apply_binary_morphism(
        __import__("revpat.sequences", fromlist=["F3"]).F3, thue_morse_prefix(112))
    sets = violations["000"]
    for chi in sets["left"]:
        assert chi + "000" in w
    for chi in sets["right"]:
        assert "000" + chi in w


def test_completion_factor_bound_carries_no_weight(monkeypatch):
    # w3 reports the bound it searches left completions with, though it is no parameter
    assert vf_w3(completion_len=4).parameters == {"completion_len": 4,
                                                  "completion_factor_bound": 64}
    # every factor of the covering window of w3's completion clause has the
    # left completions that a linear scan of the whole table at the bound finds
    images = tm_factor_images(F3, COMPLETION_FACTOR_BOUND)
    suffix_lengths = {v: next((n for n in range(len(v) - 1, 0, -1) if v[-n:] in images), 0)
                      for v in images}
    # no u below is longer than 24 letters, so only these entries can complete one
    scanned = {v: suffix_len for v, suffix_len in suffix_lengths.items() if suffix_len < 24}
    _, w, _ = _image_window(F3, 24)
    us = [u for length in range(1, 25) for u in sorted(factor_set(w, length))]
    assert len(us) == 761
    for u in us:
        expected = sorted((v for v, suffix_len in scanned.items()
                           if suffix_len < len(u) and v.endswith(u)), key=lambda v: (len(v), v))
        assert left_completions(u, F3) == expected, u
    # so w3 builds one completion table, over factors no longer than completion_len
    completion_table = sequences._completion_table
    built: list[int] = []

    def spy(m, bound):
        built.append(bound)
        return completion_table(m, bound)

    monkeypatch.setattr(sequences, "_completion_tables", {})
    monkeypatch.setattr(sequences, "_completion_table", spy)
    report = vf_w3()
    assert report.searched_bound["clause_results"]["completions"]
    assert built == [min(COMPLETION_FACTOR_BOUND, report.parameters["completion_len"])]


def _flipped_at(position, prefix_len):
    """thue_morse_prefix with letter ``position`` of the length-prefix_len host flipped."""
    def prefix(n):
        t = thue_morse_prefix(n)
        return t[:position] + "10"[int(t[position])] + t[position + 1:] if n == prefix_len else t
    return prefix


def test_tm_desubstitution_negative_control(monkeypatch):
    monkeypatch.setattr(verify, "thue_morse_prefix", _flipped_at(300, 512))
    assert verify._fixed_point_break(512) == 300


def _desubstitution_by_enumeration(host):
    """What the fixed-point clause settles on its host, with every odd length's
    factors enumerated: the first counterexample, or None."""
    for length in range(1, len(host) + 1, 2):
        image = apply_binary_morphism(H, thue_morse_prefix(covering_prefix_length((length + 1) // 2)))
        if stray := {u for u in factor_set(host, length) if u not in image}:
            return {"length": length, "factor": sorted(stray)[0]}
    return None


@pytest.mark.parametrize("prefix_len, flipped", [
    (1, None), (7, None), (64, None), (512, None), (512, 300), (512, 450), (512, 511)])
def test_tm_desubstitution_matches_full_enumeration(prefix_len, flipped, monkeypatch):
    if flipped is not None:
        monkeypatch.setattr(verify, "thue_morse_prefix", _flipped_at(flipped, prefix_len))
    expected = _desubstitution_by_enumeration(verify.thue_morse_prefix(prefix_len))
    assert (expected is None) is (flipped is None)  # every flipped host fails
    # the clause breaks exactly where the host leaves the fixed point
    assert verify._fixed_point_break(prefix_len) == flipped


def test_tm_desubstitution_fails_a_complement_host(monkeypatch):
    # t is closed under complement, so every factor of the complemented host is
    # a Thue-Morse factor and enumerating its factors finds nothing wrong; the
    # host still is not t, and the fixed-point clause says so at its first letter
    def complemented(n):
        t = thue_morse_prefix(n)
        return t.translate(str.maketrans("01", "10")) if n == 512 else t

    assert _desubstitution_by_enumeration(complemented(512)) is None
    monkeypatch.setattr(verify, "thue_morse_prefix", complemented)
    assert verify._fixed_point_break(512) == 0


def test_fixed_point_break_reads_a_short_image_as_a_break(monkeypatch):
    assert [verify._fixed_point_break(n) for n in (1, 2, 7, 1792)] == [None] * 4
    # a zip over host and image alone would stop at the shorter and see no break
    monkeypatch.setattr(verify, "apply_binary_morphism",
                        lambda m, w: apply_binary_morphism(m, w)[:-1])
    assert [verify._fixed_point_break(n) for n in (2, 8, 512)] == [1, 7, 511]


def test_sampled_caps_keep_their_defaults():
    # neither cap is derived yet, and a smaller one still passes: only these
    # parameters say which |X| and |Y| the bounded searches reached
    expected = {"n": 400, "lookahead": 100, "max_x": 15, "max_y": 15}
    assert verify.vf_g_avoidance().parameters == expected
    assert verify.vf_square_limited_xyxyX().parameters == expected


def test_w3_repaired_contexts_pass():
    assert vf_morphic("w3-contexts-repaired").passed


def test_classical_seeds_check():
    report = run_checks(only="classical-seeds",
                        params={"witness_len": 120, "matcher_prefix": 250,
                                "overlap_prefix": 800})[0]
    assert report.passed, report.counterexample


# total prover nodes of the oracle sweep at max_len=4, avoider_len=80; node
# counts do not depend on the machine
ORACLE_NODES_4_80 = 1797


def test_classifier_oracle_witnesses_come_from_factors():
    report = vf_classifier_oracle(max_len=4, avoider_len=80)
    assert report.passed, report.counterexample
    bound = report.searched_bound
    assert (bound["patterns_checked"], bound["classes_searched"]) == (340, 35)
    assert bound["prove_nodes"] == ORACLE_NODES_4_80
    sources = bound["witness_factors"]
    for c, q in sources.items():
        assert q in {canonical(u) for u in factors(c)}, (c, q)
    # the ternary trap: xxyx takes its witness from the square-free words
    assert sources["xxyx"] == "xx"
    # an unavoidable class has no witness; a seed supplies its own
    assert "xyx" not in sources and sources["xX"] == "xX"


def test_classifier_oracle_covers_length_five():
    report = vf_classifier_oracle(max_len=5, avoider_len=80)
    assert report.passed, report.counterexample
    bound = report.searched_bound
    assert (bound["patterns_checked"], bound["classes_searched"]) == (1364, 111)


def test_classifier_oracle_never_takes_an_inconclusive_search(monkeypatch):
    monkeypatch.setattr(verify, "prove_k_unavoidable",
                        lambda p, k, depth: engine.prove_k_unavoidable(p, k, depth, 3))
    report = vf_classifier_oracle(max_len=2, avoider_len=40)
    assert not report.passed
    assert len(report.counterexample["witness"]) < 40


# --- every failing clause of every check ------------------------------------------
#
# Each row makes one clause of one check fail by replacing a name that the clause
# reads in ``verify``, and pins the counterexample the check then reports.


def _hit_only(pattern):
    """A bounded instance search that finds only the given pattern."""
    return lambda w, p, max_x, max_y: {"pattern": p, "start": 0} if p == pattern else None


def _with_factor(length, word):
    """factor_set with one extra factor of the given length."""
    return lambda w, n: factor_set(w, n) | ({word} if n == length else set())


def _offsets_moved(shift):
    """_image_window with block offset i moved right by shift(tau, i) letters."""
    def window(m, factor_len):
        tau, w, at = _image_window(m, factor_len)
        return tau, w, [a + shift(tau, i) for i, a in enumerate(at)]
    return window


_NO_CONTEXTS = {"_context_sets": lambda w, y: (set(), set())}
_W3 = {"completion_len": 4}
_SEEDS = {"witness_len": 40, "matcher_prefix": 100, "overlap_prefix": 200}

FAILING_CLAUSES = [
    ("square-limited", {}, {"collect_squares": lambda w: ALLOWED_SQUARES | {"000000"}},
     {"square": "000000"}, "stray"),
    ("square-limited", {}, {"collect_squares": lambda w: {"00"}},
     {"missing_squares": ["0101", "11"]}, "missing"),
    ("g-avoidance", {"n": 100}, {"_bounded_hit": _hit_only("xyxY")},
     {"pattern": "xyxY", "start": 0}, "xyxY"),
    ("g-avoidance", {"n": 100}, {"_bounded_hit": _hit_only("xyXY")},
     {"pattern": "xyXY", "start": 0}, "xyXY"),
    ("g-avoidance", {"n": 100}, {"mod3_step_violation": lambda g: "21"},
     {"mod3_factor": "21"}, "mod3"),
    ("g-avoidance", {"n": 100}, {"FORBIDDEN_G_FACTORS": ("220122201", "0")},
     {"forbidden_factor": "0"}, "forbidden"),
    ("square-limited-xyxyX", {"n": 100}, {"_bounded_hit": _hit_only("xyxyX")},
     {"pattern": "xyxyX", "start": 0}, "instances"),
    ("square-limited-xyxyX", {"n": 100}, {"square_limited_prefix": lambda n: "1010"},
     {"factor": "1010"}, "1010"),
    ("w1", {}, {"bound_factor_length": lambda u, m: 7},
     {"clause": "derived", "lengths": [56, 56, 336]}, "derived"),
    ("w1", {}, {"reversible_factors": lambda w, n: {"1101101", "1011011"}},
     {"clause": "reversible", "factor": "1011011"}, "reversible"),
    ("w1", {}, {"_bounded_hit": _hit_only("xyxYX")},
     {"clause": "instances", "pattern": "xyxYX", "start": 0}, "instances"),
    ("w2", {}, {"bound_factor_length": lambda u, m: 2},
     {"clause": "derived", "lengths": [7, 7, 28]}, "derived"),
    ("w2", {}, {"tm_image": lambda m, n: (thue_morse_prefix(n), "0" * 503, [])},
     {"clause": "derived", "lengths": [56, 112, 503]}, "image-length"),
    # a morphism with the lengths of f2 whose image holds 1000000 and 0000001
    ("w2", {}, {"MORPHIC": {"w2": verify.MORPHIC["w2"]._replace(morphism=("0", "10000001"))}},
     {"clause": "reversible", "factor": "0000001"}, "reversible"),
    ("w2", {}, {"_bounded_hit": _hit_only("xyXYx")},
     {"clause": "instances", "pattern": "xyXYx", "start": 0}, "instances"),
    ("w3", _W3, {**_NO_CONTEXTS, "UPSILON": UPSILON - {"100001"}},
     {"clauses": ["reversible"], "details": {"reversible": ["100001"]}}, "reversible"),
    ("w3", _W3, {"_context_sets":
                 lambda w, y: ({"000"}, {"111"}) if y == "0110" else (set(), set())},
     {"clauses": ["contexts"],
      "details": {"contexts": {"0110": {"left": ["000"], "right": ["111"]}}}}, "contexts"),
    ("w3", _W3, {**_NO_CONTEXTS, "_bounded_hit": _hit_only("xyxYx")},
     {"clauses": ["instances"], "details": {"instances": {"pattern": "xyxYx", "start": 0}}},
     "instances"),
    ("w3", _W3, {**_NO_CONTEXTS, "factor_set": _with_factor(9, "000000000")},
     {"clauses": ["length-9"], "details": {"length-9": ["000000000"]}}, "length-9"),
    ("w3", _W3, {**_NO_CONTEXTS, "left_completions":
                 lambda u, m: [] if u == "011" else left_completions(u, m)},
     {"clauses": ["completions"], "details": {"completions": {"011": []}}}, "completions"),
    ("w3-contexts-repaired", {}, {"bound_factor_length": lambda u, m: 2},
     {"clause": "derived", "lengths": [7, 7, 22]}, "derived"),
    ("w3-contexts-repaired", {}, {"reversible_factors": lambda w, n: {"1101101", "1011011"}},
     {"clause": "reversible", "factor": "1011011"}, "reversible"),
    ("w3-contexts-repaired", {}, {"_context_sets": lambda w, y: ({"000"}, {"001"})},
     {"clause": "contexts", "y": "01", "left": ["000"], "right": ["001"]}, "contexts"),
    ("w3-contexts-repaired", {}, {"_bounded_hit": _hit_only("xyxYx")},
     {"clause": "instances", "pattern": "xyxYx", "start": 0}, "instances"),
    ("w4", {}, {"bound_factor_length": lambda u, m: 2},
     {"clause": "derived", "lengths": [7, 7, 34]}, "derived"),
    ("w4", {}, {"reversible_factors": lambda w, n: {"1" * 21}},
     {"clause": "reversible", "factor": "1" * 21}, "reversible"),
    ("w4", {}, {"_bounded_hit": _hit_only("xyXyx")},
     {"clause": "instances", "pattern": "xyXyx", "start": 0}, "instances"),
    # every block one letter late: no 011 ends a block of 1
    ("w4", {}, {"_image_window": _offsets_moved(lambda tau, i: 1)},
     {"clause": "alignment", "position": 8}, "alignment"),
    ("w4", {}, {"internal_factors": lambda w, n: set()},
     {"clause": "internal", "got": []}, "internal"),
    # a block of 1 after a block of 0 starts two letters late, and no block's end moves
    ("w4", {}, {"_image_window": _offsets_moved(
        lambda tau, i: 2 if tau[i - 1:i + 1] == "01" else 0)},
     {"clause": "internal-placement", "factor": "000010", "position": 2}, "internal-placement"),
    ("w4", {}, {"tm_factor_images": lambda m, n: frozenset()},
     {"clause": "bispecial", "factor": "01000010011"}, "bispecial"),
    ("pigeonhole", {"k": 1}, {"find_instance": lambda w, p: None if p == "xyX" else (w, p)},
     {"word": "000", "pattern": "xyX"}, "xyX"),
    ("alternating", {"max_len": 2}, {"instance_in_alternating": lambda p: None},
     {"pattern": "xx", "bipartite": True, "brute_force": True, "construction": False},
     "construction"),
    ("classifier-oracle", {"max_len": 2, "avoider_len": 40}, {"avoids": lambda w, p: False},
     {"pattern": "xx", "alphabet": 3, "searched": "xx",
      "witness": "0102012021012010201202102010210120102012"}, "refuted-witness"),
    ("classifier-oracle", {"max_len": 2, "avoider_len": 12, "unavoidable_depth": 1}, {},
     {"pattern": "xy", "ternary_longest": 1}, "ternary-longest"),
    ("classifier-oracle", {"max_len": 1, "avoider_len": 12},
     {"classify": lambda p: Avoidability.TWO},
     {"pattern": "x", "classifier": 2, "search": "infinity"}, "classifier"),
    ("classical-seeds", _SEEDS, {"prove_k_unavoidable": lambda p, k, depth:
                                 BacktrackReport(p, k, depth, True, 3, 3, "010")},
     {"pattern": "xxx", "terminated": True}, "witness"),
    ("classical-seeds", _SEEDS, {"contains_overlap": lambda w: "000"},
     {"overlap": "000"}, "overlap"),
    ("classical-seeds", _SEEDS, {"thue_morse_prefix": lambda n: "0" * n if n == 100
                                 else thue_morse_prefix(n)},
     {"pattern": "xxx", "matcher_prefix": 100}, "matcher"),
    ("classical-seeds", _SEEDS, {"square_limited_prefix": lambda n: "1010"},
     {"square_limited": {"factor": "1010"}}, "square-limited"),
    # a covering rule one letter block short misses 00, which first ends at letter 7
    ("tm-prefix-covering", {}, {"covering_prefix_length":
                                lambda factor_len: covering_prefix_length(factor_len) // 7 * 6},
     {"exp": 0, "factor": "00"}, "covering"),
    # covering lengths 14, 21, ...: the base holds, the first step does not double
    ("tm-prefix-covering", {}, {"covering_prefix_length":
                                lambda factor_len: covering_prefix_length(factor_len) + 7},
     {"exp": 1, "covering": [14, 21]}, "step"),
    ("tm-prefix-covering", {}, {"thue_morse_prefix": _flipped_at(1000, 1792)},
     {"position": 1000}, "identity"),
    # an empty image is shorter than the host: the fixed point breaks at once
    ("tm-prefix-covering", {}, {"apply_binary_morphism": lambda m, w: ""},
     {"position": 0}, "image"),
]


_ROWS = {f"{row[0]}:{row[4]}": row[:4] for row in FAILING_CLAUSES}


def _run_failing(monkeypatch, check_id, params, patches):
    for name, value in patches.items():
        monkeypatch.setattr(verify, name, value)
    [report] = run_checks(only=check_id, params=params)
    return report


@pytest.mark.parametrize("check_id, params, patches, expected",
                         [pytest.param(*row, id=row_id) for row_id, row in _ROWS.items()])
def test_a_failing_clause_fails_its_check(check_id, params, patches, expected, monkeypatch):
    report = _run_failing(monkeypatch, check_id, params, patches)
    assert report.passed is False
    assert report.counterexample == expected


def test_every_check_has_a_failing_clause_under_test():
    assert {row[0] for row in FAILING_CLAUSES} == set(CHECKS)
    assert len(_ROWS) == len(FAILING_CLAUSES)  # no two rows share an id


# A failing report's searched_bound holds the counts reached at its failing clause.
FAILING_COUNTS = {
    "pigeonhole:xyX": {"words_checked": 1},
    "alternating:construction": {"patterns_checked": 1, "image_bounds": [2, 2]},
    "classifier-oracle:refuted-witness": {"patterns_checked": 5, "classes_searched": 2,
                                          "prove_nodes": 91, "witness_factors": {"xx": "xx"}},
    "tm-prefix-covering:image": {"host_prefix": 1792},
}


@pytest.mark.parametrize("row_id", FAILING_COUNTS)
def test_a_failing_report_counts_what_it_searched_up_to_its_failure(row_id, monkeypatch):
    check_id, params, patches, _ = _ROWS[row_id]
    report = _run_failing(monkeypatch, check_id, params, patches)
    assert report.searched_bound == FAILING_COUNTS[row_id]


def test_every_yield_in_verify_is_reached_by_a_failing_clause(monkeypatch):
    tree = ast.parse(Path(verify.__file__).read_text())
    yields = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Yield)}
    reached = set()

    def line(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return line

    def call(frame, event, arg):  # trace the lines of verify.py frames only
        return line if frame.f_code.co_filename == verify.__file__ else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for row in _ROWS.values():
            with monkeypatch.context() as patched:
                _run_failing(patched, *row[:3])
    finally:
        sys.settrace(previous)
    assert yields and sorted(yields - reached) == []
