import inspect
import json
import random

import pytest

from revpat import engine, verify
from revpat.matcher import apply_morphism, find_instance
from revpat.patterns import canonical, factors
from revpat.sequences import F2, F4, apply_binary_morphism, thue_morse_prefix
from revpat.verify import (
    CHECKS,
    UPSILON,
    _bounded_hit,
    bound_factor_length,
    internal_factors,
    mod3_step_violation,
    run_checks,
    vf_classifier_oracle,
    vf_pigeonhole,
    vf_square_limited,
    vf_tm_desubstitution,
    vf_w3,
    vf_w3_contexts_repaired,
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
    with pytest.raises(ValueError):
        bound_factor_length(-1, 1)


def test_registry_covers_the_finite_searches():
    expected = {
        "square-limited", "g-avoidance", "square-limited-xyxyX",
        "w1", "w2", "w3", "w3-contexts-repaired", "w4",
        "pigeonhole", "alternating", "classifier-oracle", "classical-seeds",
        "image-locality-f1", "image-locality-f2", "image-locality-f3",
        "image-locality-f4", "tm-prefix-covering", "tm-desubstitution",
    }
    assert set(CHECKS) == expected


def test_run_checks_validation(monkeypatch):
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(only="nope")
    with pytest.raises(ValueError, match="does not accept"):
        run_checks(only="pigeonhole", params={"bogus": 1})
    # the morphism is part of an image-locality check, not a parameter of it
    with pytest.raises(ValueError, match="no check accepts parameter 'morphism'"):
        run_checks(params={"morphism": "f2"})
    with pytest.raises(ValueError, match="does not accept parameter 'morphism'"):
        run_checks(only="image-locality-f1", params={"morphism": "f3"})
    [report] = run_checks(only="image-locality-f3", params={"max_len": "5"})
    assert (report.check_id, report.parameters) == ("image-locality-f3",
                                                    {"morphism": "f3", "max_len": 5})
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
    ("tm-desubstitution", "prefix_len", "0", 1),
    ("tm-prefix-covering", "max_exp", "-1", 0),
    ("image-locality-f1", "max_len", "0", 1),
    ("alternating", "max_len", "1", 2),  # range(2, 2): no pattern checked
])
def test_run_checks_rejects_a_parameter_below_its_bound(check_id, key, value, minimum):
    with pytest.raises(ValueError, match=f"'{key}' >= {minimum}, got {value}"):
        run_checks(only=check_id, params={key: value})


def test_a_report_that_searched_nothing_cannot_pass(monkeypatch):
    def hollow(n: int = 0):
        return verify.VerificationReport("hollow", "nothing", {"n": n}, True,
                                         searched_bound={"words_checked": n, "note": "x"})

    monkeypatch.setattr(verify, "CHECKS", {"hollow": (hollow, {"n": 0})})
    with pytest.raises(RuntimeError, match="'hollow' passed having searched nothing"):
        run_checks()
    [report] = run_checks(params={"n": 1})
    assert report.passed


def test_every_integer_parameter_has_a_lower_bound():
    for cid, (fn, minima) in CHECKS.items():
        params = inspect.signature(fn).parameters
        assert set(minima) == {k for k, q in params.items() if isinstance(q.default, int)}, cid
        for key, minimum in minima.items():
            assert params[key].default >= minimum, (cid, key)


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


def test_square_limited_check_passes_and_negative_controls():
    assert vf_square_limited(300).passed
    injected = vf_square_limited(word="00110011")
    assert not injected.passed
    assert injected.counterexample == {"square": "00110011"}
    small = vf_square_limited(word="0101")
    assert not small.passed
    assert small.counterexample == {"missing_squares": ["00", "11"]}
    # 1010 is a square outside {00, 11, 0101}, so the inventory reports it
    assert vf_square_limited(word="001010").counterexample == {"square": "1010"}
    assert vf_square_limited(300).parameters["lookahead"] == 100


def test_mod3_and_w2_negative_controls():
    assert mod3_step_violation("0012") is None
    assert mod3_step_violation("021") == "21"
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
        ("image-locality-f1", {}),
        ("image-locality-f3", {}),
        ("image-locality-f4", {}),
        ("tm-prefix-covering", {}),
    ]:
        report = run_checks(only=cid, params=params)[0]
        assert report.passed, (cid, report.counterexample)


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


def test_tm_desubstitution_negative_control(monkeypatch):
    def corrupted(n):
        t = thue_morse_prefix(n)
        return t[:300] + "10"[int(t[300])] + t[301:] if n == 512 else t

    monkeypatch.setattr(verify, "thue_morse_prefix", corrupted)
    report = vf_tm_desubstitution()
    assert not report.passed
    assert set(report.counterexample) == {"length", "factor"}
    factor = report.counterexample["factor"]
    assert factor in corrupted(512) and factor not in thue_morse_prefix(4096)


def test_w3_repaired_contexts_pass():
    assert vf_w3_contexts_repaired().passed


def test_classical_seeds_check():
    report = run_checks(only="classical-seeds",
                        params={"witness_len": 120, "matcher_prefix": 250,
                                "overlap_prefix": 800})[0]
    assert report.passed, report.counterexample


# total prover nodes of the oracle sweep at max_len=4, avoider_len=80; node
# counts do not depend on the machine
ORACLE_NODES_4_80 = 2449


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


def test_classifier_oracle_fails_when_the_matcher_refutes_witnesses(monkeypatch):
    monkeypatch.setattr(verify, "avoids", lambda word, p: False)
    report = vf_classifier_oracle(max_len=2, avoider_len=40)
    assert not report.passed
    assert report.counterexample["searched"] == "xx"


def test_classifier_oracle_never_takes_an_inconclusive_search(monkeypatch):
    monkeypatch.setattr(verify, "prove_k_unavoidable",
                        lambda p, k, depth: engine.prove_k_unavoidable(p, k, depth, 3))
    report = vf_classifier_oracle(max_len=2, avoider_len=40)
    assert not report.passed
    assert len(report.counterexample["witness"]) < 40
