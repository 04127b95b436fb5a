"""Tests of the benchmark's own logic: shape labels, pin checks, self time,
and the rescaling to the reference speed.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from revpat import (THREE_AVOIDABLE_SEEDS, TWO_AVOIDABLE_SEEDS, BacktrackReport,  # noqa: E402
                    VerificationReport, canonical, engine, equivalence_class)

# engine._compile_end_checker returns (per_node, check, needs_reversed); the
# factory that built ``check`` and the per-node flag name the branch taken
_BRANCH = {
    (False, "_pure_end_check"): "x_only",
    (True, "_pure_end_check"): "x_block_then_y",
    (False, "_gap_then_block_check"): "y_then_x_block",
    (False, "_block_gap_block_check"): "x_block_y_x_block",
    (False, "_general_end_check"): "two_y",
}


def _compiled_shape(p: str) -> str:
    per_node, check, _ = engine._compile_end_checker(p)
    return _BRANCH[per_node, check.__qualname__.split(".")[0]]


def _shape_cases() -> list[str]:
    short = {"".join(t) for n in range(1, 6) for t in product("xXyY", repeat=n)}
    classes = {canonical(p) for p in short if len(p) <= 4}
    assert len(classes) == 35
    orbits = set().union(*(equivalence_class(s)
                           for s in TWO_AVOIDABLE_SEEDS | THREE_AVOIDABLE_SEEDS))
    return sorted(short | classes | orbits)


def test_shape_label_matches_compiled_end_checker():
    cases = _shape_cases()
    wrong = [(p, spans.prover_shape(p), _compiled_shape(p)) for p in cases
             if spans.prover_shape(p) != _compiled_shape(p)]
    assert not wrong
    assert {spans.prover_shape(p) for p in cases} == set(spans.SHAPES)


def _registry_report(check_id: str) -> VerificationReport:
    payload = workloads.load_pins("registry")["outputs"][check_id]
    return VerificationReport(**payload, elapsed=0.25)


def test_pin_check_accepts_pinned_reports_and_extra_fields():
    pins = workloads.load_pins("registry")["outputs"]
    for check_id in pins:
        assert workloads.check_report(pins[check_id], _registry_report(check_id)) is None
    grown = _registry_report("w4")
    grown.searched_bound = dict(grown.searched_bound, clause_seconds={"reversible": 0.1})
    assert workloads.check_report(pins["w4"], grown) is None


def test_pin_check_flags_a_wrong_verdict():
    pins = workloads.load_pins("registry")["outputs"]
    assert pins["w3"]["passed"] is False
    assert pins["w3"]["counterexample"]["clauses"] == ["contexts"]
    for check_id in ("w3", "w4"):
        report = _registry_report(check_id)
        report.passed = not report.passed
        assert "passed" in workloads.check_report(pins[check_id], report)
    oracle = workloads.load_pins("oracle")["outputs"]["classifier-oracle"]
    report = VerificationReport("classifier-oracle", "claim", {}, False,
                                searched_bound={"patterns_checked": 340,
                                                "classes_searched": 35})
    assert "passed" in workloads.check_report(oracle, report)
    report.passed = True
    assert workloads.check_report(oracle, report) is None
    report.searched_bound["classes_searched"] = 34
    assert "classes_searched" in workloads.check_report(oracle, report)


def test_pin_check_flags_a_wrong_witness():
    pins = workloads.load_pins("search")["outputs"]
    pin = pins["xX"]
    good = BacktrackReport("xX", 2, 200, False, pin["nodes"], 200, pin["witness"])
    assert workloads.check_search(pin, "xX", good, True) is None
    flipped = pin["witness"][:-1] + ("1" if pin["witness"][-1] == "0" else "0")
    wrong = replace(good, longest_word=flipped)
    assert "witness" in workloads.check_search(pin, "xX", wrong, True)
    assert "matcher" in workloads.check_search(pin, "xX", good, False)
    exhausted = replace(good, terminated=True, longest_word_length=3)
    assert "exhausted" in workloads.check_search(pin, "xX", exhausted, True)


def test_search_pins_cover_every_draw():
    pins = workloads.load_pins("search")["outputs"]
    assert sum(pins[p]["nodes"] for p in workloads.search_patterns(0)) == 21529
    for seed in (0, 1, 2, 3, 12345, -7):
        drawn = workloads.search_patterns(seed)
        assert len(drawn) == 17 and all(p in pins for p in drawn)
        assert {canonical(p) for p in drawn} == TWO_AVOIDABLE_SEEDS


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.5, 1],
        ["b", 5.0, 6.0, 0],
        ["c", 5.5, 7.0, 0],      # overlaps b: the union 5..7 counts once
        ["d", 9.5, 11.0, 0],     # runs past the parent: clipped at 10
        ["leaf", 6.0, 6.0, 3],   # zero length
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 2 - 0.5, 1.5, 1.5, 1.0, 1.5, 1.5, 0.0])


def test_layer_metrics_count_outermost_calls_and_nodes():
    tree = [
        ["verify.alternating", 0.0, 10.0, -1],
        ["engine.graph", 1.0, 4.0, 0],
        ["engine.graph", 1.5, 2.0, 1],          # the layer calling itself
        ["engine.prove.two_y", 4.0, 6.0, 0],
        ["engine.prove.x_only", 6.0, 9.0, 0],
        ["matcher.two_var", 9.0, 9.5, 0],
        ["sequences.square_limited", 9.5, 10.0, 0],
    ]
    attrs = {3: {"nodes": 10, "terminated": False}, 4: {"nodes": 30, "terminated": True},
             5: {"letters": 200, "hit": False}, 6: {"letters": 2100}}
    m = spans.layer_metrics(tree, attrs)
    assert m["engine.graph.calls"] == 1 and m["engine.graph.busy_s"] == pytest.approx(3.0)
    assert m["engine.prove.calls"] == 2 and m["engine.prove.nodes"] == 40
    assert m["engine.prove.busy_s"] == pytest.approx(5.0)
    assert m["engine.prove.nodes_per_s"] == pytest.approx(8.0)
    assert (m["engine.prove.certificates"], m["engine.prove.witnesses"]) == (1, 1)
    assert (m["engine.prove.max_call_nodes"], m["engine.prove.max_call_s"]) == (30, 3.0)
    assert m["engine.prove.two_y.nodes"] == 10 and m["engine.prove.x_only.busy_s"] == 3.0
    assert m["matcher.us_per_call"] == pytest.approx(5e5) and m["matcher.hit_ratio"] == 0.0
    assert m["sequences.square_limited.letters_per_s"] == pytest.approx(4200.0)


def test_reference_factor_removes_kernel_time_and_rescales():
    sampler = reference.Sampler()
    assert sampler.factor(2.0) == 1.0
    sampler.samples = [2 * reference.NOMINAL_S] * 10  # the machine ran at half speed
    raw = 1.0
    assert raw * sampler.factor(raw) == pytest.approx((raw - 20 * reference.NOMINAL_S) / 2)
    word = reference.kernel()
    assert len(word) == reference.WORD_LENGTH
    assert set(word) == set(b"012")
    assert not any(word[i:i + h] == word[i + h:i + 2 * h]
                   for h in range(1, len(word) // 2 + 1) for i in range(len(word) - 2 * h + 1))
