import json
import os
import signal
import subprocess
import sys

import pytest

from revpat import engine, verify
from revpat.cli import run
from revpat.engine import BacktrackReport


def _out(capsys):
    return capsys.readouterr().out.strip()


def test_classify(capsys):
    assert run(["classify", "xxx"]) == 0
    assert _out(capsys) == "2"
    assert run(["classify", "xyxY"]) == 0
    assert _out(capsys) == "3"
    assert run(["classify", "xyX"]) == 0
    assert _out(capsys) == "infinity"
    assert run(["--json", "classify", "xxx"]) == 0
    assert json.loads(_out(capsys)) == {"pattern": "xxx", "avoidability_index": 2}


def test_canon(capsys):
    assert run(["canon", "Xyy"]) == 0
    assert _out(capsys) == "xxy"


def test_class_lists_sorted_members(capsys):
    assert run(["class", "x"]) == 0
    assert _out(capsys).splitlines() == ["x", "X", "y", "Y"]
    assert run(["--json", "class", "x"]) == 0
    assert json.loads(_out(capsys))["members"] == ["x", "X", "y", "Y"]


def test_graph(capsys):
    assert run(["graph", "xX", "--check-bipartite"]) == 0
    out = _out(capsys)
    assert "X -- X" in out and "bipartite: no" in out
    assert run(["--json", "graph", "xy", "--check-bipartite"]) == 0
    payload = json.loads(_out(capsys))
    assert payload["bipartite"] is True
    assert payload["coloring"]["X"] != payload["coloring"]["y"]


def test_generate_has_no_lookahead_flag(capsys):
    assert run(["generate", "thue-morse", "--length", "8", "--lookahead", "5"]) == 2
    assert run(["--json", "generate", "square-limited", "--length", "12"]) == 0
    assert json.loads(_out(capsys)) == {"sequence": "square-limited", "length": 12,
                                        "lookahead": 100, "word": "000101100011"}
    # only the square-limited word and g, built from it, are generated with a lookahead
    assert run(["--json", "generate", "thue-morse", "--length", "8"]) == 0
    assert json.loads(_out(capsys)) == {"sequence": "thue-morse", "length": 8,
                                        "word": "01101001"}


def test_generate_reads_and_writes_no_files(tmp_path, capsys, monkeypatch):
    work, env_dir = tmp_path / "work", tmp_path / "env"
    work.mkdir()
    env_dir.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("REVPAT_CACHE", str(env_dir))
    assert run(["generate", "square-limited", "--length", "50"]) == 0
    assert _out(capsys) == "00010110001110010110001011100011001011000101110010"
    assert list(work.iterdir()) == [] and list(env_dir.iterdir()) == []
    # there is no cache directory to name
    assert run(["generate", "thue-morse", "--length", "8", "--cache", str(env_dir)]) == 2
    assert run(["--json", "generate", "thue-morse", "--length", "8",
                "--cache", str(env_dir)]) == 2
    assert json.loads(_out(capsys)) == {"error": "usage error"}


def test_generate_rejects_unknown_sequence(capsys):
    assert run(["--json", "generate", "bogus", "--length", "5"]) == 2
    assert "error" in json.loads(_out(capsys))


def test_search_witness_and_exhaustion(capsys):
    assert run(["search", "xX", "--alphabet", "2", "--target-length", "24"]) == 0
    assert _out(capsys).endswith("010101010101010101010101")
    assert run(["--json", "search", "xyx", "--alphabet", "2",
                "--target-length", "50"]) == 0
    payload = json.loads(_out(capsys))
    assert payload["outcome"] == "exhausted"
    assert payload["longest_word_length"] == 4
    assert "unavoidable" not in json.dumps(payload)
    # nodes closed by a stored dead suffix are reported in both forms
    assert run(["search", "xyxY", "--alphabet", "2", "--target-length", "30"]) == 0
    assert _out(capsys).startswith("exhausted at depth 13 (135 nodes, 23 settled by a dead suffix)")
    assert run(["--json", "search", "xyxY", "--alphabet", "2", "--target-length", "30"]) == 0
    payload = json.loads(_out(capsys))
    assert (payload["nodes_visited"], payload["settled"]) == (135, 23)


def test_search_with_a_spent_budget_is_inconclusive(capsys):
    argv = ["search", "xxyx", "--alphabet", "3", "--target-length", "200"]
    assert run(argv + ["--max-nodes", "1000"]) == 3
    assert _out(capsys).startswith("inconclusive: node budget of 1000 spent")
    assert run(["--json"] + argv + ["--max-nodes", "1000"]) == 3
    payload = json.loads(_out(capsys))
    assert payload["outcome"] == "inconclusive" and payload["inconclusive"] is True
    assert payload["terminated"] is False and payload["nodes_visited"] == 1000
    assert run(argv + ["--max-nodes", "0"]) == 2


def _cli_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "revpat", "classify", "xyxY"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "3")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_reader_that_stops_early_gets_no_traceback():
    # 300,000 letters overfill the pipe, so the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "revpat", "generate", "thue-morse",
                             "--length", "300000"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_cli_env())
    assert proc.stdout.read(5) == b"01101"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""


def test_verify_single_check(capsys):
    assert run(["verify", "--only", "pigeonhole"]) == 0
    assert _out(capsys).startswith("PASS pigeonhole")
    assert run(["--json", "verify", "--only", "pigeonhole", "--params", "k=1"]) == 0
    reports = json.loads(_out(capsys))
    assert reports[0]["parameters"]["k"] == 1 and reports[0]["passed"]


def test_verify_rejects_a_parameter_no_check_accepts(capsys, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", {"pigeonhole": verify.CHECKS["pigeonhole"]})
    assert run(["verify", "--params", "kk=3"]) == 2
    assert "'kk'" in capsys.readouterr().err
    assert run(["--json", "verify", "--params", "k=3"]) == 0
    assert json.loads(_out(capsys))[0]["parameters"]["k"] == 3


def test_verify_rejects_a_repeated_parameter(capsys):
    # the last value would otherwise win without a word: k=1 k=2 ran k=2
    assert run(["verify", "--only", "pigeonhole", "--params", "k=1", "k=2"]) == 2
    assert "parameter 'k' is given more than once" in capsys.readouterr().err
    assert run(["--json", "verify", "--only", "pigeonhole", "--params", "k=1", "k=1"]) == 2
    assert "'k'" in json.loads(_out(capsys))["error"]


def test_verify_morphism_is_not_a_parameter(capsys):
    # the morphism is bound into w1 and w2; a parameter cannot swap it
    assert run(["verify", "--params", "morphism=f2"]) == 2
    assert "no check accepts parameter 'morphism'" in capsys.readouterr().err
    assert run(["--json", "verify", "--only", "w1", "--params", "morphism=f2"]) == 2
    assert "'morphism'" in json.loads(_out(capsys))["error"]


def test_verify_params_take_their_parameter_type(capsys):
    assert run(["verify", "--only", "g-avoidance", "--params", "n=abc"]) == 2
    assert "'abc'" in capsys.readouterr().err
    assert run(["--json", "verify", "--only", "pigeonhole", "--params", "k=two"]) == 2
    assert "error" in json.loads(_out(capsys))
    # a parameter without a value is a usage error too
    assert run(["verify", "--params", "n"]) == 2
    assert "'n' is not of the form key=value" in capsys.readouterr().err
    # a value below the check's declared lower bound is a usage error too
    assert run(["verify", "--only", "alternating", "--params", "max_len=1"]) == 2
    assert "'max_len' >= 2, got 1" in capsys.readouterr().err
    # what the square-limited check reads is its word, not a parameter
    for params in (["word=0011"], ["n=3", "word=00110101"]):
        assert run(["verify", "--only", "square-limited", "--params", *params]) == 2
        assert "does not accept parameter 'word'" in capsys.readouterr().err


def test_verify_square_limited_needs_the_prefix_holding_its_three_squares(capsys):
    # 0001011, the word's first 7 letters, is its shortest prefix holding 00, 11 and 0101
    assert run(["--json", "verify", "--only", "square-limited", "--params", "n=7"]) == 0
    [report] = json.loads(_out(capsys))
    assert report["passed"] and report["searched_bound"] == {"prefix_length": 7}
    assert run(["verify", "--only", "square-limited", "--params", "n=6"]) == 2
    assert "'n' >= 7, got 6" in capsys.readouterr().err


@pytest.mark.parametrize("param, only, sharing", [
    ("max_len=5", "alternating", "alternating, classifier-oracle"),
    ("n=400", "g-avoidance", "square-limited, g-avoidance, square-limited-xyxyX"),
], ids=["max_len=5", "n=400"])
def test_verify_rejects_a_parameter_several_checks_accept(param, only, sharing, capsys):
    # without --only, max_len=5 would set the oracle's sweep too
    key, _, value = param.partition("=")
    assert run(["verify", "--params", param]) == 2
    assert f"'{key}' is accepted by several selected checks ({sharing})" in capsys.readouterr().err
    assert run(["--json", "verify", "--params", param]) == 2
    assert sharing in json.loads(_out(capsys))["error"]
    # one selected check takes the value
    assert run(["--json", "verify", "--only", only, "--params", param]) == 0
    [report] = json.loads(_out(capsys))
    assert report["passed"] and report["parameters"][key] == int(value)


def test_verify_tm_prefix_covering_derives_its_host(capsys):
    # the Thue-Morse host is 7 * 2^(max_exp + 2) letters, derived, not a parameter
    assert run(["--json", "verify", "--only", "tm-prefix-covering", "--params", "max_exp=7"]) == 0
    [report] = json.loads(_out(capsys))
    assert report["searched_bound"] == {"host_prefix": 3584}


@pytest.mark.parametrize("param", ["big_len=100", "completion_factor_bound=64"])
def test_verify_derived_values_are_not_parameters(param, capsys):
    assert run(["verify", "--params", param]) == 2
    assert f"no check accepts parameter '{param.split('=')[0]}'" in capsys.readouterr().err


def test_verify_failure_exits_one(capsys):
    assert run(["verify", "--only", "w3"]) == 1
    assert _out(capsys).startswith("FAIL w3")


def test_verify_rejects_unknown_id(capsys):
    assert run(["verify", "--only", "nope"]) == 2


def test_malformed_pattern_is_a_usage_error(capsys):
    assert run(["classify", "xq"]) == 2
    assert run(["--json", "classify", "xq"]) == 2
    assert "error" in json.loads(_out(capsys))


@pytest.mark.parametrize("argv, message", [
    (["generate", "thue-morse", "--length", "-1"], "non-negative"),
    (["search", "", "--alphabet", "2", "--target-length", "5"], "empty pattern"),
    (["search", "xx", "--alphabet", "2", "--target-length", "0"], "depth limit"),
    (["graph", "xq"], "'q' at position 1"),
])
def test_a_library_value_error_is_a_usage_error(argv, message, capsys):
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert run(["--json", *argv]) == 2
    assert message in json.loads(_out(capsys))["error"]


def test_usage_error_exit_code(capsys):
    assert run(["generate", "thue-morse"]) == 2  # missing --length
    # _dispatch runs verify for any command that is not another one: argparse
    # must reject a missing or unknown command before it is called
    assert run([]) == 2
    assert run(["nope"]) == 2


def test_search_has_one_depth_flag(capsys):
    assert run(["search", "xX", "--alphabet", "2", "--target-length", "8",
                "--depth-limit", "4"]) == 2


def test_search_rejects_a_witness_the_matcher_refutes(capsys, monkeypatch):
    bad = BacktrackReport("xx", 2, 4, False, 4, 4, "0011")
    monkeypatch.setattr(engine, "prove_k_unavoidable", lambda *args: bad)
    assert run(["--json", "search", "xx", "--alphabet", "2", "--target-length", "4"]) == 2
    assert "0011" in json.loads(_out(capsys))["error"]
