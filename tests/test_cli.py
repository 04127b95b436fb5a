import json
import os
import subprocess
import sys

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


def test_generate_and_cache(tmp_path, capsys):
    assert run(["generate", "thue-morse", "--length", "16",
                "--cache", str(tmp_path)]) == 0
    assert _out(capsys) == "0110100110010110"
    assert (tmp_path / "thue-morse-16.txt").read_text() == "0110100110010110\n"


def test_generate_env_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REVPAT_CACHE", str(tmp_path))
    assert run(["generate", "alternating", "--length", "6"]) == 0
    assert _out(capsys) == "010101"
    assert (tmp_path / "alternating-6.txt").exists()


def test_generate_has_no_lookahead_flag(tmp_path, capsys):
    assert run(["generate", "thue-morse", "--length", "8", "--lookahead", "5",
                "--cache", str(tmp_path)]) == 2
    assert run(["--json", "generate", "square-limited", "--length", "12",
                "--cache", str(tmp_path)]) == 0
    assert json.loads(_out(capsys)) == {"sequence": "square-limited", "length": 12,
                                        "lookahead": 100, "word": "000101100011"}


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


def test_search_with_a_spent_budget_is_inconclusive(capsys):
    argv = ["search", "xxyx", "--alphabet", "3", "--target-length", "200"]
    assert run(argv + ["--max-nodes", "1000"]) == 3
    assert _out(capsys).startswith("inconclusive: node budget of 1000 spent")
    assert run(["--json"] + argv + ["--max-nodes", "1000"]) == 3
    payload = json.loads(_out(capsys))
    assert payload["outcome"] == "inconclusive" and payload["inconclusive"] is True
    assert payload["terminated"] is False and payload["nodes_visited"] == 1000
    assert run(argv + ["--max-nodes", "0"]) == 2


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "revpat", "classify", "xyxY"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "3")


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


def test_verify_params_take_their_parameter_type(capsys):
    assert run(["verify", "--only", "g-avoidance", "--params", "n=abc"]) == 2
    assert "'abc'" in capsys.readouterr().err
    assert run(["--json", "verify", "--only", "pigeonhole", "--params", "k=two"]) == 2
    assert "error" in json.loads(_out(capsys))
    # a value below the check's declared lower bound is a usage error too
    assert run(["verify", "--only", "alternating", "--params", "max_len=1"]) == 2
    assert "'max_len' >= 2, got 1" in capsys.readouterr().err
    # every word is a digit string, and reaches the check as one
    assert run(["--json", "verify", "--only", "square-limited", "--params", "word=0011"]) == 1
    [report] = json.loads(_out(capsys))
    assert report["parameters"]["injected"] is True and report["parameters"]["n"] == 4
    assert report["counterexample"] == {"missing_squares": ["0101"]}
    # a word that is not a digit string is a usage error, not a stray square
    assert run(["verify", "--only", "square-limited", "--params", "word=0a0a00110101"]) == 2
    assert "'a' at position 1" in capsys.readouterr().err
    assert run(["verify", "--only", "square-limited", "--params", "word=0\u00e90"]) == 2
    assert "position 1" in capsys.readouterr().err


def test_verify_failure_exits_one(capsys):
    assert run(["verify", "--only", "w3"]) == 1
    assert _out(capsys).startswith("FAIL w3")


def test_verify_rejects_unknown_id(capsys):
    assert run(["verify", "--only", "nope"]) == 2


def test_malformed_pattern_is_a_usage_error(capsys):
    assert run(["classify", "xq"]) == 2
    assert run(["--json", "classify", "xq"]) == 2
    assert "error" in json.loads(_out(capsys))


def test_usage_error_exit_code(capsys):
    assert run(["generate", "thue-morse"]) == 2  # missing --length


def test_search_has_one_depth_flag(capsys):
    assert run(["search", "xX", "--alphabet", "2", "--target-length", "8",
                "--depth-limit", "4"]) == 2


def test_search_rejects_a_witness_the_matcher_refutes(capsys, monkeypatch):
    bad = BacktrackReport("xx", 2, 4, False, 4, 4, "0011")
    monkeypatch.setattr(engine, "prove_k_unavoidable", lambda *args: bad)
    assert run(["--json", "search", "xx", "--alphabet", "2", "--target-length", "4"]) == 2
    assert "0011" in json.loads(_out(capsys))["error"]
