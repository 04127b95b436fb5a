"""revpat benchmark: one workload, timed in fresh single-threaded interpreters.

    python3 perfbench/run.py --workload {oracle,search,registry} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; it needs ``src/revpat`` beside this
directory and exits 2 without a result when that is missing.

A run first starts the worker once to warm the bytecode cache, then
``SETUP_PROBES`` times to time set-up alone, then runs passes of the
workload, each in a new interpreter, as many as fit in ``--seconds``.
Every output of every pass is checked against the pins in ``pins/``.

``--trace 0`` reports the end-to-end metrics, medians over the passes:
``wall_s``, ``setup_s`` (over probes and passes), ``peak_rss_mb`` and
``ok_frac`` (outputs that matched their pin over outputs attempted).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_frac``.

Human-readable lines come first; the last stdout line is the JSON result.
Each run also writes its environment and every pass's samples to
``perfbench/out/``, and traced runs their spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from spans import SHAPES  # noqa: E402
from workloads import WORKLOADS, load_pins  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170  # every run must end within 180 s, the build-free first run included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "frac"}

# the registry's check ids at the time the benchmark was defined: metric names
# are the benchmark's contract, so they do not follow later registry changes
CHECK_IDS = (
    "square-limited", "g-avoidance", "square-limited-xyxyX", "w1", "w2", "w3",
    "w3-contexts-repaired", "w4", "pigeonhole", "alternating", "classifier-oracle",
    "classical-seeds", "image-locality-f1", "image-locality-f2", "image-locality-f3",
    "image-locality-f4", "tm-prefix-covering", "tm-desubstitution",
)


class BenchError(Exception):
    pass


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in BENCHMARK.json order."""
    units: dict[str, str] = {}
    for key in ("calls", "nodes", "busy_s", "nodes_per_s", "certificates", "witnesses",
                "max_call_nodes", "max_call_s"):
        units["engine.prove." + key] = _unit(key)
    for shape in SHAPES:
        units[f"engine.prove.{shape}.nodes"] = "count"
        units[f"engine.prove.{shape}.busy_s"] = "s"
    for key in ("calls", "busy_s", "us_per_call", "hit_ratio", "letters"):
        units["matcher." + key] = _unit(key)
    units["matcher.one_var.busy_s"] = units["matcher.two_var.busy_s"] = "s"
    for key in ("letters", "busy_s", "letters_per_s"):
        units["sequences.square_limited." + key] = _unit(key)
    for layer in ("morphism", "factor_set"):
        units[f"sequences.{layer}.calls"] = "count"
        units[f"sequences.{layer}.busy_s"] = "s"
    units["sequences.collect_squares.busy_s"] = "s"
    units["sequences.contains_overlap.busy_s"] = "s"
    units["sequences.left_completions.calls"] = "count"
    units["sequences.left_completions.busy_s"] = "s"
    for layer in ("engine.classify", "engine.graph", "patterns.canonical"):
        units[layer + ".calls"] = "count"
        units[layer + ".busy_s"] = "s"
    for cid in CHECK_IDS:
        units[f"verify.{cid}.elapsed_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def _unit(key: str) -> str:
    if key.endswith("_s") and not key.endswith("per_s"):
        return "s"
    return {"nodes_per_s": "1/s", "letters_per_s": "letters/s", "us_per_call": "us",
            "hit_ratio": "frac", "letters": "letters"}.get(key, "count")


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run the worker in a new interpreter and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run exceeded its {DEADLINE_S} s deadline")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", WORKER, workload, str(seed), repr(started), *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def report_nodes(workload: str, pins: dict, passes: list[dict]) -> list[str]:
    """Prover node counts against the pins: reported, never a failure."""
    if workload == "search":
        got = passes[0]["nodes"]
        changed = [f"{p} {pins['outputs'][p]['nodes']}->{n}" for p, n in got.items()
                   if n != pins["outputs"][p]["nodes"]]
        total = sum(got.values())
    else:
        traced = [s for s in passes if "layers" in s]
        if not traced:
            return []
        total = traced[0]["layers"]["engine.prove.nodes"]
        changed = [] if total == pins["prove_nodes"] else [f"{pins['prove_nodes']}->{total}"]
    state = "changed: " + ", ".join(changed) if changed else "unchanged"
    return [f"prover nodes: {total} ({state} against the pin)"]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "revpat", "__init__.py")):
        print(f"revpat sources not found under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
           "loadavg_start": loadavg()}
    pins = load_pins(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        spawn(args.workload, args.seed, deadline, "--setup-only")  # warm bytecode cache
        probes = [spawn(args.workload, args.seed, deadline, "--setup-only")
                  for _ in range(SETUP_PROBES)]
        passes: list[dict] = []
        took: list[float] = []
        begin = time.monotonic()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            extra = ("--trace", stem + ".spans.json") if traced else ()
            t0 = time.monotonic()
            passes.append(spawn(args.workload, args.seed, deadline, *extra))
            took.append(time.monotonic() - t0)
            # stop before a pass that would overrun --seconds, once there is
            # one pass (one of each kind when tracing)
            fits = time.monotonic() - begin + statistics.median(took) <= args.seconds
            kinds = {"layers" in s for s in passes}
            if not fits and (args.trace == 0 or len(kinds) == 2):
                break
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()

    plain = [s for s in passes if "layers" not in s]
    traced = [s for s in passes if "layers" in s]
    attempted = sum(s["attempted"] for s in passes)
    failures = [f for s in passes for f in s["failures"]]

    if args.trace == 0:
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": statistics.median(s["setup_s"] for s in probes + passes),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "ok_frac": 1 - len(failures) / attempted,
        }
        units = END_TO_END
    else:
        units = per_layer_units()
        values = {}
        for name in units:
            if name.startswith("verify."):
                cid = name[len("verify."):-len(".elapsed_s")]
                values[name] = statistics.median(s["elapsed"].get(cid, 0.0) for s in plain)
            elif name != "trace.overhead_frac":
                values[name] = median_of([s["layers"] for s in traced], name)
        values["trace.overhead_frac"] = \
            median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1

    record = {"env": env, "setup_probes": probes, "passes": passes, "metrics": values}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("env: " + json.dumps(env))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"setup probes: {len(probes)}; outputs attempted: {attempted}")
    print(f"raw wall_s median, before normalising to the reference speed: "
          f"{median_of(plain, 'raw_wall_s'):.4f} s")
    for line in report_nodes(args.workload, pins, passes):
        print(line)
    for failure in sorted(set(failures)):
        print("FAILED " + failure)
    if traced:
        self_s = traced[-1]["self_s"]
        total = sum(self_s.values())
        print("self time share (last traced pass): " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])))
        print(f"wall_s median: {median_of(plain, 'wall_s'):.4f} s untraced, "
              f"{median_of(traced, 'wall_s'):.4f} s traced")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
