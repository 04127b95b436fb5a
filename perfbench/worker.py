"""One pass of one workload in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py <workload> <seed> <started> [--setup-only] [--trace FILE]

``started`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the end of ``import revpat``, pin
loading and input generation.  The last stdout line is one JSON object.
With ``--trace`` the pass installs span wrappers, reports per-layer metrics
and writes its spans to FILE when it ends.

A pass's time is reported raw and normalised to the reference speed: the
pass samples the reference kernel throughout (see ``reference.py``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def rescaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Per-layer metrics with times at the reference speed."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("_per_s"):
            value /= factor
        elif name.endswith(("_s", "us_per_call")):
            value *= factor
        out[name] = value
    return out


def main(argv: list[str]) -> int:
    workload, seed, started = argv[0], int(argv[1]), float(argv[2])
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import revpat  # noqa: F401  (set-up cost: the package and all its modules)
    import reference
    import workloads

    pins = workloads.load_pins(workload)
    inputs = workloads.make_inputs(workload, seed)
    out: dict = {"setup_s": time.monotonic() - started}
    if "--setup-only" in argv:
        print(json.dumps(out))
        return 0

    tracer = None
    if trace_path is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    sampler = reference.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    try:
        failures, elapsed, nodes = workloads.run(workload, inputs, pins["outputs"], tracer)
        raw_wall_s = time.perf_counter() - t0
    finally:
        sampler.stop()

    factor = sampler.factor(raw_wall_s)
    out.update({
        "raw_wall_s": raw_wall_s,
        "wall_s": raw_wall_s * factor,
        "speed_factor": factor,
        "kernel_samples": len(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(inputs),
        "failures": failures,
        "elapsed": {cid: e * factor for cid, e in elapsed.items()},
        "nodes": nodes,
    })
    if tracer is not None:
        out["layers"] = rescaled(spans.layer_metrics(tracer.spans, tracer.attrs), factor)
        out["self_s"] = spans.self_time_shares(tracer.spans)
        tracer.dump(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
