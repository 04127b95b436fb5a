"""The registry payloads and the search witnesses match the benchmark's pins.

The pins in ``perfbench/pins`` are read, never written, through
``perfbench/workloads.py``, which also runs each output the way the benchmark
does; so a payload or witness that drifts from its pin fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload, seed", [("registry", 0), ("search", 0)])
def test_outputs_match_their_pins(workload, seed):
    inputs = workloads.make_inputs(workload, seed)
    assert len(inputs) == {"registry": 12, "search": 17}[workload]
    failures, _, _ = workloads.run(workload, inputs, workloads.load_pins(workload)["outputs"])
    assert failures == []
