"""No report changed: the prover sweep and the verify registry against their
digests.  When a digest moves, ``tools/sweep.py`` run in both trees names the
reports that moved."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import sweep  # noqa: E402


def test_no_prover_or_registry_report_changed():
    searches, registry = sweep.reports()
    assert len(searches) == 834
    assert sum(r.nodes_visited for r in searches) == 129_596
    assert sweep.digest([sweep.payload(r) for r in searches]) == "4b436f9bb1b34d8f"
    assert len(registry) == 13
    assert sweep.digest([sweep.payload(r) for r in registry]) == "5e386b0d82868b4e"
