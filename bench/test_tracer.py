"""The span tracer patches every imported alias, restores it, and fails on renames.

Run with: python3 -m pytest bench/test_tracer.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import omfree.cli  # noqa: E402
import omfree.lattice  # noqa: E402
import omfree.weil  # noqa: E402
from run import _per_layer  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def test_traces_imported_aliases_and_restores_them():
    original = omfree.lattice.pairing_counts
    assert omfree.weil.pairing_counts is original
    with Tracer() as tracer:
        assert omfree.weil.pairing_counts is not original
        assert omfree.weil.pairing_counts is omfree.lattice.pairing_counts
        with contextlib.redirect_stdout(io.StringIO()):
            assert omfree.cli.main(["pullback", "E6", "-k", "4", "--nq", "2", "--json"]) == 0
    assert omfree.weil.pairing_counts is original and omfree.lattice.pairing_counts is original

    summary = tracer.summary()
    per_name = summary["per_name"]
    assert summary["root_names"] == ["cli.main"]
    assert per_name["weil.pullback"]["calls"] == 1
    assert per_name["lattice.pairing_counts"]["calls"] == len(omfree.lattice.lattice("E6").cosets)
    assert per_name["lattice.pairing_counts"]["vectors"] > 0
    assert (summary["pullbacks"], summary["counts_hits"]) == (1, 0)
    assert summary["min_self_s"] >= 0
    total_self = sum(rec["self_s"] for rec in per_name.values())
    assert total_self == pytest.approx(summary["root_wall_s"], abs=1e-6)

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(_per_layer([summary], 1.0, 1.0)) == sorted(m["name"] for m in benchmark["per_layer"])


def test_missing_target_fails_loudly():
    tracer = Tracer(TARGETS + (("weil", "no_such_function", None),))
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install()
    tracer.restore()
    assert omfree.weil.pullback.__module__ == "omfree.weil" and not hasattr(omfree.weil.pullback, "__wrapped__")
