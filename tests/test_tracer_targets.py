"""The benchmark's tracer wraps named call sites of the package; each must exist.

``perfbench/spans.py::_targets`` lists every (owner, attribute) the traced
benchmark run replaces. A rename or removal in the package would only show
as a failed traced run, so this reads that list, without changing or
importing anything under ``perfbench/``, and checks each name here.
"""

import runpy
from pathlib import Path

import pytest

import aag
import aag.cli  # noqa: F401  (the tracer reaches the layers through the package)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def targets():
    # run_path compiles the source itself, so nothing is written beside it
    return runpy.run_path(str(SPANS))["_targets"](aag)


@pytest.mark.parametrize("owner, attr, span", [t[:3] for t in targets()],
                         ids=[t[2] for t in targets()])
def test_traced_call_site_exists(owner, attr, span):
    # the tracer replaces the attribute in the owner's own namespace
    assert attr in vars(owner), f"{span}: {owner.__name__}.{attr} is gone"


def test_the_measure_call_sites_are_traced():
    names = {(owner.__name__, attr) for owner, attr, _, _ in targets()}
    assert {("PairCache", "measure"), ("aag.grouping", "normalized_measure"),
            ("aag.grouping", "total_correlation"), ("aag.measures", "joint_entropy")} <= names
