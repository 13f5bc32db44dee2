"""Verdicts on the frozen golden corpus (``tests/data/golden.json``, made
by ``tests/data/freeze_golden.py``) must not change: identical flags,
identical witness keys, and witnesses within max(1e-12, 64 eps cond(V))
relative, the accuracy of a symplectic spectrum of an ill-conditioned CM.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cvwitness import (
    CovarianceMatrix,
    certify,
    certify_many,
    check_unsteerable_ab,
    check_unsteerable_ba,
)
from cvwitness.covariance import _stack_witnesses

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())
FLAGS = (
    "physical",
    "ppt",
    "separable_necessary_met",
    "gaussian_separable",
    "steerable_a_to_b",
    "steerable_b_to_a",
)


@pytest.mark.parametrize("entry", GOLDEN["entries"], ids=lambda e: e["label"])
def test_golden_verdict(entry):
    cm = CovarianceMatrix.from_dict(entry["cm"])
    want = entry["verdict"]
    got = certify(cm, tol=GOLDEN["tol"]).to_dict()
    assert {k: got[k] for k in FLAGS} == {k: want[k] for k in FLAGS}
    assert list(got["witnesses"]) == list(want["witnesses"])
    bound = max(1e-12, 64 * np.finfo(float).eps * np.linalg.cond(cm.matrix))
    for key, value in want["witnesses"].items():
        assert abs(got["witnesses"][key] - value) <= bound * abs(value), key


@pytest.mark.parametrize(
    "entry", [e for e in GOLDEN["entries"] if e["verdict"]["physical"]], ids=lambda e: e["label"]
)
def test_golden_unsteerability_checks(entry):
    # the one-CM checks read certify's witnesses and agree with its flags
    cm = CovarianceMatrix.from_dict(entry["cm"])
    tol = GOLDEN["tol"]
    want = entry["verdict"]
    ab = check_unsteerable_ab(cm, tol=tol)
    ba = check_unsteerable_ba(cm, tol=tol)
    assert ab.det_ok == (not want["steerable_a_to_b"])
    assert ba.matrix_ok == (not want["steerable_b_to_a"])
    witnesses = certify(cm, tol=tol).witnesses
    assert (ab.det_ratio, ba.det_ratio) == (witnesses["det_ratio_ab"], witnesses["det_ratio_ba"])
    w = _stack_witnesses(cm.matrix[None])
    assert (ab.min_rs_eigenvalue, ba.min_rs_eigenvalue) == (w.rs_ab[0], w.rs_ba[0])


def test_certify_pins():
    """Every flag, marker and witness bit that ``certify`` gave at the
    freeze (``tests/data/freeze_certify.py``), one CM at a time and as
    one ``certify_many`` stack per mode count. A speed-up of the kernel
    must not move any of them; only a deliberate change of numerical
    route, such as deciding each flag from a banded Hermitian form
    (ROADMAP item 1), may re-freeze the file."""
    data = Path(__file__).parent / "data"
    sys.path.insert(0, str(data))
    try:
        import freeze_certify as freeze
    finally:
        sys.path.remove(str(data))
    pins = json.loads((data / "certify_pins.json").read_text())
    cases = freeze.inputs()
    assert [label for label, _, _ in cases] == [pin["label"] for pin in pins]
    want = [pin["verdict"] for pin in pins]
    assert [freeze.exact(certify(cm, tol=tol)) for _, cm, tol in cases] == want
    groups = {}
    for i, (_, cm, tol) in enumerate(cases):
        groups.setdefault((cm.n_modes, tol), []).append(i)
    stacked = {}
    for (_, tol), members in groups.items():
        verdicts = certify_many([cases[i][1] for i in members], tol=tol)
        stacked.update(zip(members, map(freeze.exact, verdicts)))
    assert [stacked[i] for i in range(len(cases))] == want
