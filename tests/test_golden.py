"""Verdicts on the frozen golden corpus (``tests/data/golden.json``, made
by ``tests/data/freeze.py``) must not change: identical flags,
identical witness keys, and witnesses within max(1e-12, 64 eps cond(V))
relative, the accuracy of a symplectic spectrum of an ill-conditioned CM.
"""

import json

import numpy as np
import pytest

from cvwitness import (
    CovarianceMatrix,
    certify,
    certify_many,
    check_unsteerable_ab,
    check_unsteerable_ba,
)
from cvwitness.covariance import _stack_witnesses, schur_complement, symplectic_form
import freeze

GOLDEN = json.loads((freeze.HERE / "golden.json").read_text())
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
    # B->A's margin is nu_min(V/V_B) - 1/2, the RS eigenvalue in Williamson form
    assert ba.min_rs_eigenvalue == w.schur_nu_min[0] - 0.5
    # A->B's is the smallest eigenvalue of V/V_A + (i/2) J_B from V/V_A's
    # entries, a second route that agrees with certify's pivot product
    # wherever the flag is not marked
    g = schur_complement(cm, "A")
    reference = np.linalg.eigvalsh(g + 0.5j * symplectic_form(1))[0]
    assert abs(ab.min_rs_eigenvalue - reference) <= 8 * np.finfo(float).eps * np.linalg.norm(g, 2)
    if "marginal_ab" not in witnesses:
        assert ab.matrix_ok == ab.det_ok


def test_certify_pins():
    """Every flag, marker and witness bit that ``certify`` gave at the
    freeze (``tests/data/freeze.py``), one CM at a time and as one
    ``certify_many`` stack per mode count. A speed-up of the kernel must
    not move any of them; only a deliberate change of numerical route,
    such as deciding each flag from a banded Hermitian form (ROADMAP
    item 1), may re-freeze the file."""
    pinned = (freeze.HERE / "certify_pins.json").read_text()
    assert freeze.render("certify") == pinned
    want = [pin["verdict"] for pin in json.loads(pinned)]
    cases = freeze.certify_inputs()
    groups = {}
    for i, (_, cm, tol) in enumerate(cases):
        groups.setdefault((cm.n_modes, tol), []).append(i)
    stacked = {}
    for (_, tol), members in groups.items():
        verdicts = certify_many([cases[i][1] for i in members], tol=tol)
        stacked.update(zip(members, map(freeze.exact_verdict, verdicts)))
    assert [stacked[i] for i in range(len(cases))] == want


def test_golden_corpus_rebuilds():
    """``freeze.py`` rebuilds the corpus's 151 labels and CMs exactly. The
    file's witnesses were frozen on an older kernel and have since moved
    within the tolerance above, so the verdicts are not compared here."""
    rebuilt = json.loads(freeze.render("golden"))
    assert rebuilt["tol"] == GOLDEN["tol"]
    assert [(e["label"], e["cm"]) for e in rebuilt["entries"]] == [(e["label"], e["cm"]) for e in GOLDEN["entries"]]
    assert len(GOLDEN["entries"]) == 151
