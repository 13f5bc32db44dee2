"""Freeze the golden corpus: covariance matrices with the verdicts that
``certify`` gives them, written to ``golden.json`` next to this file.

The frozen verdicts are the reference that ``tests/test_golden.py``
holds later versions of ``certify`` to, so run this only on the commit
whose verdicts are to be frozen:

    PYTHONPATH=src python tests/data/freeze_golden.py

The corpus is the acceptance ``generated_corpus()``; pure TMSV for
r = 0, 0.25, ..., 9; noisy TMSV for r in {0.3, 1, 3, 6}, nbar in
{1e-2, 1, 1e2, 1e4, 1e6} and noise on either side; and 24 two-mode CMs
moved off standard form by a local rotation and squeeze on each mode.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from cvwitness import (  # noqa: E402
    certify,
    noisy_tmsv,
    random_standard,
    random_two_mode_params,
    tmsv,
)
from cvwitness.covariance import (  # noqa: E402
    CovarianceMatrix,
    local_direct_sum,
    one_mode_rotation,
    one_mode_squeeze,
)
from test_acceptance import generated_corpus  # noqa: E402

TOL = 1e-9


def _off_standard(cm: CovarianceMatrix, rng) -> CovarianceMatrix:
    s = local_direct_sum(
        [one_mode_rotation(rng.uniform(0.0, np.pi)) @ one_mode_squeeze(rng.uniform(-1.0, 1.0))
         for _ in range(cm.n_modes)]
    )
    return CovarianceMatrix(s @ cm.matrix @ s.T)


def corpus() -> list[tuple[str, CovarianceMatrix]]:
    cases = [(f"generated-{k}", cm) for k, cm in enumerate(generated_corpus())]
    cases += [(f"tmsv-{0.25 * k:g}", tmsv(0.25 * k)) for k in range(37)]
    for r in (0.3, 1.0, 3.0, 6.0):
        for nbar in (1e-2, 1.0, 1e2, 1e4, 1e6):
            for side in "AB":
                cases.append((f"noisy-tmsv-{r:g}-{nbar:g}-{side}", noisy_tmsv(r, nbar, side)))
    rng = np.random.default_rng(20211028)
    for k in range(24):
        if k % 2:
            parent = random_standard(2, seed=k)
        else:
            parent = random_two_mode_params(seed=k).to_covariance_matrix()
        cases.append((f"off-standard-{k}", _off_standard(parent, rng)))
    return cases


def main() -> None:
    entries = [
        {"label": label, "cm": cm.to_dict(), "verdict": certify(cm, tol=TOL).to_dict()}
        for label, cm in corpus()
    ]
    with open(HERE / "golden.json", "w") as fh:
        fh.write('{"tol": %r, "entries": [\n' % TOL)
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
