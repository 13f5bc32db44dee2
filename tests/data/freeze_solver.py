"""Freeze the numeric minimizers' exact results, written to
``solver_pins.json`` next to this file: the ``float.hex`` string of the
value and of each weight, and ``iterations``, ``converged`` and
``boundary_flag``.

``tests/test_optimize.py::test_solver_pins`` holds later versions of the
alternating solver to these bits, so run this only on the commit whose
output is to be frozen:

    PYTHONPATH=src python tests/data/freeze_solver.py

The inputs are the standard forms of ``random_standard(n, seed=s)`` for
n = 2..8 and s = 0..2, each with all four functionals; the ``sep_minus``
solves of ``split_standard(tmsv(r))`` for r on linspace(0, 9, 37), as
``probes.py``'s ``solver_tmsv`` runs them, eleven of which run all 500
sweeps without converging; and, with all four functionals, ``vacuum(3)``,
whose whitened gauge has a repeated top singular value, and
``StandardForm(I, [[1, .3], [.3, 1]])``, whose start falls back on the
first singular vector.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cvwitness import random_standard, split_standard, tmsv, vacuum
from cvwitness.cli import _ORACLE_FUNCTIONALS
from cvwitness.covariance import StandardForm
from cvwitness.optimize import FUNCTIONALS

HERE = Path(__file__).resolve().parent

TMSV_RS = np.linspace(0.0, 9.0, 37).tolist()


def inputs() -> list[tuple[str, StandardForm, str]]:
    """(label, standard form, functional) for every pinned solve, in file order."""
    forms = [(f"random_standard-{n}-{seed}", split_standard(random_standard(n, seed=seed)))
             for n in range(2, 9) for seed in range(3)]
    forms += [("vacuum-3", split_standard(vacuum(3))),
              ("correlated-momenta", StandardForm(vq=np.eye(2), vp=[[1.0, 0.3], [0.3, 1.0]]))]
    cases = [(label, sf, functional) for label, sf in forms for functional in FUNCTIONALS]
    cases += [(f"tmsv-{r!r}", split_standard(tmsv(r)), "sep_minus") for r in TMSV_RS]
    return cases


def solve(sf: StandardForm, functional: str):
    """The functional's numeric minimizer on sf, as ``cvwitness oracle`` calls it."""
    return _ORACLE_FUNCTIONALS[functional][2](sf)


def exact(result) -> dict:
    """A ``MinimizationResult``'s value and weights as ``float.hex``, and its
    sweep count and flags."""
    return {
        "value": result.value.hex(),
        "alpha": [x.hex() for x in result.argmin_alpha.tolist()],
        "beta": [x.hex() for x in result.argmin_beta.tolist()],
        "iterations": result.iterations,
        "converged": result.converged,
        "boundary_flag": result.boundary_flag,
    }


def main() -> None:
    entries = [{"label": label, "functional": functional, **exact(solve(sf, functional))}
               for label, sf, functional in inputs()]
    with open(HERE / "solver_pins.json", "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")


if __name__ == "__main__":
    main()
