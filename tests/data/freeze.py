"""Render the pinned outputs in this directory exactly as the code under
test gives them now.

``render(name)`` returns the text of ``FILES[name]``. The tests of
``certify_pins.json``, ``sampler_pins.json``, ``solver_pins.json`` and
``generator_sweeps.json`` assert that it equals the file byte for byte.
``golden.json``'s witnesses were frozen on an older kernel, so
``tests/test_golden.py`` holds ``certify`` to them within tolerance and
checks that ``golden_corpus()`` rebuilds the file's CMs exactly.

To re-freeze, run this on the commit whose output is to be frozen,
naming each file to rewrite; no file is rewritten by default:

    PYTHONPATH=src python tests/data/freeze.py certify sampler solver sweeps
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from cvwitness import (
    CovarianceMatrix,
    GridSpec,
    brute_force_min,
    certify,
    cli,
    noisy_tmsv,
    random_standard,
    random_two_mode_params,
    split_standard,
    thermal,
    tmsv,
    vacuum,
)
from cvwitness.covariance import StandardForm, local_direct_sum, one_mode_rotation, one_mode_squeeze
from cvwitness.optimize import FUNCTIONALS

HERE = Path(__file__).resolve().parent

FILES = {
    "golden": "golden.json",
    "certify": "certify_pins.json",
    "sampler": "sampler_pins.json",
    "solver": "solver_pins.json",
    "sweeps": "generator_sweeps.json",
}

GOLDEN_TOL = 1e-9


def generated_corpus() -> list[CovarianceMatrix]:
    """The acceptance corpus: vacuum, thermal, pure and noisy TMSV, and
    ``random_standard`` for 2, 3 and 4 modes."""
    cms = [vacuum(2), vacuum(3), thermal([0.5, 0.2]), thermal([0.0, 1.3, 0.4])]
    cms += [tmsv(r) for r in (0.1, 0.5, 1.0, 1.7)]
    cms += [noisy_tmsv(0.7, nb, side) for nb in (0.1, 0.45, 0.8) for side in "AB"]
    cms += [random_standard(n, seed=s) for n in (2, 3, 4) for s in range(12)]
    return cms


def golden_corpus() -> list[tuple[str, CovarianceMatrix]]:
    """(label, CM) of ``golden.json``: the acceptance corpus; pure TMSV for
    r = 0, 0.25, ..., 9; noisy TMSV for r in {0.3, 1, 3, 6}, nbar in
    {1e-2, 1, 1e2, 1e4, 1e6} and noise on either side; and 24 two-mode CMs
    moved off standard form by a local rotation and squeeze on each mode."""
    cases = [(f"generated-{k}", cm) for k, cm in enumerate(generated_corpus())]
    cases += [(f"tmsv-{0.25 * k:g}", tmsv(0.25 * k)) for k in range(37)]
    cases += [(f"noisy-tmsv-{r:g}-{nbar:g}-{side}", noisy_tmsv(r, nbar, side))
              for r in (0.3, 1.0, 3.0, 6.0) for nbar in (1e-2, 1.0, 1e2, 1e4, 1e6) for side in "AB"]
    rng = np.random.default_rng(20211028)
    for k in range(24):
        parent = random_standard(2, seed=k) if k % 2 else random_two_mode_params(seed=k).to_covariance_matrix()
        s = local_direct_sum([one_mode_rotation(rng.uniform(0.0, np.pi)) @ one_mode_squeeze(rng.uniform(-1.0, 1.0))
                              for _ in range(parent.n_modes)])
        cases.append((f"off-standard-{k}", CovarianceMatrix(s @ parent.matrix @ s.T)))
    return cases


def certify_inputs() -> list[tuple[str, CovarianceMatrix, float | None]]:
    """(label, CM, tol) of ``certify_pins.json``: the CMs of
    ``golden.json`` at its tolerance, then ``random_standard(n, seed=s)``
    for n = 2..8 and s = 0..3 at the default tolerance."""
    golden = json.loads((HERE / "golden.json").read_text())
    cases = [(e["label"], CovarianceMatrix.from_dict(e["cm"]), golden["tol"]) for e in golden["entries"]]
    cases += [(f"random_standard-{n}-{seed}", random_standard(n, seed=seed), None)
              for n in range(2, 9) for seed in range(4)]
    return cases


# random_standard(n, seed=n) for n = 2, 3, 5 and 8 with each functional.
# Budgets 3, 513, 2047 and 2049 end inside the first round, inside the
# second, one short of a block and one past it, each with seeds 0 and 1;
# the default budget of 100 000 runs once, its seed alternating over the
# functionals, to keep the test near a second
SAMPLER_CASES = [
    {"n": n, "functional": functional, "samples": samples, "seed": seed}
    for n in (2, 3, 5, 8)
    for i, functional in enumerate(FUNCTIONALS)
    for samples, seeds in ((3, (0, 1)), (513, (0, 1)), (2047, (0, 1)), (2049, (0, 1)), (100_000, (i % 2,)))
    for seed in seeds
]


def solver_inputs() -> list[tuple[str, StandardForm, str]]:
    """(label, standard form, functional) of ``solver_pins.json``: the
    standard forms of ``random_standard(n, seed=s)`` for n = 2..8 and
    s = 0..2; ``vacuum(3)``, whose whitened gauge has a repeated top
    singular value; and ``StandardForm(I, [[1, .3], [.3, 1]])``, whose start
    falls back on the first singular vector; each with every functional.
    Then the ``sep_minus`` solves of ``split_standard(tmsv(r))`` for r on
    linspace(0, 9, 37), as ``probes.py``'s ``solver_tmsv`` runs them."""
    forms = [(f"random_standard-{n}-{seed}", split_standard(random_standard(n, seed=seed)))
             for n in range(2, 9) for seed in range(3)]
    forms += [("vacuum-3", split_standard(vacuum(3))),
              ("correlated-momenta", StandardForm(vq=np.eye(2), vp=[[1.0, 0.3], [0.3, 1.0]]))]
    cases = [(label, sf, functional) for label, sf in forms for functional in FUNCTIONALS]
    cases += [(f"tmsv-{r!r}", split_standard(tmsv(r)), "sep_minus") for r in np.linspace(0.0, 9.0, 37).tolist()]
    return cases


# one tmsv sweep to r = 12; four noisy_tmsv sweeps, with the noise on either
# side, over nbar and over r (nbar up to 1e6); random_standard over seeds
# for 3, 4 and 8 modes; and a 3-mode thermal sweep over nbar
SWEEPS = [
    ["tmsv", "--param", "r", "--range", "0,12,49"],
    ["noisy_tmsv", "--r", "0.7", "--side", "A", "--param", "nbar", "--range", "0,1,21"],
    ["noisy_tmsv", "--r", "1.3", "--side", "B", "--param", "nbar", "--range", "0,6,25"],
    ["noisy_tmsv", "--nbar", "0.3", "--side", "A", "--param", "r", "--range", "0,7.5,31"],
    ["noisy_tmsv", "--nbar", "1e6", "--side", "B", "--param", "r", "--range", "0,6,13"],
    ["random_standard", "--n", "3", "--param", "seed", "--range", "0,99,100"],
    ["random_standard", "--n", "4", "--param", "seed", "--range", "0,99,100"],
    ["random_standard", "--n", "8", "--param", "seed", "--range", "0,49,50"],
    ["thermal", "--n", "3", "--param", "nbar", "--range", "0,2,21"],
]


def exact_verdict(verdict) -> dict:
    """A verdict's ``to_dict()`` with each witness as its ``float.hex``."""
    out = verdict.to_dict()
    out["witnesses"] = {key: value.hex() for key, value in out["witnesses"].items()}
    return out


def exact_result(result) -> dict:
    """A ``MinimizationResult``'s value and weights as ``float.hex``, and its
    ``iterations`` (0: the solver runs no sweeps) and flags."""
    return {
        "value": result.value.hex(),
        "alpha": [x.hex() for x in result.argmin_alpha.tolist()],
        "beta": [x.hex() for x in result.argmin_beta.tolist()],
        "iterations": result.iterations,
        "converged": result.converged,
        "boundary_flag": result.boundary_flag,
    }


def sweep_csv(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["sweep", *argv])
    if code != 0:
        raise RuntimeError(f"sweep {' '.join(argv)} exited {code}")
    return buf.getvalue()


def render(name: str) -> str:
    """The exact text of the file that ``FILES[name]`` names."""
    if name == "golden":
        entries = [{"label": label, "cm": cm.to_dict(), "verdict": certify(cm, tol=GOLDEN_TOL).to_dict()}
                   for label, cm in golden_corpus()]
        return '{"tol": %r, "entries": [\n' % GOLDEN_TOL + ",\n".join(map(json.dumps, entries)) + "\n]}\n"
    if name == "sweeps":
        return json.dumps([{"argv": argv, "csv": sweep_csv(argv)} for argv in SWEEPS], indent=1) + "\n"
    if name == "certify":
        entries = [{"label": label, "verdict": exact_verdict(certify(cm, tol=tol))}
                   for label, cm, tol in certify_inputs()]
    elif name == "sampler":
        forms = {n: split_standard(random_standard(n, seed=n)) for n in (2, 3, 5, 8)}
        entries = [{**case, "value": brute_force_min(forms[case["n"]], case["functional"],
                                                     GridSpec(case["samples"], seed=case["seed"])).hex()}
                   for case in SAMPLER_CASES]
    elif name == "solver":
        # each functional's numeric minimizer, as ``cvwitness oracle`` calls it
        entries = [{"label": label, "functional": f, **exact_result(cli._ORACLE_FUNCTIONALS[f][2](sf))}
                   for label, sf, f in solver_inputs()]
    else:
        raise ValueError(f"no pinned file named {name!r}; the names are {', '.join(FILES)}")
    return "[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n"


if __name__ == "__main__":
    names = sys.argv[1:]
    if not names or not set(names) <= FILES.keys():
        sys.exit(f"usage: freeze.py NAME... to rewrite the named files, NAME in {{{', '.join(FILES)}}}")
    for name in names:
        (HERE / FILES[name]).write_text(render(name))
