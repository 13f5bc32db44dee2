"""Mutation check of the verdict rules, the dead band, the solver's read-off
and the two-mode reduction.

Each mutant is one textual edit of one source file, and names the test
files that must kill it. In src/cvwitness/covariance.py, killed by
tests/test_criteria.py or tests/test_golden.py: a test of
``_verdict_rules`` made strict, a marker, or the A->B marker's term
scaled by V/V_A's half trace, made strict or moved off its centre,
Alice's B->A threshold 4^-N read as 1/4, the band narrowed or set to tol
alone, or the kernel's mask of failed members made to miss a failed
factor order, spectrum or V/V_B eigensolve, a failed V + (i/2) J
eigensolve, or the invalid flag, or left unapplied. In
src/cvwitness/optimize.py, killed by tests/test_criteria.py:
``check_unsteerable_ab``'s matrix test, the one reader of V/V_A + (i/2)
J_B, made strict. In src/cvwitness/optimize.py, killed by
tests/test_optimize.py: the solver's start taken from the smallest singular pair of the whitened
gauge, from its first singular vector alone where sigma_max repeats, or
without the fallback for a projection that vanishes; the start left at
its projected length instead of unit length, Alice's weights not divided
by sqrt(sigma_max), or Bob's vector G' u not divided by sigma_max before
the root. In src/cvwitness/covariance.py, killed by tests/test_cli.py or
tests/test_covariance.py: the two-mode reduction's parties swapped, or
its local variances left unclamped at 1/2. Each is applied in a
temporary copy of the repository, never in the checkout, and its test
files run against it. A mutant survives when they all still pass.

Usage, from anywhere:

    python tests/data/mutate.py

It prints one line per mutant and the survivors, and exits 0 when every
mutant is killed, 1 when any survives, and 2 when the unmutated copy
fails a test file that a mutant names or a mutant's text is no longer
found exactly once in its file. Standard library only; it runs the tests
with the interpreter that runs it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# (target file, the test files that must kill its mutants)
KERNEL = ("src/cvwitness/covariance.py", ("tests/test_criteria.py", "tests/test_golden.py"))
SOLVER = ("src/cvwitness/optimize.py", ("tests/test_optimize.py",))
CHECK = ("src/cvwitness/optimize.py", ("tests/test_criteria.py",))
REDUCTION = ("src/cvwitness/covariance.py", ("tests/test_cli.py", "tests/test_covariance.py"))

# (name, target, tests, text, replacement): each text must occur exactly
# once in its target
MUTANTS = (
    ("rs test strict", *KERNEL, "rs_ok = w.min_rs_eig >= -band", "rs_ok = w.min_rs_eig > -band"),
    ("A->B matrix test strict", *CHECK, "rs >= -_band(tol, V.matrix)", "rs > -_band(tol, V.matrix)"),
    ("A->B det test strict", *KERNEL, "ab_ok = w.nu_ab >= 0.5 - band", "ab_ok = w.nu_ab > 0.5 - band"),
    ("B->A matrix test strict", *KERNEL, "ba = (w.schur_nu_min >= 0.5 - band,", "ba = (w.schur_nu_min > 0.5 - band,"),
    ("B->A det test strict", *KERNEL, "det_ba >= 0.25**n_alice - band", "det_ba > 0.25**n_alice - band"),
    ("PPT test strict", *KERNEL, "ppt = w.nu_min_pt >= 0.5 - band", "ppt = w.nu_min_pt > 0.5 - band"),
    ("sep_plus test strict", *KERNEL, "(sep_plus >= 1.0 - band)", "(sep_plus > 1.0 - band)"),
    ("sep_minus test strict", *KERNEL, "(sep_minus >= 1.0 - band)", "(sep_minus > 1.0 - band)"),
    ("B->A det threshold 1/4", *KERNEL, "0.25**n_alice - band", "0.25 - band"),
    ("A->B det marker strict", *KERNEL, "(off_ab <= band) |", "(off_ab < band) |"),
    ("A->B matrix marker strict", *KERNEL, "(off_ab <= band * (", "(off_ab < band * ("),
    ("A->B marker centre 1/4", *KERNEL, "off_ab = abs(w.nu_ab - 0.5)", "off_ab = abs(w.nu_ab - 0.25)"),
    ("PPT marker strict", *KERNEL, "abs(w.nu_min_pt - 0.5) <= band", "abs(w.nu_min_pt - 0.5) < band"),
    ("B->A marker strict", *KERNEL, "abs(w.schur_nu_min - 0.5) <= band", "abs(w.schur_nu_min - 0.5) < band"),
    ("B->A marker centre 1/4", *KERNEL, "schur_nu_min - 0.5", "schur_nu_min - 0.25"),
    ("band constant halved", *KERNEL, "_BAND_PER_NORM = 8.0 *", "_BAND_PER_NORM = 4.0 *"),
    ("one-CM band is tol", *KERNEL, "return max(tol, _BAND_PER_NORM * float(np.abs(m).max()))", "return tol"),
    (
        "stack band is tol", *KERNEL,
        "band = np.maximum(tol, _BAND_PER_NORM * np.abs(v).max(axis=(1, 2)))",
        "band = tol",
    ),
    # the kernel's mask of members whose LAPACK call failed
    ("mask ignores the Bob-first factor", *KERNEL, "factors[nan] = 0.0\n", "factors[nan] = 0.0\n            nan[1::2] = False\n"),
    ("mask ignores V's factor", *KERNEL, "factors[nan] = 0.0\n", "factors[nan] = 0.0\n            nan[0::2] = False\n"),
    ("NaN spectra row not masked", *KERNEL, "(nan | rows[k:])", "(nan | np.zeros(2 * k, dtype=bool))"),
    ("NaN V/V_B row not masked", *KERNEL, "unfactored |= np.isnan(schur_nu_min)", "unfactored |= False"),
    ("NaN V + (i/2) J row not raised", *KERNEL, "if rows[:k].any():", "if False:"),
    ("stack witnesses not zeroed", *KERNEL, "np.where(factored, x, 0.0) for x in tail", "x for x in tail"),
    ("one-CM mask ignored", *KERNEL, "if factored is not None and not factored[0]:", "if False:"),
    ("failed call not recorded", *KERNEL, 'invalid="call", over="ignore"', 'invalid="ignore", over="ignore"'),
    # the solver's start at the top singular pair of the whitened gauge
    (
        "start at the smallest singular pair", *SOLVER,
        "top = u[:, s >= s[0] * (1.0 - _TOP_TOL)]",
        "top = u[:, s <= s[-1] * (1.0 + _TOP_TOL)]",
    ),
    ("repeated sigma_max ignored", *SOLVER, "top = u[:, s >= s[0] * (1.0 - _TOP_TOL)]", "top = u[:, :1]"),
    (
        "no fallback for a vanishing projection", *SOLVER,
        "if norm > _TOP_TOL * np.linalg.norm(ones) else",
        "if True else",
    ),
    # the read-off of the weights from that pair onto the gauge surface
    ("start left unnormalized", *SOLVER, "u0 = u0 / norm if", "u0 = u0 if"),
    ("Alice's weights not divided by the root", *SOLVER, "a = (iq @ u0) / root", "a = iq @ u0"),
    ("Bob's vector not divided by sigma_max", *SOLVER, "(g.T @ u0) / sigma", "g.T @ u0"),
    # the two-mode reduction's parameters, the oracle's standard form
    (
        "parties swapped in the reduction", *REDUCTION,
        "b1=max(w[0, 0], 0.5), b2=max(w[2, 2], 0.5)",
        "b1=max(w[2, 2], 0.5), b2=max(w[0, 0], 0.5)",
    ),
    (
        "local variance not clamped", *REDUCTION,
        "b1=max(w[0, 0], 0.5), b2=max(w[2, 2], 0.5)",
        "b1=w[0, 0], b2=w[2, 2]",
    ),
)


def _copy(dest: Path) -> None:
    """The parts of the repository the tests need, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _passes(copy: Path, tests) -> bool:
    """Whether the test files pass against the copy's source."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def main() -> int:
    sources = {target: (ROOT / target).read_text() for _, target, *_ in MUTANTS}
    stale = [f"{name} ({target})" for name, target, _, text, _ in MUTANTS if sources[target].count(text) != 1]
    if stale:
        print(f"mutant text not found exactly once in its file: {', '.join(stale)}")
        return 2
    tests = sorted({t for _, _, names, *_ in MUTANTS for t in names})
    with tempfile.TemporaryDirectory(prefix="cvwitness-mutate-") as tmp:
        copy = Path(tmp) / "repo"
        _copy(copy)
        if not _passes(copy, tests):
            print(f"the unmutated copy fails {' or '.join(tests)}")
            return 2
        survivors = []
        for name, target, names, text, replacement in MUTANTS:
            start = time.perf_counter()
            (copy / target).write_text(sources[target].replace(text, replacement))
            survived = _passes(copy, names)
            (copy / target).write_text(sources[target])
            print(f"{'SURVIVED' if survived else 'killed  '}  {name}  ({time.perf_counter() - start:.1f} s)")
            if survived:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
