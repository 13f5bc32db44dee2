"""Mutation check of the verdict rules and the dead band.

Each mutant is one textual edit of src/cvwitness/covariance.py: a test
of ``_verdict_rules`` made strict, a marker made strict, Alice's
B->A threshold 4^-N read as 1/4, or the band narrowed or set to tol
alone. Each is applied in a temporary copy of the repository, never in
the checkout, and tests/test_criteria.py and tests/test_golden.py run
against it. A mutant survives when both files still pass.

Usage, from anywhere:

    python tests/data/mutate.py

It prints one line per mutant and the survivors, and exits 0 when every
mutant is killed, 1 when any survives, and 2 when the unmutated copy
fails or a mutant's text is no longer found exactly once. Standard
library only; it runs the tests with the interpreter that runs it.
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
TARGET = Path("src/cvwitness/covariance.py")
TESTS = ("tests/test_criteria.py", "tests/test_golden.py")

# (name, text, replacement): each text must occur exactly once in TARGET
MUTANTS = (
    ("rs test strict", "rs_ok = w.min_rs_eig >= -band", "rs_ok = w.min_rs_eig > -band"),
    ("A->B matrix test strict", "ab = (w.rs_ab >= -band,", "ab = (w.rs_ab > -band,"),
    ("A->B det test strict", "w.det_ratio_ab >= 0.25 - band)", "w.det_ratio_ab > 0.25 - band)"),
    ("B->A matrix test strict", "ba = (w.rs_ba >= -band,", "ba = (w.rs_ba > -band,"),
    ("B->A det test strict", "w.det_ratio_ba >= 0.25**n_alice - band", "w.det_ratio_ba > 0.25**n_alice - band"),
    ("PPT test strict", "ppt = w.nu_min_pt >= 0.5 - band", "ppt = w.nu_min_pt > 0.5 - band"),
    ("sep_plus test strict", "(sep_plus >= 1.0 - band)", "(sep_plus > 1.0 - band)"),
    ("sep_minus test strict", "(sep_minus >= 1.0 - band)", "(sep_minus > 1.0 - band)"),
    ("B->A det threshold 1/4", "0.25**n_alice - band", "0.25 - band"),
    ("A->B det marker strict", "abs(w.det_ratio_ab - 0.25) <= band", "abs(w.det_ratio_ab - 0.25) < band"),
    ("A->B matrix marker strict", "abs(w.rs_ab) <= band", "abs(w.rs_ab) < band"),
    ("PPT marker strict", "abs(w.nu_min_pt - 0.5) <= band", "abs(w.nu_min_pt - 0.5) < band"),
    ("B->A marker strict", "abs(w.rs_ba) <= band", "abs(w.rs_ba) < band"),
    ("band constant halved", "_BAND_PER_NORM = 8.0 *", "_BAND_PER_NORM = 4.0 *"),
    ("one-CM band is tol", "return max(tol, _BAND_PER_NORM * float(np.abs(m).max()))", "return tol"),
    (
        "stack band is tol",
        "band = np.maximum(tol, _BAND_PER_NORM * np.abs(v).max(axis=(1, 2)))",
        "band = tol",
    ),
)


def _copy(dest: Path) -> None:
    """The parts of the repository the tests need, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _passes(copy: Path) -> bool:
    """Whether both test files pass against the copy's source."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def main() -> int:
    source = (ROOT / TARGET).read_text()
    stale = [name for name, text, _ in MUTANTS if source.count(text) != 1]
    if stale:
        print(f"mutant text not found exactly once in {TARGET}: {', '.join(stale)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="cvwitness-mutate-") as tmp:
        copy = Path(tmp) / "repo"
        _copy(copy)
        if not _passes(copy):
            print(f"the unmutated copy fails {' or '.join(TESTS)}")
            return 2
        survivors = []
        for name, text, replacement in MUTANTS:
            start = time.perf_counter()
            (copy / TARGET).write_text(source.replace(text, replacement))
            survived = _passes(copy)
            print(f"{'SURVIVED' if survived else 'killed  '}  {name}  ({time.perf_counter() - start:.1f} s)")
            if survived:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
