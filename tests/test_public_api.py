"""The package's public surface: the names it exports and the README's
library example."""

import contextlib
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import cvwitness

README = Path(__file__).resolve().parent.parent / "README.md"

# every public name of the package but its submodules; a change here is a
# change of the API
PUBLIC_NAMES = {
    "CorrelationVerdict", "CovarianceMatrix", "EprWeights", "GeneratorSpec", "GridSpec",
    "MinimizationResult", "Partition",
    "StackVerdicts", "StandardForm", "TwoModeStandardParams",
    "UnsteerabilityCheck", "ValidationReport", "VerdictConsistencyError", "aitken_factorize",
    "brute_force_min", "certify", "certify_many", "check_unsteerable_ab", "check_unsteerable_ba",
    "euler_identity_terms", "find_one_way_example", "min_separability_sum_numeric",
    "min_steering_sum_ab", "min_steering_sum_ab_numeric", "min_steering_sum_ba_numeric",
    "noisy_tmsv", "partition", "random_standard",
    "random_two_mode_params", "reid_product", "schur_complement", "separability_sum",
    "sign_rule_holds", "split_standard", "stack_verdicts",
    "standard_form_reduce_two_mode", "steering_sum_ab", "steering_sum_ba",
    "thermal", "tmsv", "two_mode_symplectic_pair",
    "two_mode_symplectic_pair_pt", "uncertainty_sum_check", "vacuum", "validate_bona_fide",
    "validate_stack", "variance_p", "variance_q",
}

# the printed lines the quick start's comments show, in order; a number
# ending in "..." is rounded to the digits shown
QUICK_START_OUTPUT = (
    "True True",
    "0.104994...",
    "0.183940...",
    "[(True, True), (True, False), (False, False)]",
)


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(cvwitness).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 48
    assert exported == PUBLIC_NAMES


def test_missing_lapack_gufunc_fails_import_by_name():
    # the kernel binds two gufuncs of numpy's private numpy.linalg._umath_linalg;
    # a numpy without one of them must fail the import with a message that
    # names it, not with a bare AttributeError
    code = (
        "import numpy.linalg._umath_linalg as m\n"
        "del m.eigvalsh_lo\n"
        "try:\n"
        "    import cvwitness\n"
        "except ImportError as err:\n"
        "    print(err)\n"
    )
    src = str(Path(cvwitness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    message = run.stdout.strip()
    assert "numpy.linalg._umath_linalg.eigvalsh_lo" in message
    assert np.__version__ in message and "README" in message and "2.4.6" in message


def test_readme_quick_start_runs():
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    for line, want in zip(printed, QUICK_START_OUTPUT):
        assert want in block, f"the quick start no longer shows {want!r}"
        if want.endswith("..."):
            shown = want[:-3]
            digits = len(shown.partition(".")[2])
            assert f"{float(line):.{digits}f}" == shown, (line, want)
        else:
            assert line == want
    assert len(printed) == len(QUICK_START_OUTPUT) + 2
