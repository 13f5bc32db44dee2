"""Freeze ``cvwitness sweep`` CSVs, written to ``generator_sweeps.json``
next to this file.

``tests/test_cli.py::TestSweep::test_generator_sweeps_byte_identical``
holds later versions of the generators and of ``certify_many`` to these
bytes, so run this only on the commit whose output is to be frozen:

    PYTHONPATH=src python tests/data/freeze_sweeps.py

The cases are one ``tmsv`` sweep to r = 12; four ``noisy_tmsv`` sweeps,
with the noise on either side, over nbar and over r (nbar up to 1e6);
``random_standard`` over seeds for 3, 4 and 8 modes; and a 3-mode
``thermal`` sweep over nbar.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from cvwitness import cli

HERE = Path(__file__).resolve().parent

CASES = [
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


def sweep_csv(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["sweep", *argv])
    if code != 0:
        raise SystemExit(f"sweep {' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> None:
    entries = [{"argv": argv, "csv": sweep_csv(argv)} for argv in CASES]
    with open(HERE / "generator_sweeps.json", "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
