"""Freeze ``certify``'s exact output, written to ``certify_pins.json`` next
to this file: every flag, every ``marginal_*`` marker and the
``float.hex`` string of every witness.

``tests/test_golden.py::test_certify_pins`` holds later versions of the
certification kernel to these bits, so run this only on the commit whose
output is to be frozen:

    PYTHONPATH=src python tests/data/freeze_certify.py

The inputs are the 151 CMs of ``golden.json``, at its tolerance, and
``random_standard(n, seed=s)`` for n = 2..8 and s = 0..3, at the default
tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path

from cvwitness import CovarianceMatrix, certify, random_standard

HERE = Path(__file__).resolve().parent

RANDOM_STANDARD = [(n, seed) for n in range(2, 9) for seed in range(4)]


def inputs() -> list[tuple[str, CovarianceMatrix, float | None]]:
    """(label, CM, tol) for every pinned input, in file order."""
    golden = json.loads((HERE / "golden.json").read_text())
    cases = [(e["label"], CovarianceMatrix.from_dict(e["cm"]), golden["tol"]) for e in golden["entries"]]
    cases += [(f"random_standard-{n}-{seed}", random_standard(n, seed=seed), None)
              for n, seed in RANDOM_STANDARD]
    return cases


def exact(verdict) -> dict:
    """A verdict's ``to_dict()`` with each witness as its ``float.hex``."""
    out = verdict.to_dict()
    out["witnesses"] = {key: value.hex() for key, value in out["witnesses"].items()}
    return out


def main() -> None:
    entries = [{"label": label, "verdict": exact(certify(cm, tol=tol))} for label, cm, tol in inputs()]
    with open(HERE / "certify_pins.json", "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")


if __name__ == "__main__":
    main()
