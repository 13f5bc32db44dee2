"""Freeze ``brute_force_min`` values, written as ``float.hex`` strings to
``sampler_pins.json`` next to this file.

``tests/test_optimize.py::TestBruteForce::test_pinned_values`` holds later
versions of the sampler to these exact values, so run this only on the
commit whose output is to be frozen:

    PYTHONPATH=src python tests/data/freeze_sampler.py

The forms are ``random_standard(n, seed=n)`` for n = 2, 3, 5 and 8, each
with all four functionals. Budgets 3, 513, 2047 and 2049 end inside the
first round, inside the second, one short of a block and one past it;
each runs with sampler seeds 0 and 1. The default budget of 100 000 runs
once per form and functional, with seeds 0 and 1 alternating over the
functionals, to keep the test near a second.
"""

from __future__ import annotations

import json
from pathlib import Path

from cvwitness import GridSpec, brute_force_min, random_standard, split_standard
from cvwitness.optimize import FUNCTIONALS

HERE = Path(__file__).resolve().parent

CASES = [
    {"n": n, "functional": functional, "samples": samples, "seed": seed}
    for n in (2, 3, 5, 8)
    for i, functional in enumerate(FUNCTIONALS)
    for samples, seeds in ((3, (0, 1)), (513, (0, 1)), (2047, (0, 1)), (2049, (0, 1)), (100_000, (i % 2,)))
    for seed in seeds
]


def sample(case: dict) -> float:
    sf = split_standard(random_standard(case["n"], seed=case["n"]))
    return brute_force_min(sf, case["functional"], GridSpec(case["samples"], seed=case["seed"]))


def main() -> None:
    entries = [{**case, "value": sample(case).hex()} for case in CASES]
    with open(HERE / "sampler_pins.json", "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")


if __name__ == "__main__":
    main()
