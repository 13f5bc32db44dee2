import csv
import io
import json
import warnings

import numpy as np
import pytest

from cvwitness import (
    CovarianceMatrix,
    GeneratorSpec,
    certify,
    find_one_way_example,
    noisy_tmsv,
    random_standard,
    thermal,
    tmsv,
    vacuum,
)
from cvwitness import cli
from cvwitness.cli import main, render_json
from cvwitness.covariance import local_direct_sum, one_mode_rotation, one_mode_squeeze
from cvwitness.criteria import WITNESS_KEYS
from cvwitness.optimize import FUNCTIONALS
from conftest import noisy_tmsv_phase_diagram, product_grid_member, rotated, rotated_and_squeezed
import freeze


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cm(tmp_path, cm, name="cm.json"):
    path = tmp_path / name
    cm.save(path)
    return str(path)


def locally_squeezed(cm, party="A", theta=0.7, z=0.3):
    """A two-mode cm taken off standard form by a squeeze z and a
    rotation theta of one party's mode."""
    s = one_mode_rotation(theta) @ one_mode_squeeze(z)
    s = local_direct_sum([s, np.eye(2)] if party == "A" else [np.eye(2), s])
    return CovarianceMatrix(s @ cm.matrix @ s.T)


# two-mode CMs and the (party, theta, z) of the local squeeze that takes
# each off standard form. Squeezed by 6, the vacuum's Bob variance
# reduces to 0.4999999925 in doubles, which the reduction clamps to 1/2;
# noisy_tmsv(0.7, 0.3, "B") has b_A < b_B, which pins the party order of
# the reduced form
OFF_STANDARD = {
    "tmsv-0.5": (tmsv(0.5), "A", 0.7, 0.3),
    "vacuum-bob-z6": (vacuum(2), "B", 0.1, 6.0),
    "tmsv-0.5-bob-z6": (tmsv(0.5), "B", 0.1, 6.0),
    "noisy_tmsv-B-alice-z5": (noisy_tmsv(0.7, 0.3, "B"), "A", 0.7, 5.0),
}


def standard_cm(nu, seed=0):
    """Standard-form CM with V_q = S_q D S_q^T and V_p = S_q^-T D S_q^-1
    for D = diag(nu): its symplectic spectrum is nu, physical or not."""
    n = len(nu)
    sq = np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))
    sp = np.linalg.inv(sq).T
    v = np.zeros((2 * n, 2 * n))
    v[0::2, 0::2] = sq @ np.diag(nu) @ sq.T
    v[1::2, 1::2] = sp @ np.diag(nu) @ sp.T
    return CovarianceMatrix(v)


class TestGen:
    def test_vacuum(self, capsys, tmp_path):
        out_path = tmp_path / "vac.json"
        code, _, _ = run(capsys, "gen", "vacuum", "--n", "2", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["n_modes"] == 2
        np.testing.assert_allclose(np.asarray(data["matrix"]), 0.5 * np.eye(4))

    def test_stdout_json_parses(self, capsys):
        code, out, _ = run(capsys, "gen", "tmsv", "--r", "0.5")
        assert code == 0
        cm = CovarianceMatrix.from_dict(json.loads(out))
        np.testing.assert_allclose(cm.matrix, tmsv(0.5).matrix)

    def test_thermal_list(self, capsys):
        code, out, _ = run(capsys, "gen", "thermal", "--nbar", "0.5,0.25")
        assert code == 0
        m = np.asarray(json.loads(out)["matrix"])
        np.testing.assert_allclose(np.diag(m), [1.0, 1.0, 0.75, 0.75])

    def test_thermal_list_must_match_n(self, capsys):
        # used to write a 2-mode CM and exit 0
        code, out, err = run(capsys, "gen", "thermal", "--n", "3", "--nbar", "0.5,0.25")
        assert code == 1
        assert out == "" and "2 occupations for 3 modes" in err
        code, out, _ = run(capsys, "gen", "thermal", "--n", "3", "--nbar", "0.5,0.25,0")
        assert code == 0
        assert np.array_equal(
            np.diag(json.loads(out)["matrix"]), [1.0, 1.0, 0.75, 0.75, 0.5, 0.5]
        )

    def test_thermal_single_nbar_fills_n_modes(self, capsys):
        code, out, _ = run(capsys, "gen", "thermal", "--n", "3", "--nbar", "0.5")
        assert code == 0
        assert np.array_equal(np.diag(json.loads(out)["matrix"]), [1.0] * 6)
        code, out, _ = run(capsys, "gen", "thermal", "--nbar", "0.5")
        assert code == 0
        assert json.loads(out)["n_modes"] == 1

    def test_random_standard_seeded(self, capsys):
        code, out1, _ = run(capsys, "gen", "random_standard", "--n", "3", "--seed", "7")
        code2, out2, _ = run(capsys, "gen", "random_standard", "--n", "3", "--seed", "7")
        assert code == code2 == 0
        assert out1 == out2

    def test_unknown_kind_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "cat_state")
        assert code == 1

    def test_negative_seed_exit_1(self, capsys):
        # used to fail in numpy with "expected non-negative integer"
        code, out, err = run(capsys, "gen", "random_standard", "--seed", "-1")
        assert code == 1
        assert out == "" and "seed" in err

    @pytest.mark.parametrize("kind", ["tmsv", "noisy_tmsv"])
    @pytest.mark.parametrize("flags", [["--n", "5"]], ids=["n"])
    def test_two_mode_kind_rejects_other_partition(self, capsys, kind, flags):
        # used to write a 2-mode CM and exit 0
        code, out, err = run(capsys, "gen", kind, *flags)
        assert code == 1
        assert out == "" and "error:" in err and kind in err
        code, out, _ = run(capsys, "gen", kind, "--n", "2")
        assert code == 0 and json.loads(out)["n_modes"] == 2

    def test_n_alice_flag_usage_error(self, capsys):
        # Bob holds the last mode: the partition is no option
        code, out, err = run(capsys, "gen", "random_standard", "--n", "3", "--n-alice", "1")
        assert code == 1
        assert out == "" and "unrecognized arguments: --n-alice" in err
        code, out, _ = run(capsys, "gen", "random_standard", "--n", "3")
        assert code == 0 and json.loads(out)["n_alice"] == 2


class TestCertify:
    def test_tmsv_report(self, capsys, tmp_path):
        path = write_cm(tmp_path, tmsv(0.5))
        code, out, _ = run(capsys, "certify", path)
        assert code == 0
        report = json.loads(out)
        verdict = report["verdict"]
        assert verdict["physical"] is True
        assert verdict["ppt"] is False
        assert verdict["steerable_a_to_b"] is True
        assert verdict["steerable_b_to_a"] is True
        assert verdict["witnesses"]["det_ratio_ab"] == pytest.approx(
            1 / (4 * np.cosh(1.0) ** 2), abs=1e-9
        )
        assert report["config"]["tol"] == 1e-9
        assert report["input_descriptor"] == path

    def test_non_physical_exit_2(self, capsys, tmp_path):
        path = write_cm(tmp_path, CovarianceMatrix(0.25 * np.eye(4)))
        code, out, _ = run(capsys, "certify", path)
        assert code == 2
        assert json.loads(out)["verdict"]["physical"] is False

    @pytest.mark.parametrize(
        "cm, want_code, want_keys",
        [
            # the Cholesky factor fails: min_rs_eig is the only witness
            pytest.param(tmsv(11.0), 2, ["min_rs_eig"], id="factor-fail"),
            # min_rs_eig rounds to -2.8e-9, past tol but inside the band
            pytest.param(tmsv(8.5), 0, list(WITNESS_KEYS), id="tmsv-8.5"),
            # an entry of 1e308 once overflowed to inf on reading, and a
            # block determinant of 1e616 once gave a NaN V/V_B eigenvalue
            pytest.param(CovarianceMatrix(np.diag([1e308, 1.0, 1.0, 1.0])), 0, None, id="huge"),
            pytest.param(CovarianceMatrix(np.diag([1e308, 1e308, 1.0, 1.0])), 0, None, id="huge-alice"),
            # a one-mode CM has no bipartition
            pytest.param(vacuum(1), 1, None, id="one-mode"),
        ],
    )
    def test_exit_code_and_witnesses(self, capsys, tmp_path, cm, want_code, want_keys):
        code, out, _ = run(capsys, "certify", write_cm(tmp_path, cm))
        assert code == want_code
        if code != 1:
            witnesses = json.loads(out)["verdict"]["witnesses"]
            assert want_keys is None or list(witnesses) == want_keys

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "certify", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "certify", str(path))
        assert code == 1

    @pytest.mark.parametrize("entry", ["0.5", {}, True], ids=["string", "object", "bool"])
    def test_non_numeric_entry_exit_1(self, capsys, tmp_path, entry):
        # a "0.5" entry used to read as 0.5 and a true as 1, each certifying
        # with exit 0, and an object entry escaped main as a TypeError
        record = vacuum(2).to_dict()
        record["matrix"][0][0] = entry
        path = tmp_path / "non-numeric.json"
        path.write_text(json.dumps(record))
        code, out, err = run(capsys, "certify", str(path))
        assert code == 1
        assert out == "" and err.startswith("error:") and "non-numeric entries" in err
        assert "Traceback" not in err

    def test_dimension_mismatch_exit_1(self, capsys, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({
            "n_modes": 3,
            "n_alice": 2,
            "ordering": "interleaved",
            "matrix": np.eye(4).tolist(),
        }))
        code, _, err = run(capsys, "certify", str(path))
        assert code == 1

    def test_other_partition_exit_1(self, capsys, tmp_path):
        record = random_standard(3, seed=1).to_dict()
        record["n_alice"] = 1
        path = tmp_path / "alice1.json"
        path.write_text(json.dumps(record))
        code, out, err = run(capsys, "certify", str(path))
        assert code == 1
        assert out == "" and "n_alice" in err

    def test_non_standard_multimode_matches_parent(self, capsys, tmp_path, rng):
        # verdicts are local invariants: no standard form is needed
        for n in (3, 4, 5):
            parent = random_standard(n, seed=4)
            path = write_cm(tmp_path, rotated_and_squeezed(parent, rng))
            code, out, _ = run(capsys, "certify", path)
            assert code == 0
            got = json.loads(out)["verdict"]
            want = certify(parent).to_dict()
            for flag in ("physical", "ppt", "steerable_a_to_b", "steerable_b_to_a"):
                assert got[flag] == want[flag]

    def test_two_mode_rotated_auto_reduces(self, capsys, tmp_path):
        cm = rotated(tmsv(0.5), [0.7, 1.1])
        path = write_cm(tmp_path, cm)
        code, out, _ = run(capsys, "certify", path)
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["steerable_a_to_b"] is True

    def test_byte_identical_reports_up_to_timing(self, capsys, tmp_path):
        path = write_cm(tmp_path, tmsv(0.3))
        _, out1, _ = run(capsys, "certify", path)
        _, out2, _ = run(capsys, "certify", path)
        strip = lambda s: [l for l in s.splitlines() if '"timing_ms"' not in l]
        assert strip(out1) == strip(out2)

    def test_csv_format(self, capsys, tmp_path):
        path = write_cm(tmp_path, tmsv(0.5))
        code, out, _ = run(capsys, "certify", path, "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["physical"] == "true"
        assert cols["ppt"] == "false"
        assert float(cols["det_ratio_ab"]) == pytest.approx(0.104994, abs=1e-6)
        assert "." in cols["det_ratio_ab"] and "," not in cols["det_ratio_ab"]

    @pytest.mark.parametrize("name", ['a,b.json', 'say "hi".json'])
    def test_csv_quotes_descriptor(self, capsys, tmp_path, name):
        # a comma in the path used to give the row one cell more than the header
        path = write_cm(tmp_path, tmsv(0.5), name=name)
        code, out, _ = run(capsys, "certify", path, "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row)
        assert row[header.index("input_descriptor")] == path
        assert row[header.index("ppt")] == "false"

    def test_tol_flag_and_env(self, capsys, tmp_path, monkeypatch):
        # --tol is the one way to set the tolerance: the CVW_DEFAULT_TOL
        # variable that once also set it is ignored
        path = write_cm(tmp_path, tmsv(0.5))
        _, out, _ = run(capsys, "certify", path, "--tol", "1e-6")
        assert json.loads(out)["config"]["tol"] == 1e-6
        strip = lambda s: [l for l in s.splitlines() if '"timing_ms"' not in l]
        code, plain, _ = run(capsys, "certify", path)
        monkeypatch.setenv("CVW_DEFAULT_TOL", "nan")
        code_env, out, err = run(capsys, "certify", path)
        assert code == code_env == 0 and err == ""
        assert strip(out) == strip(plain)
        assert json.loads(out)["config"]["tol"] == 1e-9

    def test_vacuum_file(self, capsys, tmp_path):
        path = write_cm(tmp_path, vacuum(2))
        code, out, _ = run(capsys, "certify", path)
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["steerable_a_to_b"] is False
        assert verdict["steerable_b_to_a"] is False

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_flag_exit_1(self, capsys, tmp_path, bad):
        path = write_cm(tmp_path, tmsv(0.5))
        code, out, err = run(capsys, "certify", path, f"--tol={bad}")
        assert code == 1
        assert out == "" and "--tol" in err

    @pytest.mark.parametrize(
        "flag", ["--opt-tol", "--max-iters", "--max-restarts", "--positivity-floor", "--seed"]
    )
    def test_optimizer_flags_rejected(self, capsys, tmp_path, flag):
        # no command takes the deleted minimizer settings, and --seed seeds
        # the oracle's sampler, which certify does not run
        path = write_cm(tmp_path, tmsv(0.5))
        code, _, _ = run(capsys, "certify", path, flag, "3")
        assert code == 1

    def test_report_round_trip(self, capsys, tmp_path):
        path = write_cm(tmp_path, tmsv(0.5))
        _, out, _ = run(capsys, "certify", path)
        report = json.loads(out)
        assert list(report) == ["input_descriptor", "verdict", "timing_ms", "config"]
        assert certify(tmsv(0.5)).to_dict() == report["verdict"]
        assert render_json(report) + "\n" == out


class TestSweep:
    def test_tmsv_squeezing_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "tmsv", "--param", "r", "--range", "0,1,11"
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert lines[1:] and len(lines) == 12
        idx = header.index("min_symplectic_eig_pt")
        for line in lines[1:]:
            cells = line.split(",")
            r = float(cells[0])
            assert float(cells[idx]) == pytest.approx(np.exp(-2 * r) / 2, abs=1e-9)
        # ppt flips as soon as r leaves zero; the first steerable row is
        # annotated as a crossing
        crossings = [line.split(",")[-1] for line in lines[1:]]
        assert any("ppt" in c for c in crossings)

    @pytest.mark.parametrize("kind", ["tmsv", "noisy_tmsv"])
    def test_two_mode_kind_rejects_other_partition(self, capsys, kind):
        # used to print 2-mode rows and exit 0
        code, out, err = run(
            capsys, "sweep", kind, "--n", "4", "--param", "r", "--range", "0,1,2"
        )
        assert code == 1
        assert out == "" and "error:" in err and "n_modes = 4" in err

    def test_single_step(self, capsys):
        code, out, _ = run(capsys, "sweep", "tmsv", "--param", "r", "--range", "0.5,0.9,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.5

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.7, 1.0, 2.0, 3.0])
    def test_crossings_bracket_phase_diagram(self, capsys, r, side):
        # each flag crosses once on nbar in [0, 2], between two rows that
        # bracket its closed-form boundary
        code, out, _ = run(
            capsys, "sweep", "noisy_tmsv", "--r", str(r), "--side", side,
            "--param", "nbar", "--range", "0,2,2001",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for flag, (n_c, margin) in noisy_tmsv_phase_diagram(r, side, 1e-9).items():
            crossed = [i for i, row in enumerate(rows) if flag in row["crossings"].split(";")]
            assert len(crossed) == 1, flag
            lo, hi = float(rows[crossed[0] - 1]["nbar"]), float(rows[crossed[0]]["nbar"])
            assert lo - margin <= n_c <= hi + margin, (flag, lo, hi, n_c)

    def test_noisy_tmsv_one_way_window(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "noisy_tmsv", "--r", "0.7", "--side", "A",
            "--param", "nbar", "--range", "0,1,21",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        i_ab = header.index("steerable_a_to_b")
        i_ba = header.index("steerable_b_to_a")
        rows = [line.split(",") for line in lines[1:]]
        one_way = [r for r in rows if r[i_ab] == "true" and r[i_ba] == "false"]
        # the analytic window (1/2 - 1/(2 cosh 1.4), 1/2) contains the grid
        # points 0.30 .. 0.45
        assert len(one_way) == 4
        lo = 0.5 - 1 / (2 * np.cosh(1.4))
        for r in one_way:
            assert lo < float(r[0]) < 0.5

    def test_bad_range_exit_1(self, capsys):
        code, _, err = run(capsys, "sweep", "tmsv", "--param", "r", "--range", "0;1;5")
        assert code == 1

    def test_non_physical_row_masked(self, capsys, monkeypatch):
        # a non-physical row has no flags, so the rows around it cross on
        # every flag. Unmasked, diag(1/2, 1/2, 0.3, 0.3), which factors,
        # reads as the one-way example beside it does, and nothing would cross
        one_way = find_one_way_example().matrix
        stack = np.stack([one_way, np.diag([0.5, 0.5, 0.3, 0.3]), one_way])
        monkeypatch.setattr(GeneratorSpec, "build_stack", lambda self, param, values: stack)
        code, out, _ = run(capsys, "sweep", "tmsv", "--param", "r", "--range", "0,2,3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["physical"], row["steerable_a_to_b"]) for row in rows] == [
            ("true", "true"), ("false", ""), ("true", "true")]
        every = "ppt;steerable_a_to_b;steerable_b_to_a"
        assert [row["crossings"] for row in rows] == ["", every, every]

    def test_one_mode_exit_1(self, capsys):
        # the kernel takes one-mode stacks, so stack_verdicts is the sweep's
        # only bipartition check
        code, _, err = run(capsys, "sweep", "thermal", "--n", "1", "--param", "nbar", "--range", "0,1,3")
        assert code == 1 and "error" in err

    def test_zero_steps_exit_1(self, capsys):
        code, out, err = run(capsys, "sweep", "tmsv", "--param", "r", "--range", "0,1,0")
        assert code == 1
        assert out == "" and "--range needs at least one step" in err

    @pytest.mark.parametrize("value_range", ["inf,1,2", "0,nan,3", "1,-inf,2"])
    def test_non_finite_range_exit_1(self, capsys, value_range):
        # used to warn twice from linspace and then refuse a non-finite member
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "tmsv", "--param", "r", "--range", value_range)
        assert code == 1
        assert out == "" and f"bad --range {value_range!r}" in err
        assert "RuntimeWarning" not in err

    def test_range_starting_with_minus(self, capsys):
        # a separate argument starting with "-" reads as an option, so such
        # a range needs the "=" form, and the help says so
        code, _, err = run(capsys, "sweep", "tmsv", "--param", "r", "--range", "-1,1,3")
        assert code == 1 and "--range: expected one argument" in err
        code, _, err = run(capsys, "sweep", "tmsv", "--param", "r", "--range=-1,1,3")
        assert code == 1 and "squeezing parameter" in err
        code, out, _ = run(capsys, "sweep", "--help")
        assert code == 0 and "--range=LO,HI,STEPS" in out

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1", "--range=0,1,2"], ["--range=-1,1,3"]], ids=["fixed", "swept"]
    )
    def test_negative_seed_exit_1(self, capsys, flags):
        code, out, err = run(capsys, "sweep", "random_standard", "--param", "seed", *flags)
        assert code == 1
        assert out == "" and "seed" in err

    @pytest.mark.parametrize(
        "kind, param, reads",
        [("tmsv", "foo", "r"), ("tmsv", "nbar", "r"), ("noisy_tmsv", "seed", "r, nbar"),
         ("random_standard", "r", "seed"), ("thermal", "r", "nbar"),
         ("vacuum", "r", "no parameter")],
    )
    def test_ignored_param_exit_1(self, capsys, kind, param, reads):
        # such a sweep used to print identical rows and exit 0
        code, out, err = run(capsys, "sweep", kind, "--param", param, "--range", "0,1,3")
        assert code == 1
        assert out == "" and f"reads {reads}" in err

    def test_alice_partition_exit_1(self, capsys):
        # Bob holds the last mode: the partition is no option
        code, out, err = run(
            capsys, "sweep", "random_standard", "--n", "4", "--n-alice", "2",
            "--param", "seed", "--range", "0,3,4",
        )
        assert code == 1
        assert out == "" and "unrecognized arguments: --n-alice" in err

    def test_non_integer_seed_range_exit_1(self, capsys):
        # rows used to show seed 3.3333333333333335 beside the verdict of seed 3
        code, out, err = run(
            capsys, "sweep", "random_standard", "--param", "seed", "--range", "0,10,4"
        )
        assert code == 1
        assert out == "" and "not integers" in err

    @pytest.mark.parametrize(
        "argv",
        [["tmsv", "--param", "r", "--range", "0,12,25"],
         ["noisy_tmsv", "--r", "0.7", "--param", "nbar", "--range", "0,1,21"],
         ["random_standard", "--n", "4", "--param", "seed", "--range", "0,9,10"],
         ["tmsv", "--param", "r", "--range", "9.8,10,21"]],
    )
    def test_csv_matches_one_at_a_time(self, capsys, argv):
        # the CSV rendered here from certify(cm) of each row's own CM:
        # empty witness and flag cells on a non-physical row, and a crossing
        # wherever a flag differs from the row above, None != bool included.
        # tmsv up to r = 12 crosses into non-physical rows; on 9.8..10, rows
        # refused by the RS band sit next to rows whose factor fails, and
        # their unprinted flags differ
        code, batched, _ = run(capsys, "sweep", *argv)
        assert code == 0
        args = cli._PARSER.parse_args(["sweep", *argv])
        lo, hi, steps = args.value_range.split(",")
        keys = ("min_symplectic_eig_pt", "steer_sum_ab_min", "det_ratio_ab")
        flag_keys = ("ppt", "steerable_a_to_b", "steerable_b_to_a")
        lines = [",".join([args.param, *keys, "physical", *flag_keys, "crossings"])]
        previous = None
        for value in np.linspace(float(lo), float(hi), int(steps)):
            params = {"r": args.r, "nbar": args.nbar, "side": args.side, "seed": args.seed}
            params[args.param] = int(value) if args.param == "seed" else value
            v = certify(GeneratorSpec(args.kind, args.n, params).build()).to_dict()
            flags = [v[key] for key in flag_keys]
            cells = [format(float(value), ".17g")]
            cells += [format(v["witnesses"][key], ".17g") if v["physical"] else "" for key in keys]
            cells.append("true" if v["physical"] else "false")
            cells += ["" if flag is None else str(flag).lower() for flag in flags]
            crossed = [] if previous is None else [
                key for key, was, now in zip(flag_keys, previous, flags) if was != now
            ]
            cells.append(";".join(crossed))
            previous = flags
            lines.append(",".join(cells))
        assert batched == "\n".join(lines) + "\n"

    def test_generator_sweeps_byte_identical(self, capsys):
        # CSVs written by tests/data/freeze.py when each row was built and
        # validated alone; building the rows as one stack must not move a
        # digit
        assert freeze.render("sweeps") == (freeze.HERE / "generator_sweeps.json").read_text()


class TestOracle:
    def test_tmsv_steer_ab_agreement(self, capsys, tmp_path):
        path = write_cm(tmp_path, tmsv(0.5))
        code, out, _ = run(
            capsys, "oracle", path, "--functional", "steer_ab", "--samples", "60000"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["agreement_numeric_brute"] is True
        assert rec["agreement_closed_form"] is True
        assert rec["numeric_min"] == pytest.approx(1 / np.cosh(1.0), abs=1e-10)
        assert rec["closed_form"] == pytest.approx(1 / np.cosh(1.0), abs=1e-10)

    def test_vacuum_sep_plus_all_one(self, capsys, tmp_path):
        path = write_cm(tmp_path, vacuum(2))
        code, out, _ = run(
            capsys, "oracle", path, "--functional", "sep_plus", "--samples", "40000"
        )
        assert code == 0
        rec = json.loads(out)
        for key in ("numeric_min", "brute_force_min", "closed_form"):
            assert rec[key] == pytest.approx(1.0, abs=1e-4)

    def test_random_standard_sep_plus(self, capsys, tmp_path):
        path = write_cm(tmp_path, random_standard(3, seed=7))
        code, out, _ = run(
            capsys, "oracle", path, "--functional", "sep_plus", "--samples", "100000"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["agreement_numeric_brute"] is True
        assert rec["numeric_vs_brute"] < 1e-3
        # was null for every n >= 3
        assert rec["agreement_closed_form"] is True
        assert rec["closed_form"] == pytest.approx(rec["numeric_min"], abs=1e-12)

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    @pytest.mark.parametrize("n", [3, 4])
    def test_multimode_closed_form_every_functional(self, capsys, tmp_path, n, functional):
        # a small budget: the sampler's agreement is not what is tested
        path = write_cm(tmp_path, random_standard(n, seed=11))
        code, out, _ = run(
            capsys, "oracle", path, "--functional", functional,
            "--samples", "2000", "--oracle-tol", "1",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["closed_form"] is not None
        assert rec["agreement_closed_form"] is True

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    def test_large_thermal_noise_agrees(self, capsys, tmp_path, functional):
        # every minimum is 2e10 + 1, and the default --oracle-tol is an
        # absolute 1e-3: the sampler's steps, relative to its unit-norm
        # incumbents, must land on the minimum at this scale too
        path = write_cm(tmp_path, thermal([1e10, 1e10]))
        code, out, _ = run(capsys, "oracle", path, "--functional", functional)
        assert code == 0
        assert json.loads(out)["numeric_vs_brute"] == 0

    @pytest.mark.parametrize(
        "case, functional",
        [pytest.param("random_standard", f, id=f) for f in FUNCTIONALS]
        + [pytest.param(case, f, id=f"{case}-{f}") for case in OFF_STANDARD for f in FUNCTIONALS],
    )
    def test_two_mode_off_standard_form_matches_standard(self, capsys, tmp_path, case, functional):
        # the closed form is read off the CM as given, the minimizer runs
        # on the standard form the oracle reduces it to
        if case == "random_standard":
            # a small budget: the sampler's agreement is not what is tested
            cm = random_standard(2, seed=3)
            moved = rotated_and_squeezed(cm, np.random.default_rng(8))
            argv = ["--functional", functional, "--samples", "2000", "--oracle-tol", "1"]
            z = 1.0  # rotated_and_squeezed's cap
        else:
            # the default budget and --oracle-tol
            cm, party, theta, z = OFF_STANDARD[case]
            moved = locally_squeezed(cm, party, theta, z)
            argv = ["--functional", functional]
        code, out, _ = run(capsys, "oracle", write_cm(tmp_path, cm, "std.json"), *argv)
        code_moved, out_moved, err = run(capsys, "oracle", write_cm(tmp_path, moved), *argv)
        assert code == code_moved == 0, err
        rec, rec_moved = json.loads(out), json.loads(out_moved)
        # under a squeeze of 5 or 6 both drift by up to 3e-8
        closed_tol, numeric_tol = (1e-12, 1e-9) if z <= 1.0 else (1e-6, 1e-6)
        assert rec_moved["closed_form"] == pytest.approx(rec["closed_form"], abs=closed_tol)
        assert rec_moved["numeric_min"] == pytest.approx(rec["numeric_min"], abs=numeric_tol)
        assert rec_moved["agreement_closed_form"] is rec_moved["agreement_numeric_brute"] is True

    def test_heavily_squeezed_off_standard_form_reduced(self, capsys, tmp_path):
        # tmsv(8.5) off standard form as tmsv(0.5) is above, with entries
        # of order 1e7
        moved = locally_squeezed(tmsv(8.5))
        argv = ["--functional", "steer_ab"]
        code, out, err = run(capsys, "oracle", write_cm(tmp_path, moved), *argv)
        assert code == 0, err
        code_std, out_std, _ = run(capsys, "oracle", write_cm(tmp_path, tmsv(8.5), "std.json"), *argv)
        assert code_std == 0
        rec, rec_std = json.loads(out), json.loads(out_std)
        assert rec["agreement_closed_form"] is rec["agreement_numeric_brute"] is True
        assert rec["closed_form"] == pytest.approx(rec_std["closed_form"], abs=1e-8)

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    def test_heavily_squeezed_product_state_reduced(self, capsys, tmp_path, functional):
        # Bob's vacuum mode rotated by 0.668 and squeezed by 9.3 was refused
        # with exit 1. The closed form drifts at this squeeze (exit 3 on
        # three functionals), so only the minimum is pinned
        path = write_cm(tmp_path, product_grid_member(17, 93))
        code, out, err = run(capsys, "oracle", path, "--functional", functional)
        assert code != 1, err
        assert json.loads(out)["numeric_min"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    @pytest.mark.parametrize("nu", [(0.3, 1.0), (1.4, 0.3, 1.0)])
    def test_non_physical_exit_2(self, capsys, tmp_path, monkeypatch, nu, functional):
        # a 3-mode input used to get a normal-looking record and exit 0, a
        # 2-mode one exit 1 after the minimizer had run
        monkeypatch.setattr(cli, "_standardize", lambda cm, tol: pytest.fail("minimized"))
        path = write_cm(tmp_path, standard_cm(nu, seed=2))
        code, out, err = run(capsys, "oracle", path, "--functional", functional)
        assert code == 2
        assert out == "" and "error:" in err and "not a physical CM" in err

    def test_steer_ba_two_mode_closed_form(self, capsys, tmp_path):
        path = write_cm(tmp_path, tmsv(0.4))
        code, out, _ = run(
            capsys, "oracle", path, "--functional", "steer_ba", "--samples", "60000"
        )
        assert code == 0
        assert json.loads(out)["agreement_closed_form"] is True

    def test_minimizer_counts_recorded(self, capsys, tmp_path):
        # the solver's counts (converged, 0 sweeps, 1 start) are the same on
        # every input, so the record leaves them out
        path = write_cm(tmp_path, random_standard(3, seed=7))
        # a small budget: the sampler's agreement is not what is tested
        argv = ["oracle", path, "--functional", "steer_ba", "--samples", "2000",
                "--oracle-tol", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv)[1] == out
        assert list(json.loads(out)) == [
            "input_descriptor", "functional", "numeric_min", "numeric_boundary_flag",
            "brute_force_min", "closed_form", "numeric_vs_brute",
            "agreement_numeric_brute", "agreement_closed_form", "samples", "config",
        ]

    @pytest.mark.parametrize("flag, bad", [("--oracle-tol", "nan"), ("--oracle-tol", "-1")])
    def test_bad_oracle_tolerance_exit_1(self, capsys, tmp_path, flag, bad):
        # such a tolerance used to fail every comparison and exit 3
        path = write_cm(tmp_path, tmsv(0.5))
        code, out, err = run(
            capsys, "oracle", path, "--functional", "steer_ab",
            "--samples", "1000", f"{flag}={bad}",
        )
        assert code == 1
        assert out == "" and flag in err

    def test_closed_form_tol_flag_refused(self, capsys, tmp_path):
        # the closed-form comparison has a fixed tolerance, 1e-6
        path = write_cm(tmp_path, tmsv(0.5))
        code, out, err = run(
            capsys, "oracle", path, "--functional", "steer_ab",
            "--samples", "1000", "--closed-form-tol=nan",
        )
        assert code == 1
        assert out == "" and "unrecognized arguments: --closed-form-tol=nan" in err

    def test_disagreement_exit_3(self, capsys, tmp_path):
        path = write_cm(tmp_path, random_standard(3, seed=3))
        code, out, _ = run(
            capsys, "oracle", path, "--functional", "sep_minus",
            "--samples", "4000", "--oracle-tol", "1e-18",
        )
        assert code == 3
        assert json.loads(out)["agreement_numeric_brute"] is False

    @pytest.mark.parametrize("n, cm_seed, seed", [(6, 160, 22), (8, 169, 21)])
    def test_sampler_reaches_sep_minus_minimum(self, capsys, tmp_path, n, cm_seed, seed):
        # the sampler used to land 2.94e-3 and 1.35e-3 above the minimum
        # here and exit 3, with the minimizer on the closed form to 1e-13
        path = write_cm(tmp_path, random_standard(n, seed=cm_seed))
        code, out, _ = run(
            capsys, "oracle", path, "--functional", "sep_minus", "--seed", str(seed)
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["agreement_numeric_brute"] is True
        assert rec["agreement_closed_form"] is True
        assert rec["closed_form"] - 1e-9 <= rec["brute_force_min"] <= rec["closed_form"] + 1e-3

    def test_no_accepted_draw_writes_null(self, capsys, tmp_path, monkeypatch):
        # a budget that scores no accepted draw leaves the oracle at inf,
        # which JSON cannot hold
        monkeypatch.setattr(cli, "brute_force_min", lambda *args: np.inf)
        path = write_cm(tmp_path, tmsv(0.5))
        code, out, _ = run(capsys, "oracle", path, "--functional", "sep_plus", "--samples", "3")
        assert code == 3
        rec = json.loads(out)
        assert rec["brute_force_min"] is None
        assert rec["numeric_vs_brute"] is None
        assert rec["agreement_numeric_brute"] is False


def test_repeated_main_calls_reproduce_output(capsys, tmp_path):
    # one parser serves every main() call in a process; no call may leak
    # state into the next
    path = write_cm(tmp_path, tmsv(0.5))
    calls = [
        ["certify", path],
        ["sweep", "noisy_tmsv", "--r", "0.7", "--param", "nbar", "--range", "0,1,5"],
        ["oracle", path, "--functional", "steer_ba", "--samples", "20000", "--seed", "3"],
        ["certify", path, "--samples", "3"],
    ]
    strip = lambda s: [l for l in s.splitlines() if '"timing_ms"' not in l]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 1]
    for _ in range(2):
        for argv, (code, out, err) in zip(calls, first):
            again = run(capsys, *argv)
            assert again[0] == code
            assert strip(again[1]) == strip(out)
            assert again[2] == err


def test_render_json_deterministic_17_digits():
    text = render_json({"a": 1 / 3, "b": [True, None, 7], "c": {"d": 2.0**-52}})
    assert '"a": 0.33333333333333331' in text
    assert '"d": 2.2204460492503131e-16' in text
    assert text == render_json(json.loads(text.replace("null", "null")))  # stable


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, np.float64(np.inf)])
def test_render_json_non_finite_is_null(value):
    text = render_json({"x": value, "y": [value, 1.5]})
    assert json.loads(text) == {"x": None, "y": [None, 1.5]}
