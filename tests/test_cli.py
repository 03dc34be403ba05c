import argparse
import decimal
import gc
import hashlib
import json
import math
import os
import re
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlogent import cli, reports
from qlogent import linalg as la
from qlogent import propositions as pr
from qlogent import states as qs
from qlogent.linalg import DimensionMismatchError
from qlogent.partitions import distribution_logical_entropy
from qlogent.sampling import sample_density, sample_pvm, sample_unitary
from qlogent.states import DensityMatrix, Pvm, outcome_probabilities, pvm_logical_entropy

import invariance


@pytest.fixture
def files(tmp_path):
    """Write a small zoo of input files and return their paths."""
    plus = np.array([1, 1]) / np.sqrt(2)
    phi_i = np.array([1, 1j]) / np.sqrt(2)
    paths = {}

    def put(name, kind, payload, dims=None):
        p = tmp_path / name
        reports.write_matrix_file(str(p), kind, payload, dims)
        paths[name] = str(p)

    put("plus_density.json", "density", np.outer(plus, plus))
    put("mixed.json", "density", np.diag([0.75, 0.25]))
    put("bell.json", "density", _bell(), dims=(2, 2))
    put("pre_plus.json", "vector", plus)
    put("post_zero.json", "vector", np.array([1.0, 0.0]))
    put("post_one.json", "vector", np.array([0.0, 1.0]))
    put("post_phi_i.json", "vector", phi_i)

    p = tmp_path / "comp_pvm.json"
    write_pvm(p, Pvm.computational(2))
    paths["comp_pvm.json"] = str(p)

    bad = tmp_path / "not_json.json"
    bad.write_text("{kind: density")
    paths["not_json.json"] = str(bad)

    not_density = tmp_path / "not_density.json"
    reports.write_matrix_file(str(not_density), "density", np.diag([0.9, 0.9]))
    paths["not_density.json"] = str(not_density)

    paths["tmp"] = str(tmp_path)
    return paths


def write_pvm(path, pvm):
    reports.write_matrix_file(str(path), "pvm", pvm.blocks)


def _bell():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v)


DATA = Path(__file__).parent / "data"


def _plain(value):
    """What a report value should parse back to: tuples as lists, complex numbers as
    [re, im], numpy scalars as Python numbers."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def assert_same_plain(parsed, expected):
    """Equal, with equal types all the way down, and floats equal bit for bit (-0.0 too)."""
    assert type(parsed) is type(expected), (parsed, expected)
    if isinstance(expected, dict):
        assert parsed.keys() == expected.keys()
        for key in expected:
            assert_same_plain(parsed[key], expected[key])
    elif isinstance(expected, list):
        assert len(parsed) == len(expected)
        for a, b in zip(parsed, expected):
            assert_same_plain(a, b)
    elif isinstance(expected, float):
        assert struct.pack("<d", parsed) == struct.pack("<d", expected)
    else:
        assert parsed == expected


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e16, -3e16, 9.999999999999998e16, 2.0**60]
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text() | _FLOATS
    | st.complex_numbers(allow_nan=False, allow_infinity=False)
    | _FLOATS.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128)
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def assert_report_matches(fresh, pinned, path="report"):
    """Same keys, list lengths and non-float values; floats within 1e-12.

    Not a byte comparison: BLAS kernels differ between CPU models, so
    rounding residues near 1e-15 may differ from machine to machine.
    """
    if isinstance(pinned, float):
        assert isinstance(fresh, float) and abs(fresh - pinned) <= 1e-12, (path, fresh, pinned)
    elif isinstance(pinned, dict):
        assert sorted(fresh) == sorted(pinned), path
        for key, value in pinned.items():
            assert_report_matches(fresh[key], value, f"{path}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(fresh, list) and len(fresh) == len(pinned), path
        for i, (a, b) in enumerate(zip(fresh, pinned)):
            assert_report_matches(a, b, f"{path}[{i}]")
    else:
        assert type(fresh) is type(pinned) and fresh == pinned, (path, fresh, pinned)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def no_proposition_runs(monkeypatch):
    """Fails the test if verify runs a proposition: its refusals all come first."""

    def run_proposition(pid, cfg):
        raise AssertionError(f"proposition {pid} ran")

    monkeypatch.setattr(pr, "verify_proposition", run_proposition)


class TestEntropyCommand:
    def test_pure_state(self, files, capsys):
        doc = run_json(capsys, ["entropy", "--in", files["plus_density.json"]])
        assert doc["command"] == "entropy"
        assert doc["results"]["logical_entropy"] == pytest.approx(0.0, abs=1e-12)
        assert doc["results"]["purity"] == pytest.approx(1.0, abs=1e-12)

    def test_with_pvm(self, files, capsys):
        doc = run_json(
            capsys,
            ["entropy", "--in", files["plus_density.json"], "--pvm", files["comp_pvm.json"]],
        )
        res = doc["results"]
        assert res["pvm_logical_entropy"] == pytest.approx(0.5, abs=1e-12)
        assert res["divergence_to_measured"] == pytest.approx(0.5, abs=1e-12)
        assert res["purity_decomposition"]["measured_purity"] == pytest.approx(0.5)
        assert res["purity_decomposition"]["off_diagonal_mass"] == pytest.approx(0.5)

    def test_input_digests_recorded(self, files, capsys):
        doc = run_json(capsys, ["entropy", "--in", files["mixed.json"]])
        assert len(doc["inputs"]["rho"]["sha256"]) == 64

    @pytest.mark.parametrize("d, groups", [
        (2, None), (2, [2]), (8, None), (8, [3, 5]), (64, None), (64, [32, 32]),
    ])
    def test_pvm_numbers_match_the_library(self, capsys, tmp_path, d, groups):
        # one purity and one outcome distribution give every number the library gives
        rho_path, pvm_path = str(tmp_path / "rho.json"), str(tmp_path / "pvm.json")
        reports.write_matrix_file(rho_path, "density", sample_density(d, d).mat)
        reports.write_matrix_file(pvm_path, "pvm", sample_pvm(d, d, groups, 6).blocks)
        rho, _ = reports.load_matrix_file(rho_path, "density")
        pvm, _ = reports.load_matrix_file(pvm_path, "pvm")
        with (
            mock.patch.object(cli, "outcome_probabilities", wraps=cli.outcome_probabilities) as q,
            mock.patch.object(cli, "purity", wraps=cli.purity) as p,
        ):
            res = run_json(capsys, ["entropy", "--in", rho_path, "--pvm", pvm_path])["results"]
        assert (q.call_count, p.call_count) == (1, 1)
        expected = {
            "pvm_logical_entropy": qs.pvm_logical_entropy(rho, pvm),
            "logical_entropy": qs.logical_entropy(rho),
            "purity": qs.purity(rho),
        }
        if groups is None:
            measured, off = qs.basis_decomposition_check(rho, pvm)
            expected["purity_decomposition"] = {
                "measured_purity": measured, "off_diagonal_mass": off,
            }
        else:
            assert "purity_decomposition" not in res
        assert_same_plain({k: res[k] for k in expected}, _plain(expected))


class TestDivergenceCommand:
    def test_values(self, files, capsys):
        doc = run_json(
            capsys, ["divergence", files["plus_density.json"], files["mixed.json"]]
        )
        res = doc["results"]
        assert res["divergence"] == pytest.approx(res["divergence_definitional"], abs=1e-12)
        assert 0.0 <= res["fidelity"] <= 1.0 + 1e-12

    def test_self_divergence_zero(self, files, capsys):
        doc = run_json(
            capsys, ["divergence", files["mixed.json"], files["mixed.json"]]
        )
        assert doc["results"]["divergence"] == pytest.approx(0.0, abs=1e-12)


class TestRelativeCommand:
    def test_bell_state(self, files, capsys):
        doc = run_json(capsys, ["relative", "--in", files["bell.json"]])
        res = doc["results"]
        assert res["matches_minus_divergence"]
        assert not res["matches_minus_quarter_divergence"]
        assert doc["warnings"]

    def test_dims_flag_overrides_missing_tag(self, files, capsys, tmp_path):
        path = tmp_path / "bell_untagged.json"
        reports.write_matrix_file(str(path), "density", _bell())
        doc = run_json(capsys, ["relative", "--in", str(path), "--dims", "2,2"])
        assert doc["results"]["matches_minus_divergence"]

    def test_dims_flag_equal_to_the_tag_passes(self, files, capsys):
        tagged = run_json(capsys, ["relative", "--in", files["bell.json"]])
        flagged = run_json(capsys, ["relative", "--in", files["bell.json"], "--dims", "2,2"])
        assert flagged["results"] == tagged["results"]

    @pytest.mark.parametrize("dims", ["4,1", "1,4"])
    def test_dims_flag_differing_from_the_tag_exits_4(self, files, capsys, dims):
        # the file's (2, 2) would be used while the report echoed the flag
        code, out, err = run(capsys, ["relative", "--in", files["bell.json"], "--dims", dims])
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and "differ from the file's dims (2, 2)" in err, err

    def test_missing_dims_is_dimension_error(self, files, capsys, tmp_path):
        path = tmp_path / "bell_untagged2.json"
        reports.write_matrix_file(str(path), "density", _bell())
        code, _, err = run(capsys, ["relative", "--in", str(path)])
        assert code == 4
        assert "dimension" in err


class TestVerifyCommand:
    def test_single_prop(self, files, capsys):
        code, out, _ = run(
            capsys, ["verify", "--prop", "2", "--trials", "20", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["2"]["status"] == "verified"
        assert doc["seed"] == 3

    def test_ssa_counterexample_is_expected(self, files, capsys):
        code, out, _ = run(
            capsys, ["verify", "--prop", "ssa", "--trials", "20", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["ssa"]["status"] == "counterexample-found-as-expected"

    def test_byte_identical_reports(self, files, capsys):
        argv = ["verify", "--prop", "2,5,ssa", "--trials", "30", "--seed", "17"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_unknown_prop_is_validation_error(self, files, capsys):
        code, _, err = run(capsys, ["verify", "--prop", "99", "--trials", "5"])
        assert code == 3
        assert "validation" in err

    @pytest.mark.parametrize("flags, code, err", [
        # the ids first, whatever else is wrong
        (["--prop", "1a,zz", "--seed", "-1"], 3, "validation error: unknown proposition id 'zz'"),
        (["--prop", "zz", "--dims", "65"], 3, "validation error: unknown proposition id 'zz'"),
        (["--prop", "6,6", "--dims", "33"], 3, "validation error: repeated proposition id '6'"),
        # then the sampler config, ahead of both dimension limits
        (["--dims", "65", "--trials", "0"], 3, "validation error: trials must be >= 1"),
        (["--prop", "6", "--dims", "2,2,33"], 3,
         "validation error: dims [2, 2, 33] name a dimension more than once"),
        # then the eigensolver limit, ahead of prop 6's
        (["--prop", "6", "--dims", "65"], 4,
         "dimension mismatch: verify takes dims up to 64, the eigensolver limit"),
        (["--prop", "1a,6", "--dims", "2,33"], 4,
         "dimension mismatch: prop 6 takes dims up to 32: above, its Haar QR at joint dim 3d"
         " depends on the BLAS thread count"),
    ])
    def test_refusal_order(self, capsys, no_proposition_runs, flags, code, err):
        assert run(capsys, ["verify", *flags]) == (code, "", err + "\n")

    def test_default_report_numbers_are_pinned(self, capsys):
        # a checker refactor must not move a worst_violation, a count or the witness. The
        # pin is the stdout of `OPENBLAS_NUM_THREADS=1 qlogent verify --trials 1000 --seed 42`;
        # it is compared within 1e-12, not byte for byte, since another CPU's LAPACK may
        # round the residues near 1e-15 differently
        pinned = json.loads((DATA / "verify_seed42_trials1000.json").read_text())
        fresh = run_json(capsys, ["verify", "--trials", "1000", "--seed", "42"])
        assert_report_matches(fresh, pinned)
        assert fresh["results"]["ssa"]["witness"] == pinned["results"]["ssa"]["witness"]


@pytest.fixture(scope="module")
def haar_pvm_files(tmp_path_factory):
    """A fine PVM file from a Haar (QR) basis for each d of the overlap table."""
    paths = {}
    for d in (2, 8, 64):
        paths[d] = str(tmp_path_factory.mktemp("pvm") / f"pvm_{d}.json")
        write_pvm(paths[d], sample_pvm(d, d))
    return paths


class TestPostselectCommand:
    def test_worked_example(self, files, capsys):
        doc = run_json(
            capsys,
            [
                "postselect",
                "--pre", files["pre_plus.json"],
                "--post", files["post_phi_i.json"],
                "--pvm", files["comp_pvm.json"],
            ],
        )
        res = doc["results"]
        assert res["weak_values"] == [[0.5, 0.5], [0.5, -0.5]]
        assert res["abl_normalized"] == [0.5, 0.5]
        assert res["postselected_logical_entropy"] == pytest.approx(0.5, abs=1e-12)
        assert res["relation_diagnostic"]["abs_weak_entropy_squared"] == pytest.approx(1.0)
        assert not res["relation_diagnostic"]["agrees"]
        assert doc["warnings"]

    def test_agreeing_pair_has_no_warning(self, files, capsys):
        doc = run_json(
            capsys,
            [
                "postselect",
                "--pre", files["pre_plus.json"],
                "--post", files["post_zero.json"],
                "--pvm", files["comp_pvm.json"],
            ],
        )
        assert doc["results"]["relation_diagnostic"]["agrees"]
        assert doc["warnings"] == []

    def test_orthogonal_pair_exit_code(self, files, capsys):
        code, _, err = run(
            capsys,
            [
                "postselect",
                "--pre", files["post_zero.json"],
                "--post", files["post_one.json"],
                "--pvm", files["comp_pvm.json"],
            ],
        )
        assert code == 6
        assert "orthogonal" in err

    @pytest.mark.parametrize("d", [2, 8, 64])
    @pytest.mark.parametrize("overlap", [1e-13, 1e-11, 1e-10, 1e-8, 1e-4, 1e-1])
    def test_overlap_alone_decides_acceptance(self, d, overlap, haar_pvm_files, tmp_path, capsys):
        # unit vectors in a Haar (QR) basis u: pre = u_0, post = c u_0 + s u_1, so
        # <phi|psi> = c up to rounding; no overlap is within 10x of the 1e-12 gate
        u = sample_unitary(d, d, 0x0E)
        pre, post = tmp_path / "pre.json", tmp_path / "post.json"
        reports.write_matrix_file(str(pre), "vector", u[:, 0])
        reports.write_matrix_file(
            str(post), "vector", overlap * u[:, 0] + np.sqrt(1.0 - overlap**2) * u[:, 1]
        )
        argv = ["postselect", "--pre", str(pre), "--post", str(post), "--pvm", haar_pvm_files[d]]
        code, out, err = run(capsys, argv)
        if overlap < 1e-12:
            assert (code, out) == (6, "")
            shown = re.fullmatch(
                r"orthogonal pre/post selection: \|<phi\|psi>\| = (\S+) is below 1e-12\n", err
            )
            assert shown and abs(float(shown[1]) - overlap) <= 0.1 * overlap, err
        else:
            assert (code, err) == (0, "")
            res = json.loads(out)["results"]
            assert abs(complex(*res["overlap"]) - overlap) <= 0.1 * overlap
            assert np.isfinite(res["weak_values"]).all()


class TestSampleCommand:
    def test_estimate_close_to_analytic(self, files, capsys):
        doc = run_json(
            capsys,
            [
                "sample",
                "--in", files["plus_density.json"],
                "--pvm", files["comp_pvm.json"],
                "--trials", "20000",
                "--seed", "5",
            ],
        )
        res = doc["results"]
        assert res["analytic"] == pytest.approx(0.5, abs=1e-12)
        assert abs(res["z_score"]) < 4.0

    def test_reproducible(self, files, capsys):
        argv = [
            "sample",
            "--in", files["mixed.json"],
            "--pvm", files["comp_pvm.json"],
            "--trials", "1000",
            "--seed", "8",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trial_count_below_one(self, files, capsys, trials):
        argv = ["sample", "--in", files["mixed.json"], "--pvm", files["comp_pvm.json"],
                "--trials", trials]
        assert run(capsys, argv) == (3, "", "validation error: trials must be >= 1\n")


class TestOutcomeSumDrift:
    """rho = v v^dag, v = ones(64)/8, and the fine computational PVM with B_0 += 3e-8 v v^dag.

    The PVM passes its identity check, yet its outcome probabilities sum to 1 + 3.0e-8,
    beyond PROB_SUM_TOL. The quantum entropies take q as it is; only the classical
    layer's checked entry point refuses it.
    """

    # 1 - sum q^2 with q_0 = 1/64 + 3e-8 and 63 outcomes of 1/64
    ENTROPY = 1.0 - (63 / 4096 + (1 / 64 + 3e-8) ** 2)

    @pytest.fixture
    def drift(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        v = np.ones(64) / 8
        blocks = np.zeros((64, 64, 64), dtype=complex)
        blocks[np.arange(64), np.arange(64), np.arange(64)] = 1.0
        blocks[0] += 3e-8 * np.outer(v, v)
        reports.write_matrix_file("pvm.json", "pvm", blocks)
        reports.write_matrix_file("rho.json", "density", np.outer(v, v))
        return reports.load_matrix_file("rho.json", "density")[0], Pvm(blocks)

    def test_quantum_entropy_takes_unchecked_outcomes(self, drift):
        rho, pvm = drift
        q = outcome_probabilities(rho, pvm)
        assert float(np.sum(q)) == pytest.approx(1 + 3e-8, abs=1e-15)
        assert pvm_logical_entropy(rho, pvm) == 1.0 - np.sum(q * q)
        with pytest.raises(ValueError, match="probabilities sum to 1.00000003"):
            distribution_logical_entropy(q)

    def test_entropy_and_sample_commands(self, drift, capsys):
        entropy = run_json(capsys, ["entropy", "--in", "rho.json", "--pvm", "pvm.json"])
        assert entropy["results"]["pvm_logical_entropy"] == pytest.approx(self.ENTROPY, abs=1e-15)
        assert entropy["results"]["pvm_non_degenerate"] is False
        sample = run_json(capsys, ["sample", "--in", "rho.json", "--pvm", "pvm.json"])["results"]
        assert sample["analytic"] == pytest.approx(self.ENTROPY, abs=1e-15)
        # 98450 of the default 100000 pairs at seed 42 differ
        assert sample["estimate"] == 0.9845


class TestExitCodes:
    def test_parse_error(self, files, capsys):
        code, _, err = run(capsys, ["entropy", "--in", files["not_json.json"]])
        assert code == 2
        assert "parse" in err

    def test_missing_file_is_parse_error(self, files, capsys):
        code, _, _ = run(capsys, ["entropy", "--in", files["tmp"] + "/nope.json"])
        assert code == 2

    def test_validation_error(self, files, capsys):
        code, _, err = run(capsys, ["entropy", "--in", files["not_density.json"]])
        assert code == 3
        assert "validation" in err

    def test_dimension_mismatch(self, files, capsys, tmp_path):
        pre3 = tmp_path / "pre3.json"
        reports.write_matrix_file(
            str(pre3), "vector", np.array([1.0, 0.0, 0.0])
        )
        code, _, _ = run(
            capsys,
            [
                "postselect",
                "--pre", str(pre3),
                "--post", files["post_zero.json"],
                "--pvm", files["comp_pvm.json"],
            ],
        )
        assert code == 4

    @pytest.mark.parametrize("command", [
        ["entropy", "--in", "plus_density.json"],
        ["sample", "--in", "plus_density.json"],
        ["postselect", "--pre", "pre_plus.json", "--post", "post_zero.json"],
    ])
    def test_pvm_of_another_dimension(self, files, capsys, tmp_path, command):
        # every command that measures with a PVM names both dimensions in one line
        pvm3 = tmp_path / "pvm3.json"
        write_pvm(pvm3, Pvm.computational(3))
        argv = [files.get(a, a) for a in command] + ["--pvm", str(pvm3)]
        assert run(capsys, argv) == (4, "", "dimension mismatch: PVM dim 3 vs state dim 2\n")


class TestUsageErrors:
    """argparse's own errors print one stderr line and exit 2; --help still works."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["verify", "--trials", "abc"],
            ["verify", "--dims=2,x"],
            ["verify", "--dims", "a,b"],
            ["sample", "--in", "rho.json"],
            # Python 3.11's argparse passed these on as [], unconverted
            ["verify", "--trials=--"],
            ["verify", "--seed=--"],
            ["verify", "--tol=--"],
            ["sample", "--in", "rho.json", "--pvm", "pvm.json", "--trials=--"],
        ],
    )
    def test_one_stderr_line_and_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qlogent")

    def test_dims_error_names_the_expected_format(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--dims", "a,b"])
        err = capsys.readouterr().err
        assert "comma-separated integers" in err
        assert "_int_list" not in err

    def test_file_flag_given_dashes_is_a_missing_file(self, capsys):
        code, out, err = run(capsys, ["entropy", "--in=--"])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: --:")

    @pytest.mark.parametrize("argv", [["--help"], ["sample", "--help"]])
    def test_help_goes_to_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: qlogent")
        assert captured.err == ""


class TestMalformedInput:
    """Bad files and flags end in one stderr line and an exit code, never a traceback."""

    @pytest.mark.parametrize(
        "text, code, phrase",
        [
            ('{"kind": "density", "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
             2, "finite numbers"),
            ('{"kind": "density", "matrix": [[[0.5, Infinity], [0, 0]], [[0, 0], [0.5, 0]]]}',
             2, "finite numbers"),
            ('{"kind": "density", "matrix": [[[-Infinity, 0]]]}', 2, "finite numbers"),
            ('{"kind": "density", "matrix": [[[1e400, 0]]]}', 2, "finite numbers"),
            ('{"kind": "density", "matrix": [[[1' + "0" * 400 + ', 0]]]}', 2, "finite numbers"),
            ('{"kind": "density", "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]]}',
             3, "non-finite"),
            ('{"kind": "density", "dims": [true, 2], "matrix": '
             '[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}', 2, "dims"),
            # numpy would read true as 1.0
            ('{"kind": "density", "matrix": [[[true, 0]]]}', 2, "finite numbers"),
            ('{"kind": "density", "matrix": [[["1", 0]]]}', 2, "finite numbers"),
            ('{"kind": "density", "matrix": [[[null, 0]]]}', 2, "finite numbers"),
            ('{"kind": "density", "matrix": [[[0.5, 0], [0, 0]], [[0.5, 0]]]}', 2, "rectangular"),
            ('{"kind": "density", "matrix": [[[1, 0, 0]]]}', 2, "[re, im] pairs"),
            ('{"kind": "density", "matrix": [[1, 0]]}', 2, "matrix of [re, im] pairs"),
            ('{"kind": "vector", "matrix": [[[1, 0]]]}', 2, "vector of [re, im] pairs"),
            # the dims product is exact: in int64 it would wrap around to 4
            ('{"kind": "density", "dims": [' + str(2**62 + 1) + ', 4], "matrix": '
             + json.dumps(reports.matrix_to_pairs(np.eye(4) / 4)) + '}', 4, "do not multiply"),
            # an integer beyond int64 still parses, as a float, and fails validation
            ('{"kind": "density", "matrix": [[[' + str(2**70) + ', 0]]]}', 3, "trace"),
        ],
    )
    def test_density_file(self, capsys, tmp_path, text, code, phrase):
        path = tmp_path / "rho.json"
        path.write_text(text)
        # vector files are read by postselect, every other file by entropy
        argv = ["entropy", "--in", str(path)]
        if '"kind": "vector"' in text:
            argv = ["postselect", "--pre", str(path), "--post", str(path), "--pvm", str(path)]
        got, out, err = run(capsys, argv)
        assert (got, out) == (code, "")
        assert len(err.splitlines()) == 1 and phrase in err, err

    @pytest.mark.parametrize("blocks", ["5", "[]", '"x"', "null"])
    def test_pvm_blocks_must_be_a_non_empty_list(self, files, capsys, tmp_path, blocks):
        path = tmp_path / "pvm.json"
        path.write_text('{"kind": "pvm", "blocks": ' + blocks + "}")
        argv = ["entropy", "--in", files["mixed.json"], "--pvm", str(path)]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "parse error" in err

    def test_non_orthogonal_pvm_blocks_exit_3(
        self, files, capsys, tmp_path, nearly_orthogonal_blocks
    ):
        half = tmp_path / "half.json"
        reports.write_matrix_file(str(half), "density", np.eye(2) / 2)
        path = tmp_path / "pvm.json"
        reports.write_matrix_file(str(path), "pvm", nearly_orthogonal_blocks)
        code, out, err = run(capsys, ["entropy", "--in", str(half), "--pvm", str(path)])
        assert (code, out) == (3, "")
        assert err == "validation error: blocks 0,1 not orthogonal\n"

    def test_pvm_blocks_of_mixed_dimension_exit_4(self, files, capsys, tmp_path):
        path = tmp_path / "pvm.json"
        blocks = [reports.matrix_to_pairs(np.eye(2)), reports.matrix_to_pairs(np.zeros((3, 3)))]
        path.write_text(reports.dumps_stable({"kind": "pvm", "blocks": blocks}))
        code, out, err = run(capsys, ["entropy", "--in", files["mixed.json"], "--pvm", str(path)])
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and "mixed dimension" in err

    def test_empty_dims(self, capsys):
        code, out, err = run(capsys, ["verify", "--prop", "2", "--dims", ","])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert "dims" in err

    @pytest.mark.parametrize(
        "flags, phrase",
        [
            (["--prop", "1a,1a"], "repeated proposition id '1a'"),
            (["--prop", "ssa,2,ssa"], "repeated proposition id 'ssa'"),
            (["--prop", "1a,zz"], "unknown proposition id 'zz'"),
            (["--prop", "all,1a"], "unknown proposition id 'all'"),
            (["--prop", "1a", "--dims", "2,2"], "more than once"),
            (["--dims", "3,2,3"], "more than once"),
        ],
    )
    def test_verify_ids_and_dims_are_checked_before_any_run(
        self, capsys, no_proposition_runs, flags, phrase
    ):
        # a repeated id or dim would count the same seeded trials twice
        code, out, err = run(capsys, ["verify", "--trials", "3", *flags])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and phrase in err, err

    @pytest.mark.parametrize("dims", ["-2,-2", "-1,-4", "-1,2,-2"])
    def test_relative_dims_must_be_positive(self, capsys, tmp_path, dims):
        path = tmp_path / "rho4.json"
        reports.write_matrix_file(str(path), "density", np.eye(4) / 4)
        code, out, err = run(capsys, ["relative", "--in", str(path), f"--dims={dims}"])
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and "not positive" in err, err

    def test_non_finite_tolerance(self, capsys):
        code, _, err = run(capsys, ["verify", "--prop", "1a", "--trials", "2", "--tol", "nan"])
        assert code == 3
        assert "tolerance" in err

    @pytest.mark.parametrize("seed", [-5, -1, 2**64])
    def test_seed_outside_key_range(self, files, capsys, seed):
        verify = ["verify", "--prop", "1a", "--trials", "2", "--seed", str(seed)]
        # the fixed SSA witness draws nothing, so only the config can reject its seed
        ssa = ["verify", "--prop", "ssa", "--seed", str(seed)]
        sample = ["sample", "--in", files["mixed.json"], "--pvm", files["comp_pvm.json"],
                  "--trials", "10", "--seed", str(seed)]
        for argv in (verify, ssa, sample):
            code, out, err = run(capsys, argv)
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1 and "seed" in err


_B0 = "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]"
_B1 = "[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]"
_RAGGED = "[[[0, 0], [0, 0]], [[1, 0]]]"
_BLOCKS = f"[{_B0}, {_B1}]"


def _entry(x: str) -> str:
    """_B0 with x as the real part of its first entry."""
    return f"[[[{x}, 0], [0, 0]], [[0, 0], [0, 0]]]"


def _pvm(blocks: str, head: str = '"kind": "pvm"') -> bytes:
    return ("{" + head + ', "blocks": ' + blocks + "}").encode()


_FINITE = "parse error: {path}: expected [re, im] pairs of finite numbers\n"
_RECTANGULAR = "parse error: {path}: expected a non-empty rectangular matrix of [re, im] pairs\n"
_NOT_A_LIST = "parse error: {path}: 'blocks' must be a non-empty list\n"

# (pvm file bytes, exit code, exact stderr with {path} for the file): the JSON grammar
# is checked first, then the kind, key and dims, then the blocks in order
MALFORMED_PVM_FILES = {
    "blocks_int_then_list": (_pvm(_BLOCKS, '"kind": "pvm", "blocks": 5'), 0, ""),
    "blocks_list_then_int": (_pvm("5", '"kind": "pvm", "blocks": ' + _BLOCKS), 2, _NOT_A_LIST),
    "blocks_int": (_pvm("5"), 2, _NOT_A_LIST),
    "blocks_empty": (_pvm("[]"), 2, _NOT_A_LIST),
    "blocks_string": (_pvm('"abc"'), 2, _NOT_A_LIST),
    "blocks_object": (_pvm("{}"), 2, _NOT_A_LIST),
    "trailing_comma_in_object": (
        _pvm(_BLOCKS)[:-1] + b",}", 2,
        "parse error: {path}: Expecting property name enclosed in double quotes: "
        "line 1 column 104 (char 103)\n",
    ),
    "trailing_comma_in_array": (
        _pvm(f"[{_B0}, {_B1},]"), 2,
        "parse error: {path}: Expecting value: line 1 column 103 (char 102)\n",
    ),
    "missing_comma_between_blocks": (
        _pvm(f"[{_B0} {_B1}]"), 2,
        "parse error: {path}: Expecting ',' delimiter: line 1 column 65 (char 64)\n",
    ),
    "nan": (
        _pvm(f"[{_entry('NaN')}, {_B1}]"), 2,
        "parse error: {path}: expected [re, im] pairs of finite numbers, got NaN\n",
    ),
    "1e999": (_pvm(f"[{_entry('1e999')}, {_B1}]"), 2, _FINITE),
    "true": (_pvm(f"[{_entry('true')}, {_B1}]"), 2, _FINITE),
    "null": (_pvm(f"[{_entry('null')}, {_B1}]"), 2, _FINITE),
    "string": (_pvm("[" + _entry('"1"') + f", {_B1}]"), 2, _FINITE),
    "plus_sign": (
        _pvm(f"[{_entry('+1')}, {_B1}]"), 2,
        "parse error: {path}: Expecting value: line 1 column 31 (char 30)\n",
    ),
    "leading_dot": (
        _pvm(f"[{_entry('.5')}, {_B1}]"), 2,
        "parse error: {path}: Expecting value: line 1 column 31 (char 30)\n",
    ),
    "leading_zero": (
        _pvm(f"[{_entry('01')}, {_B1}]"), 2,
        "parse error: {path}: Expecting ',' delimiter: line 1 column 32 (char 31)\n",
    ),
    "400_digit_int": (_pvm(f"[{_entry('1' + '0' * 399)}, {_B1}]"), 2, _FINITE),
    "ragged_block": (_pvm(f"[{_B0}, {_RAGGED}]"), 2, _RECTANGULAR),
    "block_off_hermitian": (
        _pvm(f"[[[[1, 0], [1e-6, 0]], [[0, 0], [0, 0]]], {_B1}]"), 3,
        "validation error: hermiticity defect 1.000e-06 exceeds 1.0e-09\n",
    ),
    "block_not_a_list": (_pvm(f"[{_B0}, 7]"), 2, _RECTANGULAR),
    "first_bad_block_wins_finite": (_pvm(f"[{_B0}, {_entry('true')}, {_RAGGED}]"), 2, _FINITE),
    "first_bad_block_wins_ragged": (_pvm(f"[{_RAGGED}, {_entry('true')}]"), 2, _RECTANGULAR),
    "bad_block_then_syntax_error": (
        _pvm(f"[{_entry('true')}, {_B1}]")[:-1] + b', "x": }', 2,
        "parse error: {path}: Expecting value: line 1 column 113 (char 112)\n",
    ),
    "bad_block_then_bad_dims": (
        _pvm(f"[{_entry('true')}, {_B1}]", '"kind": "pvm", "dims": [0]'), 2,
        "parse error: {path}: dims must be a list of positive integers\n",
    ),
    "density_kind_with_bad_block": (
        _pvm(f"[{_entry('true')}]", '"kind": "density"'), 2,
        "parse error: {path}: expected an object with kind 'pvm' and 'blocks'\n",
    ),
    "utf16": (_pvm(_BLOCKS).decode().encode("utf-16"), 0, ""),
    "utf8_bom": (b"\xef\xbb\xbf" + _pvm(_BLOCKS), 0, ""),
    # json.dump(indent=1): no block opens with a run of brackets, so json reads each one
    "indented": (json.dumps(json.loads(_pvm(_BLOCKS)), indent=1).encode(), 0, ""),
    "nan_in_second_block": (
        _pvm(f"[{_B0}, {_entry('NaN')}]"), 2,
        "parse error: {path}: expected [re, im] pairs of finite numbers, got NaN\n",
    ),
    "escaped_lone_surrogate": (_pvm(f"[{_B0}, " + _entry('"\\ud800"') + "]"), 2, _FINITE),
    "raw_lone_surrogate": (_pvm(f"[{_B0}, " + _entry('"@"') + "]").replace(b"@", b"\xed\xa0\x80"),
                           2, _FINITE),
    "1e400_in_second_block": (_pvm(f"[{_B0}, {_entry('1e400')}]"), 2, _FINITE),
    # the first run of three closing brackets ends the second block early
    "closing_run_inside_a_block": (
        _pvm(f"[{_B0}, [[[[0, 0]]], [[0, 0], [0, 0]]]]"), 2, _RECTANGULAR,
    ),
    "invalid_utf8": (
        _pvm(_BLOCKS).replace(b'"pvm"', b'"p\xffm"'), 2,
        "parse error: {path}: 'utf-8' codec can't decode byte 0xff in position 11: "
        "invalid start byte\n",
    ),
    "deep_nesting": (
        _pvm("[" * 100_000 + "]" * 100_000), 2,
        "parse error: {path}: maximum recursion depth exceeded while decoding a JSON array "
        "from a unicode string\n",
    ),
    "extra_data": (
        _pvm(_BLOCKS) + b" 5", 2,
        "parse error: {path}: Extra data: line 1 column 105 (char 104)\n",
    ),
}


def _same_report(capsys, argv, path, data, plain, out):
    """out is the report argv gives with plain as the bytes at path, but for their digest."""
    path.write_bytes(plain)
    expected = run_json(capsys, argv)
    for report in expected["inputs"].values():
        if report["path"] == str(path):
            report["sha256"] = hashlib.sha256(data).hexdigest()
    assert out == reports.dumps_stable(expected) + "\n"


@pytest.mark.parametrize("name", sorted(MALFORMED_PVM_FILES))
def test_malformed_pvm_file(files, capsys, tmp_path, name):
    data, code, err = MALFORMED_PVM_FILES[name]
    path = tmp_path / "pvm.json"
    path.write_bytes(data)
    argv = ["entropy", "--in", files["mixed.json"], "--pvm", str(path)]
    got, out, got_err = run(capsys, argv)
    assert (got, got_err) == (code, err.replace("{path}", str(path)))
    assert (out != "") == (code == 0)
    if code == 0:  # every accepted file holds the blocks of _BLOCKS
        _same_report(capsys, argv, path, data, _pvm(_BLOCKS), out)


_HALF = "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"
_PLUS = "[[0.7071067811865476, 0], [0.7071067811865476, 0]]"


def _state(kind: str, matrix: str, head: str = "") -> bytes:
    return ("{" + head + f'"kind": "{kind}", "matrix": ' + matrix + "}").encode()


def _half(x: str) -> str:
    """_HALF with x as the real part of its first entry."""
    return f"[[[{x}, 0], [0, 0]], [[0, 0], [0.5, 0]]]"


_RECURSION = (
    "parse error: {path}: maximum recursion depth exceeded while decoding a JSON array "
    "from a unicode string\n"
)

# (density or vector file bytes, exit code, exact stderr with {path}): orjson reads the
# matrix of a compact file, json's scanner any other; json decides every refusal
MALFORMED_STATE_FILES = {
    "density_indented": (json.dumps(json.loads(_state("density", _HALF)), indent=1).encode(),
                         0, ""),
    "density_utf16": (_state("density", _HALF).decode().encode("utf-16"), 0, ""),
    "density_utf8_bom": (b"\xef\xbb\xbf" + _state("density", _HALF), 0, ""),
    "density_nan": (
        _state("density", _half("NaN")), 2,
        "parse error: {path}: expected [re, im] pairs of finite numbers, got NaN\n",
    ),
    "density_1e400": (_state("density", _half("1e400")), 2, _FINITE),
    "density_escaped_lone_surrogate": (_state("density", _half('"\\udc00"')), 2, _FINITE),
    "density_raw_lone_surrogate": (
        _state("density", _half('"@"')).replace(b"@", b"\xed\xb0\x80"), 2, _FINITE),
    "density_nested_past_the_recursion_limit": (
        _state("density", "[" * 100_000 + "0" + "]" * 100_000), 2, _RECURSION),
    "density_decoded_kind": (
        _state("density", _HALF).replace(b'"density"', _HALF.encode()), 2,
        "parse error: {path}: expected an object with kind 'density' and 'matrix'\n",
    ),
    "density_decoded_dims": (
        _state("density", _HALF, '"dims": [[[2, 0]]], '), 2,
        "parse error: {path}: dims must be a list of positive integers\n",
    ),
    "density_closing_run_then_extra_data": (
        _state("density", _HALF + "]"), 2,
        "parse error: {path}: Expecting ',' delimiter: line 1 column 71 (char 70)\n",
    ),
    "vector_decoded_kind": (
        _state("vector", _PLUS).replace(b'"vector"', _PLUS.encode()), 2,
        "parse error: {path}: expected an object with kind 'vector' and 'matrix'\n",
    ),
    "vector_indented": (json.dumps(json.loads(_state("vector", _PLUS)), indent=1).encode(),
                        0, ""),
    # the norm of [1e-200, 0] underflows to 0 unless its largest modulus is factored out
    "vector_tiny": (
        _state("vector", "[[1e-200, 0], [0, 0]]"), 3,
        "validation error: pre vector norm 1e-200 differs from 1 beyond 1.0e-09\n",
    ),
    "vector_zero": (
        _state("vector", "[[0, 0], [0, 0]]"), 3, "validation error: pre vector is zero\n",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_STATE_FILES))
def test_malformed_state_file(files, capsys, tmp_path, name):
    data, code, err = MALFORMED_STATE_FILES[name]
    path = tmp_path / "state.json"
    path.write_bytes(data)
    argv = ["entropy", "--in", str(path)]
    plain = _state("density", _HALF)
    if name.startswith("vector"):
        argv = ["postselect", "--pre", str(path), "--post", files["post_zero.json"],
                "--pvm", files["comp_pvm.json"]]
        plain = _state("vector", _PLUS)
    got, out, got_err = run(capsys, argv)
    assert (got, got_err) == (code, err.replace("{path}", str(path)))
    assert (out != "") == (code == 0)
    if code == 0:
        _same_report(capsys, argv, path, data, plain, out)


def test_nest_too_deep_for_orjson_takes_json_path(tmp_path):
    # a balanced nest between the opening and the first closing run of brackets; orjson
    # 3.8 would recurse 200k levels deep on it and overflow the C stack
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_bytes(_state("density", "[[[" + "0,[" * depth + "0" + "] " * depth + "]]]"))
    proc = invariance.cli_subprocess([["entropy", "--in", str(path)]], "1")
    assert proc.stdout == b"exit 2\n"
    assert proc.stderr == _RECURSION.replace("{path}", str(path)).encode()


# Errors that name which file of several is bad: (argv, exit code, exact stderr), with
# {name} for a path. Files load in the order of the usage line, so the first bad one is
# reported; --dims is read with the flags, before any file, and checked after the load.
_MISSING_FILE = "parse error: {missing}: [Errno 2] No such file or directory: '{missing}'\n"
_BAD_JSON = (
    "parse error: {bad_json}: Expecting property name enclosed in double quotes:"
    " line 1 column 2 (char 1)\n"
)
_NOT_DENSITY = "validation error: trace 1.8 differs from 1 beyond 1.0e-09\n"


def _wrong_kind(name, kind):
    key = "blocks" if kind == "pvm" else "matrix"
    return f"parse error: {{{name}}}: expected an object with kind {kind!r} and {key!r}\n"


FIRST_BAD_FILE_CASES = {
    "divergence-missing-then-bad-json": (
        ["divergence", "{missing}", "{bad_json}"], 2, _MISSING_FILE),
    "divergence-not-density-then-bad-json": (
        ["divergence", "{not_density}", "{bad_json}"], 3, _NOT_DENSITY),
    "divergence-good-then-vector": (
        ["divergence", "{mixed}", "{vector}"], 2, _wrong_kind("vector", "density")),
    "entropy-bad-json-then-missing-pvm": (
        ["entropy", "--in", "{bad_json}", "--pvm", "{missing}"], 2, _BAD_JSON),
    "entropy-not-density-then-bad-json-pvm": (
        ["entropy", "--in", "{not_density}", "--pvm", "{bad_json}"], 3, _NOT_DENSITY),
    "entropy-good-then-vector-as-pvm": (
        ["entropy", "--in", "{mixed}", "--pvm", "{vector}"], 2, _wrong_kind("vector", "pvm")),
    "postselect-missing-pre": (
        ["postselect", "--pre", "{missing}", "--post", "{bad_json}", "--pvm", "{missing}"],
        2, _MISSING_FILE),
    "postselect-density-as-post": (
        ["postselect", "--pre", "{vector}", "--post", "{mixed}", "--pvm", "{bad_json}"],
        2, _wrong_kind("mixed", "vector")),
    "postselect-density-as-pvm": (
        ["postselect", "--pre", "{vector}", "--post", "{post}", "--pvm", "{mixed}"],
        2, _wrong_kind("mixed", "pvm")),
    "sample-missing-pvm": (
        ["sample", "--in", "{mixed}", "--pvm", "{missing}"], 2, _MISSING_FILE),
    "sample-vector-then-bad-json": (
        ["sample", "--in", "{vector}", "--pvm", "{bad_json}"], 2,
        _wrong_kind("vector", "density")),
    "sample-not-density-then-missing": (
        ["sample", "--in", "{not_density}", "--pvm", "{missing}"], 3, _NOT_DENSITY),
    "relative-bad-json-and-zero-dim": (
        ["relative", "--in", "{bad_json}", "--dims", "0,2"], 2, _BAD_JSON),
    "relative-not-density-and-wrong-dims": (
        ["relative", "--in", "{not_density}", "--dims", "2,2"], 3, _NOT_DENSITY),
    "relative-missing-file-and-unparsable-dims": (
        ["relative", "--in", "{missing}", "--dims", "2,x"], 2,
        "qlogent relative: error: argument --dims: expected comma-separated integers,"
        " got '2,x'\n"),
}


@pytest.mark.parametrize("name", sorted(FIRST_BAD_FILE_CASES))
def test_first_bad_file_is_reported(files, capsys, tmp_path, name):
    argv, code, err = FIRST_BAD_FILE_CASES[name]
    paths = {
        "missing": str(tmp_path / "missing.json"),
        "bad_json": files["not_json.json"],
        "not_density": files["not_density.json"],
        "mixed": files["mixed.json"],
        "vector": files["pre_plus.json"],
        "post": files["post_zero.json"],
    }
    try:
        got = cli.main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # a flag argparse cannot read
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, "", err.format(**paths))


# Exit 3 from the density validation: (matrix, exact stderr)
INVALID_DENSITIES = {
    "off-hermitian": (
        np.array([[0.5, 1e-6], [0.0, 0.5]]), "validation error: not Hermitian: defect 1.000e-06\n"),
    "negative-eigenvalue": (
        np.diag([0.6, 0.5, -0.1]),
        "validation error: negative eigenvalue -1.000e-01 beyond -1.0e-09\n"),
}


@pytest.mark.parametrize("name", sorted(INVALID_DENSITIES))
def test_invalid_density_is_reported(capsys, tmp_path, name):
    mat, err = INVALID_DENSITIES[name]
    path = tmp_path / "rho.json"
    reports.write_matrix_file(str(path), "density", mat)
    assert run(capsys, ["entropy", "--in", str(path)]) == (3, "", err)


def _perturbed_fine_pvm(defect):
    """Blocks of a fine d = 16 PVM from a Haar basis, with block 5 made non-Hermitian or
    non-idempotent by 2e-9, or turned by 1e-8 off its basis vector, so that the blocks no
    longer sum to identity."""
    basis = sample_unitary(16, 16)
    blocks = np.einsum("ik,jk->kij", basis, basis.conj())
    if defect == "hermitian":
        blocks[5, 0, 1] += 2e-9
    elif defect == "idempotent":
        blocks[5] += 2e-9 * np.eye(16)
    elif defect == "sum":
        u = basis[:, 5] + 1e-8 * basis[:, 6]
        blocks[5] = np.outer(u, u.conj()) / np.vdot(u, u).real
    return blocks


# Exit 3 from the PVM checks that a certificate may skip: (defect, exact stderr)
INVALID_FINE_PVMS = {
    "hermitian": "validation error: hermiticity defect 2.000e-09 exceeds 1.0e-09\n",
    "idempotent": "validation error: block 5 not idempotent\n",
    "sum": "validation error: PVM blocks do not sum to identity\n",
}


@pytest.mark.parametrize("defect", sorted(INVALID_FINE_PVMS))
def test_invalid_fine_pvm_is_reported(capsys, tmp_path, defect):
    # the certificate shows the drawn blocks, so its bounds decide whether the checks run
    assert qs._certificate(_perturbed_fine_pvm(None)) == (True, True)
    blocks = _perturbed_fine_pvm(defect)
    assert not qs._certificate(blocks)[0]
    rho, pvm = tmp_path / "rho.json", tmp_path / "pvm.json"
    reports.write_matrix_file(str(rho), "density", sample_density(1, 16).mat)
    reports.write_matrix_file(str(pvm), "pvm", blocks)
    argv = ["entropy", "--in", str(rho), "--pvm", str(pvm)]
    assert run(capsys, argv) == (3, "", INVALID_FINE_PVMS[defect])


def _object_dtype_decode(entries, ndim):
    """pairs_to_array as one object-dtype classification of the whole input."""
    a = np.array(entries, dtype=object)
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or 0 in a.shape:
        name = "vector" if ndim == 1 else "matrix"
        raise reports.ParseError(f"expected a non-empty rectangular {name} of [re, im] pairs")
    if not set(map(type, a.flat)) <= {int, float}:
        raise reports.ParseError("expected [re, im] pairs of finite numbers")
    try:
        a = a.astype(float)
    except OverflowError:
        raise reports.ParseError("expected [re, im] pairs of finite numbers") from None
    if not np.isfinite(a).all():
        raise reports.ParseError("expected [re, im] pairs of finite numbers")
    return a.view(complex)[..., 0]


_NUMBERS = st.integers(-3, 3) | st.floats(-2.0, 2.0)
_ODD_ENTRIES = st.sampled_from(
    [2**53 + 1, 2**70, 10**400, 1e308, -0.0, 5e-324, float("nan"), float("inf"),
     True, False, None, "1", [], {}]
)
# in place of a whole pair: pairs_to_array checks that level by len alone
_ODD_PAIRS = [{"re": 1, "im": 0}, "10", 1, 0.5, None, True, False]


@st.composite
def _nested_pairs(draw):
    """(entries, ndim): a rectangular nest of [re, im] pairs of numbers, or one with a
    defect: a level too many or too few, a wrong pair length, an empty or ragged list, an
    entry that is not a finite number, or a pair that is not a list."""
    ndim = draw(st.sampled_from([1, 2]))
    defect = draw(
        st.sampled_from(["none", "none", "levels", "pair", "list", "entry", "odd pair"])
    )
    depth = ndim + (draw(st.sampled_from([-1, 1])) if defect == "levels" else 0)
    shape = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))
    shape.append(draw(st.sampled_from([0, 1, 3])) if defect == "pair" else 2)

    def build(level):
        if level == len(shape) - 1 and defect == "odd pair" and draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(_ODD_PAIRS))
        if level == len(shape):
            odd = defect == "entry" and draw(st.integers(0, 3)) == 0
            return draw(_ODD_ENTRIES if odd else _NUMBERS)
        n = shape[level] + (draw(st.sampled_from([0, 0, 0, -1, 1])) if defect == "list" else 0)
        return [build(level + 1) for _ in range(max(n, 0))]

    return build(0), ndim


def _numbers_only(x) -> bool:
    """No bool, str, None or dict anywhere in the nest: the only inputs that
    reports._decode_json's byte check hands to pairs_to_array with numbers=True."""
    return all(map(_numbers_only, x)) if isinstance(x, list) else type(x) in (int, float)


def _assert_decodes_as_classified(entries, ndim, **kwargs):
    try:
        expected = _object_dtype_decode(entries, ndim)
    except reports.ParseError as exc:
        with pytest.raises(reports.ParseError) as got:
            reports.pairs_to_array(entries, ndim, **kwargs)
        assert str(got.value) == str(exc)
    else:
        got = reports.pairs_to_array(entries, ndim, **kwargs)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_nested_pairs())
# numbers only, with a level too many, pair lengths that make up each other's difference,
# an empty pair and an integer beyond the float range
@example(([[[[1, 2], 3]]], 2))
@example(([[[1, 2, 3], [4]]], 2))
@example(([[[1, 2], []]], 2))
@example(([[], [1, 2]], 1))
@example(([[[10**400, 0]]], 2))
def test_pairs_to_array_matches_the_object_dtype_classification(case):
    entries, ndim = case
    _assert_decodes_as_classified(entries, ndim)
    if _numbers_only(entries):
        _assert_decodes_as_classified(entries, ndim, numbers=True)


@pytest.mark.parametrize("odd", _ODD_PAIRS, ids=repr)
@pytest.mark.parametrize("ndim", [1, 2])
def test_odd_value_at_the_pair_level(ndim, odd):
    pairs = [[0.5, 0], odd, [1, 2]]
    entries = pairs if ndim == 1 else [pairs, [[1, 0]] * 3, [[0, 1]] * 3]
    with pytest.raises(reports.ParseError) as expected:
        _object_dtype_decode(entries, ndim)
    with pytest.raises(reports.ParseError) as got:
        reports.pairs_to_array(entries, ndim)
    assert str(got.value) == str(expected.value)


# in place of the orjson module in reports: every read steps aside to json
_ORJSON_OFF = mock.Mock(**{"loads.side_effect": ValueError("orjson is off")})


def _decoded(text, kind, orjson=reports.orjson):
    """reports._decode_json's document, or its error, as a flat list of tokens in which
    arrays and floats are their bytes, so that == compares types and bits (built without
    recursion: a document may nest a thousand levels deep)."""
    with mock.patch.object(reports, "orjson", orjson):
        try:
            stack = [reports._decode_json(text, kind)]
        except (ValueError, RecursionError) as exc:
            return [type(exc), str(exc)]
    tokens = []
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            tokens.append(("dict", len(x)))
            for key, value in reversed(x.items()):
                stack += [value, key]
        elif isinstance(x, list):
            tokens.append(("list", len(x)))
            stack.extend(reversed(x))
        elif isinstance(x, np.ndarray):
            tokens.append(("array", x.dtype.str, x.shape, x.tobytes()))
        elif isinstance(x, float):
            tokens.append(("float", struct.pack("<d", x)))
        else:
            tokens.append((type(x), x))
    return tokens


def _halfway(x: float) -> str:
    """The exact decimal midpoint between x and the next double away from zero (or
    toward it, at the largest double), which must round to even."""
    y = math.nextafter(x, math.copysign(math.inf, x))
    if math.isinf(y):
        y = math.nextafter(x, 0.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        return str((decimal.Decimal(x) + decimal.Decimal(y)) / 2)


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
_SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
_NEAR_64_BITS = [2**63 + k for k in (-1, 0, 1)] + [2**64 + k for k in (-1, 0, 1)]
# numbers that json and orjson both read to the same finite double
_SPELLINGS = st.one_of(
    _DOUBLES.map(repr),
    _DOUBLES.map(lambda x: f"{x:.16e}"),
    (_DOUBLES | _SUBNORMALS).map(_halfway),
    _DOUBLES.map(lambda x: f"{decimal.Decimal(_halfway(x)):.16e}"),
    _SUBNORMALS.map(repr),
    st.integers(-(10**300), 10**300).filter(lambda n: abs(n) >= 10**18).map(str),
    st.sampled_from(_NEAR_64_BITS + [-n for n in _NEAR_64_BITS]).map(str),
    st.sampled_from([
        "-0", "-0.0", "-0e0", "0", "5e-324", "2.4703282292062328e-324",
        "2.4703282292062327e-324", "1e-400", "1.7976931348623157e308",
        "1.7976931348623158e308",
    ]),
)
# spellings json reads and orjson refuses, or that no pair may hold
_REFUSALS = st.one_of(
    st.sampled_from([
        "NaN", "Infinity", "-Infinity", '"\\ud800"', '"\\udc00x"', '"\ud800"', "true", "null",
        "1.7976931348623159e308", "1e400", "-1e400", "[]", "[0, 0]",
    ]),
    st.integers(10**309, 10**400).map(str),
    st.integers(900, 1100).map(lambda n: "[" * n + "0" + "]" * n),
)
_PADS = st.sampled_from(["", " ", "\n", "\n  ", "\t"])


@st.composite
def _matrix_texts(draw):
    """(kind, texts): one density, vector or pvm file spelled with hard numbers, now and
    then ragged or holding a refusal, a decodable "dims" or an extra key, as compact text
    and as text with whitespace."""
    kind = draw(st.sampled_from(["density", "vector", "pvm"]))
    d = draw(st.integers(1, 3))
    shape = {"vector": [d], "density": [d, d], "pvm": [draw(st.integers(1, 3)), d, d]}[kind]
    leaves = 2 * math.prod(shape)
    refused = draw(st.sets(st.integers(0, leaves - 1), max_size=2))
    ragged = draw(st.booleans())
    leaf = iter(range(leaves))

    def tree(level):
        if level == len(shape):
            return [draw(_REFUSALS if next(leaf) in refused else _SPELLINGS) for _ in "re"]
        items = [tree(level + 1) for _ in range(shape[level])]
        if ragged and level == len(shape) - 1 and draw(st.booleans()):
            items.pop()
        return items

    matrix = tree(0)
    extras = draw(st.lists(st.sampled_from(['"dims": [2]', '"dims": [[2, 0]]',
                                            '"x": [[[1, 0]]]', '"x": "[[["']), max_size=2))
    order = draw(st.permutations(range(2 + len(extras))))
    texts = []
    for pads, comma in (([""] * 4, ","), ([draw(_PADS) for _ in range(4)], "," + draw(_PADS))):

        def spell(node, level=0):
            if isinstance(node, str):
                return node
            inner = comma.join(spell(item, level + 1) for item in node)
            return "[" + pads[level] + inner + pads[level] + "]"

        items = [f'"kind": "{kind}"', f'"{"blocks" if kind == "pvm" else "matrix"}": '
                 + spell(matrix), *extras]
        texts.append("{" + comma.join(items[i] for i in order) + "}")
    return kind, texts


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrix_texts())
# files that orjson reads whole, with -0, 2^64 + 1, a subnormal's halfway point, the largest
# double's rounding boundary and halfway spellings
@example(("density", ['{"kind":"density","matrix":[[[-0.0,18446744073709551617],'
                      '[2.4703282292062328e-324,1.7976931348623158e308]],'
                      '[[-0e0,-9223372036854775809],[5e-324,0.30000000000000004]]]}']))
@example(("pvm", ['{"kind":"pvm","blocks":[[[[-0.0,0],[1e-400,-0e-5]]],'
                  '[[[9007199254740993,-2.2250738585072011e-308]]]]}']))
@example(("vector", ['{"kind":"vector","matrix":[[-0.0,1.00000000000000011102230246251565]]}']))
# a ragged matrix that orjson parses, with an integer it reads as a float and json as an int
@example(("density", ['{"kind":"density","matrix":[[[18446744073709551617,0],[1,0]],[[1,0]]]}']))
def test_orjson_reads_what_json_reads(case):
    # wherever orjson's read is kept, json's scanner gives the same value, bit for bit
    kind, texts = case
    for text in texts:
        assert _decoded(text, kind) == _decoded(text, kind, _ORJSON_OFF)


def test_orjson_reads_every_array_of_a_compact_file(large_inputs, monkeypatch):
    spy = mock.Mock(wraps=reports.orjson)
    decode = mock.Mock(wraps=reports.pairs_to_array)
    monkeypatch.setattr(reports, "orjson", spy)
    monkeypatch.setattr(reports, "pairs_to_array", decode)
    rho_path, pvm_path = large_inputs
    rho, _ = reports.load_matrix_file(str(rho_path), "density")
    pvm, _ = reports.load_matrix_file(str(pvm_path), "pvm")
    assert spy.loads.call_count == 1 + 32
    # the bytes of every array hold only numbers, so each decodes in one pass
    assert [c.kwargs for c in decode.call_args_list] == [{"numbers": True}] * (1 + 32)
    decode.reset_mock()
    # an indented file takes json's path and the full leaf check, to the same arrays
    for path in large_inputs:
        path.with_suffix(".indented").write_text(json.dumps(json.loads(path.read_text()), indent=1))
    rho_json, _ = reports.load_matrix_file(str(rho_path.with_suffix(".indented")), "density")
    pvm_json, _ = reports.load_matrix_file(str(pvm_path.with_suffix(".indented")), "pvm")
    assert spy.loads.call_count == 1 + 32
    assert [c.kwargs for c in decode.call_args_list] == [{}] * (1 + 32)
    assert rho.mat.tobytes() == rho_json.mat.tobytes()
    assert pvm.blocks.tobytes() == pvm_json.blocks.tobytes()


@pytest.mark.parametrize("value", ['"1"', "{}", "true", "false", "null"])
def test_orjson_read_of_a_non_number_takes_the_leaf_check(tmp_path, monkeypatch, value):
    # the byte that opens each of these values sends its span past orjson to json, whose
    # array the full leaf check refuses
    spy = mock.Mock(wraps=reports.orjson)
    decode = mock.Mock(wraps=reports.pairs_to_array)
    monkeypatch.setattr(reports, "orjson", spy)
    monkeypatch.setattr(reports, "pairs_to_array", decode)
    path = tmp_path / "v.json"
    path.write_text(f'{{"kind":"vector","matrix":[[0.5,{value}],[1e3,-0]]}}')
    with pytest.raises(reports.ParseError) as exc:
        reports.load_matrix_file(str(path), "vector")
    assert str(exc.value) == f"{path}: expected [re, im] pairs of finite numbers"
    assert spy.loads.call_count == 0
    assert decode.called
    assert all(c.kwargs == {} for c in decode.call_args_list)


class TestMatrixFileRoundTrip:
    def test_density_bit_identical(self, tmp_path):
        rho = sample_density(77, 4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        reports.write_matrix_file(str(p1), "density", rho.mat)
        loaded, _ = reports.load_matrix_file(str(p1), "density")
        reports.write_matrix_file(str(p2), "density", loaded.mat)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vector_round_trip(self, tmp_path):
        v = np.array([0.5 + 0.1j, -0.3j, 0.2, 0.7])
        p = tmp_path / "v.json"
        reports.write_matrix_file(str(p), "vector", v)
        loaded, _ = reports.load_matrix_file(str(p), "vector")
        assert np.array_equal(loaded, v)

    def test_pvm_round_trip(self, tmp_path):
        # fine, coarse and trivial PVMs, written from a stack and from a list of blocks
        for groups in (None, [2, 1, 3], [6]):
            pvm = sample_pvm(5, 6, groups)
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            write_pvm(p1, pvm)
            loaded, _ = reports.load_matrix_file(str(p1), "pvm")
            assert np.array_equal(loaded.blocks, pvm.blocks)
            assert loaded.non_degenerate == (groups is None)
            reports.write_matrix_file(str(p2), "pvm", list(loaded.blocks))
            assert p1.read_bytes() == p2.read_bytes()

    def test_pvm_needs_a_stack_of_blocks(self, tmp_path):
        with pytest.raises(DimensionMismatchError, match=r"\(k, d, d\)"):
            reports.write_matrix_file(str(tmp_path / "p.json"), "pvm", np.eye(2))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 1), ()])
    def test_vector_needs_one_axis(self, tmp_path, shape):
        path = tmp_path / "v.json"
        with pytest.raises(DimensionMismatchError, match=r"1-D vector"):
            reports.write_matrix_file(str(path), "vector", np.ones(shape))
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["densty", "Density", "matrix"])
    def test_unknown_kind_writes_no_file(self, tmp_path, kind):
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=r"^kind must be 'density', 'vector' or 'pvm'"):
            reports.write_matrix_file(str(path), kind, np.eye(2) / 2)
        assert not path.exists()


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """load_matrix_file pauses the cyclic collector while the parsed lists live,
    and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_kept(self, files, tmp_path, restore_gc, enabled):
        (gc.enable if enabled else gc.disable)()
        reports.load_matrix_file(files["comp_pvm.json"], "pvm")
        assert gc.isenabled() == enabled
        bad_pair = tmp_path / "bad_pair.json"
        bad_pair.write_text('{"kind": "vector", "matrix": [[1.0, true]]}')
        for path, kind in ((files["not_json.json"], "density"), (bad_pair, "vector")):
            with pytest.raises(reports.ParseError):
                reports.load_matrix_file(str(path), kind)
            assert gc.isenabled() == enabled

    def test_paused_until_the_decode_ends(self, files, monkeypatch):
        seen = []

        def spy(name, fn):
            def call(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return fn(*args, **kwargs)

            monkeypatch.setattr(reports, name, call)

        spy("pairs_to_array", reports.pairs_to_array)
        spy("Pvm", reports.Pvm)
        reports.load_matrix_file(files["comp_pvm.json"], "pvm")
        assert seen == [("pairs_to_array", False)] * 2 + [("Pvm", True)]


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """A d = 32 state and fine PVM."""
    tmp = tmp_path_factory.mktemp("large")
    rho, pvm = tmp / "rho_32.json", tmp / "pvm_32.json"
    reports.write_matrix_file(str(rho), "density", sample_density(3, 32).mat)
    write_pvm(pvm, sample_pvm(3, 32))
    return rho, pvm


class TestFileDigest:
    """Every file is hashed inline, whatever its size; the report holds hashlib's digest
    of its bytes. The state file is below 1 MiB and the PVM file above it."""

    def test_digests_of_files_on_both_sides(self, capsys, large_inputs):
        rho, pvm = large_inputs
        assert rho.stat().st_size < 1 << 20 <= pvm.stat().st_size
        doc = run_json(capsys, ["entropy", "--in", str(rho), "--pvm", str(pvm)])
        for name, path in (("rho", rho), ("pvm", pvm)):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert doc["inputs"][name] == {"path": str(path), "sha256": digest}

    @pytest.mark.parametrize("large", [True, False])
    def test_hashing_error_is_raised(self, monkeypatch, large_inputs, large):
        class FailingHash:
            def __init__(self, data=b""):
                self.update(data)

            def update(self, data):
                raise RuntimeError("hashing failed")

            def hexdigest(self):
                raise AssertionError("a digest of a failed hash")

        monkeypatch.setattr(reports.hashlib, "sha256", FailingHash)
        rho, pvm = large_inputs
        path, kind = (pvm, "pvm") if large else (rho, "density")
        with pytest.raises(RuntimeError, match="^hashing failed$"):
            reports.load_matrix_file(str(path), kind)

    def test_truncated_large_file_fails_in_json(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_bytes(b'{"kind": "pvm", "blocks": [' + b" " * (1 << 20))
        with pytest.raises(reports.ParseError, match=f"^{re.escape(str(path))}: Expecting"):
            reports.load_matrix_file(str(path), "pvm")

    def test_large_file_starts_no_thread(self, large_inputs, started_threads):
        reports.load_matrix_file(str(large_inputs[1]), "pvm")
        assert started_threads == []


def test_entropy_reports_the_validation_spectrum(monkeypatch, large_inputs):
    rho, _ = reports.load_matrix_file(str(large_inputs[0]), "density")
    solves = []
    monkeypatch.setattr(qs, "hermitian_eigvals", lambda m: solves.append(m))
    results, _ = cli.cmd_entropy(None, rho)
    assert solves == []
    expected = la.hermitian_eigvals(rho.mat)
    assert results["eigenvalues"].tobytes() == expected.tobytes()
    results["eigenvalues"][:] = 0.0
    assert rho.eigenvalues().tobytes() == expected.tobytes()


def test_fine_pvm_load_peak_stays_near_the_file_size(tmp_path):
    # the file's bytes and their decoded text are alive together (2x); the parsed lists of
    # one block at a time and the decoded blocks stay well under the remaining 0.5x
    d = 32
    basis, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((d, d, 2)).view(complex)[..., 0])
    path = tmp_path / "fine_32.json"
    reports.write_matrix_file(str(path), "pvm", np.einsum("ik,jk->kij", basis, basis.conj()))
    tracemalloc.start()
    try:
        pvm, _ = reports.load_matrix_file(str(path), "pvm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pvm.blocks.shape == (d, d, d)
    assert peak <= 2.5 * path.stat().st_size, (peak, path.stat().st_size)


class TestStableJson:
    def test_sorted_keys_and_float_format(self):
        out = reports.dumps_stable({"b": 0.1, "a": 2.0, "c": [1, True, None]})
        assert out == '{"a":2.0,"b":0.1,"c":[1,true,null]}'

    def test_complex_as_pair(self):
        assert reports.dumps_stable(1 - 2j) == "[1.0,-2.0]"

    def test_integral_floats_stay_floats(self):
        out = reports.dumps_stable([1e16, -5e16, 1e17, 2.0**53, -0.0])
        assert out == "[1e+16,-5e+16,1e+17,9007199254740992.0,-0.0]"

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            reports.dumps_stable(float("nan"))

    @pytest.mark.parametrize(
        "value", [float("inf"), -float("inf"), [1.0, {"x": float("inf")}],
                  complex(0, float("nan")), np.float64("-inf"), np.array([1.0, np.nan])]
    )
    def test_rejects_non_finite_anywhere(self, value):
        with pytest.raises(ValueError):
            reports.dumps_stable(value)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"x", [np.datetime64("2020-01-01")]])
    def test_rejects_unknown_types(self, value):
        with pytest.raises(TypeError):
            reports.dumps_stable(value)

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_parses_to_the_plain_form(self, value):
        parsed = json.loads(reports.dumps_stable(value))
        assert_same_plain(parsed, _plain(value))

    def test_round_trips_through_standard_parser(self):
        doc = {"x": [1.25, -3.5e-17], "y": {"z": 0.3333333333333333}}
        assert json.loads(reports.dumps_stable(doc)) == doc


class TestParserReuse:
    """main parses with one parser built at import; no call leaks into the next."""

    VERIFY = ["verify", "--prop", "1a", "--trials", "2"]

    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        def rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuild)
        code, _, err = run(capsys, self.VERIFY)
        assert code == 0, err

    def test_defaults_are_immutable(self):
        parsers = [cli.PARSER]
        for parser in parsers:  # grows as subparsers are found
            defaults = [action.default for action in parser._actions]
            for value in defaults + list(parser._defaults.values()):
                assert not isinstance(value, (list, dict, set)), (parser.prog, value)
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert len(parsers) == 7

    def test_reuse_is_isolated(self, files):
        argvs = [
            ["verify", "--prop", "1a", "--dims", "3", "--trials", "2"],
            ["verify", "--prop", "1a", "--trials", "2"],
            ["entropy", "--in", files["mixed.json"]],
        ]
        batch = invariance.cli_subprocess(argvs, "1")
        fresh = [invariance.cli_subprocess([argv], "1") for argv in argvs]
        assert batch.returncode == 0, batch.stderr
        assert batch.stdout.count(b"exit 0\n") == len(argvs), batch.stderr
        assert batch.stdout == b"".join(proc.stdout for proc in fresh)

    @pytest.mark.parametrize("exiting, status", [(["verify", "--dims", "x"], 2), (["--help"], 0)])
    def test_same_report_after_an_exit(self, capsys, exiting, status):
        before = run(capsys, self.VERIFY)
        with pytest.raises(SystemExit) as exc:
            cli.main(exiting)
        assert exc.value.code == status
        capsys.readouterr()
        assert run(capsys, self.VERIFY) == before


@pytest.fixture(scope="module")
def invariance_failures():
    # the table runs once: every file command at d = 2, 8, 32 and 64 (the eigensolver limit)
    # and verify at small dims, under 2 (and with more than 2 CPUs 4) BLAS threads, on one
    # CPU and from indented files against 1 thread on all CPUs; CI runs it at d = 64 through
    # the installed command. Each failure is "variant: row: ..." or "variant: ran ..."
    return [failure.split(": ", 1) for failure in invariance.check([2, 8, 32, 64])]


def test_reports_are_invariant_under_threads_cpus_and_indentation(invariance_failures):
    assert invariance_failures == []


class TestBlasThreadDeterminism:
    """Every report is byte-identical under 1 and 2 (4 on more than 2 CPUs) BLAS threads up to
    the eigensolver limit; dimensions above it exit 4 before any work."""

    def test_reports_identical_up_to_the_dimension_limit(self, invariance_failures):
        assert [f for f in invariance_failures
                if f[0] == "base" or f[0].endswith(" BLAS threads")] == []

    def test_prop6_above_its_limit_exits_4_before_any_proposition(
        self, capsys, no_proposition_runs
    ):
        code, out, err = run(capsys, ["verify", "--prop", "1a,6", "--dims", "2,33"])
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("dimension mismatch: prop 6")

    @pytest.mark.parametrize(
        "flags",
        [["--prop", "1a", "--dims", "65", "--trials", "2"], ["--dims", "1500", "--trials", "128"]],
    )
    def test_verify_dims_above_the_eigensolver_limit_exit_4_before_any_proposition(
        self, capsys, no_proposition_runs, flags
    ):
        # at d = 1500 a 128-trial block would allocate 4.3 GiB stacks
        code, out, err = run(capsys, ["verify", *flags])
        assert (code, out) == (4, "")
        assert err == "dimension mismatch: verify takes dims up to 64, the eigensolver limit\n"

    def test_dimension_above_limit_exits_4(self, tmp_path):
        path = tmp_path / "rho_65.json"
        reports.write_matrix_file(str(path), "density", np.eye(65) / 65)
        proc = invariance.cli_subprocess([["entropy", "--in", str(path)]], "1")
        assert proc.stdout == b"exit 4\n"
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(b"dimension mismatch:")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
class TestCpuCountDeterminism:
    """sample splits each Monte Carlo chunk over the usable CPUs; its report does not change."""

    def test_sample_identical_on_one_cpu_and_on_all(self, invariance_failures):
        assert [f for f in invariance_failures if f[0] in ("base", "one CPU")
                and f[1].startswith(("sample ", "ran "))] == []


# Inputs of the pinned command reports, drawn with numpy.random.default_rng and written
# with the stdlib json module, never with qlogent's samplers or writer. Each entry is a
# Gaussian-integer sum divided by one positive number (an integer, or for a unit vector
# the square root of one): the sums are exact in floats whatever BLAS adds them, and each
# division rounds once, so every file has the same bytes (and the pinned sha256) on any
# machine.
PINNED_DIMS = (2, 8, 64)


def _gaussian_integers(rng, shape, high=3):
    return rng.integers(-high, high + 1, shape) + 1j * rng.integers(-high, high + 1, shape)


def _write_exact(path, kind, key, numerators, denominator):
    # + 0.0 turns a -0.0 of the exact sums into 0.0
    num = np.asarray(numerators) + 0.0
    pairs = np.stack([num.real / denominator, num.imag / denominator], -1).tolist()
    path.write_text(json.dumps({"kind": kind, key: pairs}, separators=(",", ":")) + "\n")


def _orthogonal_columns(rng, d):
    """Gaussian-integer d x d matrix with orthogonal columns of one squared norm, the Kronecker
    product of [[a, -b*], [b, a*]] blocks with its rows and columns shuffled; and that norm."""
    u, norm = np.ones((1, 1)), 1
    while u.shape[0] < d:
        a, b = _gaussian_integers(rng, 2, 2)
        if a == b == 0:
            continue
        u = np.kron(u, np.array([[a, -b.conjugate()], [b, a.conjugate()]]))
        norm *= int(abs(a) ** 2 + abs(b) ** 2)
    return u[rng.permutation(d)][:, rng.permutation(d)], norm


def _write_exact_pvm(path, rng, d, groups):
    u, norm = _orthogonal_columns(rng, d)
    edges = np.cumsum([0, *groups])
    blocks = [u[:, i:j] @ u[:, i:j].conj().T for i, j in zip(edges, edges[1:])]
    _write_exact(path, "pvm", "blocks", blocks, norm)


def _write_exact_unit_vector(path, rng, d):
    v = _gaussian_integers(rng, d)
    _write_exact(path, "vector", "matrix", v, np.sqrt(float(np.vdot(v, v).real)))


def _pinned_argvs(rng, d):
    """Files for one dimension in the working directory, and the argv of each pinned case."""
    g = _gaussian_integers(rng, (d, d))
    gram = g @ g.conj().T
    _write_exact(Path(f"full_{d}.json"), "density", "matrix", gram, float(np.trace(gram).real))
    psi = _gaussian_integers(rng, d)
    _write_exact(Path(f"rank1_{d}.json"), "density", "matrix", np.outer(psi, psi.conj()),
                 float(np.vdot(psi, psi).real))
    weights = rng.integers(1, 10, d)
    _write_exact(Path(f"diag_{d}.json"), "density", "matrix", np.diag(weights), float(weights.sum()))
    _write_exact_pvm(Path(f"fine_{d}.json"), rng, d, [1] * d)
    _write_exact_pvm(Path(f"coarse_{d}.json"), rng, d, [d] if d == 2 else [d // 2, d // 2])
    _write_exact_unit_vector(Path(f"pre_{d}.json"), rng, d)
    _write_exact_unit_vector(Path(f"post_{d}.json"), rng, d)
    full, rank1, diag, fine, coarse = (
        f"{name}_{d}.json" for name in ("full", "rank1", "diag", "fine", "coarse")
    )
    return {
        f"entropy-full-{d}": ["entropy", "--in", full],
        f"entropy-full-fine-{d}": ["entropy", "--in", full, "--pvm", fine],
        f"entropy-rank1-coarse-{d}": ["entropy", "--in", rank1, "--pvm", coarse],
        f"divergence-full-rank1-{d}": ["divergence", full, rank1],
        f"divergence-diag-full-{d}": ["divergence", diag, full],
        f"relative-full-{d}": ["relative", "--in", full, "--dims", f"2,{d // 2}"],
        f"postselect-fine-{d}": ["postselect", "--pre", f"pre_{d}.json", "--post",
                                 f"post_{d}.json", "--pvm", fine],
        f"sample-full-fine-{d}": ["sample", "--in", full, "--pvm", fine, "--trials", "5000",
                                  "--seed", "7"],
    }


def pinned_command_reports(capsys) -> dict:
    """Report of every pinned case, run in the working directory (so paths are relative)."""
    rng = np.random.default_rng(20211)
    argvs = {name: argv for d in PINNED_DIMS for name, argv in _pinned_argvs(rng, d).items()}
    return {name: run_json(capsys, argv) for name, argv in argvs.items()}


def test_command_reports_are_pinned(capsys, tmp_path, monkeypatch):
    # every command but verify (pinned on its own above) on full-rank, rank-1 and diagonal
    # states, fine and coarse PVMs, d = 2, 8 and 64
    monkeypatch.chdir(tmp_path)
    pinned = json.loads((DATA / "command_reports.json").read_text())
    assert_report_matches(pinned_command_reports(capsys), pinned)
