import argparse
import gc
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlogent
from qlogent import cli, reports
from qlogent.linalg import DimensionMismatchError
from qlogent.sampling import sample_density, sample_pvm, sample_state_vector
from qlogent.states import DensityMatrix, Pvm


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
        assert fresh == pinned, (path, fresh, pinned)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_default_report_numbers_are_pinned(self, capsys):
        # a checker refactor must not move a worst_violation, a count or the witness
        pinned = json.loads((DATA / "verify_seed42_trials1000.json").read_text())
        fresh = run_json(capsys, ["verify", "--trials", "1000", "--seed", "42"])
        assert_report_matches(fresh, pinned)
        assert fresh["results"]["ssa"]["witness"] == pinned["results"]["ssa"]["witness"]


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
        self, capsys, monkeypatch, flags, phrase
    ):
        # a repeated id or dim would count the same seeded trials twice
        def never(*_):
            raise AssertionError("a proposition ran")

        monkeypatch.setattr(cli, "verify_proposition", never)
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
            def call(*args):
                seen.append((name, gc.isenabled()))
                return fn(*args)

            monkeypatch.setattr(reports, name, call)

        spy("pairs_to_array", reports.pairs_to_array)
        spy("Pvm", reports.Pvm)
        reports.load_matrix_file(files["comp_pvm.json"], "pvm")
        assert seen == [("pairs_to_array", False)] * 2 + [("Pvm", True)]


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


# Runs each argv (a JSON list on stdin) through cli.main in one interpreter and
# prints every report followed by its exit code.
_BATCH_SCRIPT = """
import json, sys
from qlogent import cli
for argv in json.load(sys.stdin):
    code = cli.main(argv)
    sys.stdout.write(f"exit {code}\\n")
"""


_PIN_TO_ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"


def _cli_subprocess(argvs, threads: str, one_cpu: bool = False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qlogent.__file__))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return subprocess.run(
        [sys.executable, "-c", (_PIN_TO_ONE_CPU if one_cpu else "") + _BATCH_SCRIPT],
        input=json.dumps(argvs).encode(),
        capture_output=True,
        env=env,
        timeout=600,
    )


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
        batch = _cli_subprocess(argvs, "1")
        fresh = [_cli_subprocess([argv], "1") for argv in argvs]
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


class TestBlasThreadDeterminism:
    """Every eigensolver-using command is byte-identical under 1 and 4 BLAS threads."""

    def test_reports_identical_up_to_the_dimension_limit(self, tmp_path):
        argvs = []
        for d in (2, 8, 32, 64):
            rho, sigma, pvm = (tmp_path / f"{name}_{d}.json" for name in ("rho", "sigma", "pvm"))
            reports.write_matrix_file(str(rho), "density", sample_density(d, d).mat, (2, d // 2))
            reports.write_matrix_file(str(sigma), "density", sample_density(d, d, None, 1).mat)
            write_pvm(pvm, sample_pvm(d, d))
            pre, post = (tmp_path / f"{name}_{d}.json" for name in ("pre", "post"))
            reports.write_matrix_file(str(pre), "vector", sample_state_vector(d, d, 2))
            reports.write_matrix_file(str(post), "vector", sample_state_vector(d, d, 3))
            argvs += [
                ["entropy", "--in", str(rho), "--pvm", str(pvm)],
                ["divergence", str(rho), str(sigma)],
                ["relative", "--in", str(rho)],
                ["postselect", "--pre", str(pre), "--post", str(post), "--pvm", str(pvm)],
                ["sample", "--in", str(rho), "--pvm", str(pvm), "--trials", "20000"],
            ]
        # every proposition; prop 6 runs its Haar QR at joint dims 42 and 63 for d = 21,
        # and at 64 and 96 for d = 32, the largest dim it accepts
        argvs.append(["verify", "--dims", "2,3,4,21", "--trials", "20", "--seed", "5"])
        argvs.append(["verify", "--prop", "6", "--dims", "32", "--trials", "20", "--seed", "5"])
        runs = [_cli_subprocess(argvs, threads) for threads in ("1", "4")]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count(b"exit 0\n") == len(argvs), proc.stderr
        assert runs[0].stdout == runs[1].stdout

    def test_prop6_above_its_limit_exits_4_before_any_proposition(self, capsys, monkeypatch):
        def run_proposition(pid, cfg):
            raise AssertionError(f"proposition {pid} ran")

        monkeypatch.setattr(cli, "verify_proposition", run_proposition)
        code, out, err = run(capsys, ["verify", "--prop", "1a,6", "--dims", "2,33"])
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("dimension mismatch: prop 6")

    def test_dimension_above_limit_exits_4(self, tmp_path):
        path = tmp_path / "rho_65.json"
        reports.write_matrix_file(str(path), "density", np.eye(65) / 65)
        proc = _cli_subprocess([["entropy", "--in", str(path)]], "1")
        assert proc.stdout == b"exit 4\n"
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(b"dimension mismatch:")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
class TestCpuCountDeterminism:
    """sample splits each Monte Carlo chunk over the usable CPUs; its report does not change."""

    def test_sample_identical_on_one_cpu_and_on_all(self, tmp_path):
        argvs = []
        for d, groups in ((8, None), (8, [3, 5]), (64, None)):
            rho, pvm = tmp_path / f"rho_{d}.json", tmp_path / f"pvm_{d}_{groups}.json"
            reports.write_matrix_file(str(rho), "density", sample_density(d, d).mat)
            write_pvm(pvm, sample_pvm(d, d, groups))
            for trials in (2**17 + 1, 2**20 + 3):
                argvs.append(["sample", "--in", str(rho), "--pvm", str(pvm), "--trials", str(trials)])
        runs = [_cli_subprocess(argvs, "1", one_cpu) for one_cpu in (True, False)]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count(b"exit 0\n") == len(argvs), proc.stderr
        assert runs[0].stdout == runs[1].stdout
