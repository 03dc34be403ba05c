"""Tests of the benchmark itself: input generation, span self time, output checks.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import inputs
import run
import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _generate(workload: str, seed: int, root: Path) -> dict[str, bytes]:
    input_dir = root / "inputs"
    input_dir.mkdir(parents=True)
    plan = inputs.build(workload, seed, input_dir, root)
    files = {p.name: p.read_bytes() for p in sorted(input_dir.iterdir())}
    files["plan"] = json.dumps(plan, sort_keys=True).encode()
    return files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_same_seed_same_bytes(workload, tmp_path):
    assert _generate(workload, 7, tmp_path / "a") == _generate(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_other_seed_other_bytes(workload, tmp_path):
    a = _generate(workload, 7, tmp_path / "a")
    b = _generate(workload, 8, tmp_path / "b")
    assert a.keys() == b.keys()
    assert a["plan"] != b["plan"]
    assert all(a[name] != b[name] for name in a if name != "plan")


def test_self_time_on_synthetic_tree():
    tree = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("states.DensityMatrix._validated", 1.0, 4.0, 0, None),
        ("linalg.hermitian_eigvals", 2.0, 3.5, 1, 4),
        ("linalg.as_matrix", 2.5, 3.0, 2, None),
        ("linalg.as_matrix", 3.6, 3.9, 1, None),
        ("reports.dumps_stable", 5.0, 9.0, 0, 120),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.2, 1.0, 0.5, 0.3, 4.0])
    assert spans.span_groups(tree) == [
        "cli", "states.validate_density", "linalg.eigvals", "linalg.eigvals",
        "linalg", "reports.emit",
    ]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["states.validate_density_s"] == pytest.approx(1.2)
    assert m["states.validate_density_calls"] == 1
    assert m["linalg.eigvals_s"] == pytest.approx(1.5)
    assert m["linalg.eigvals_calls"] == 1
    assert m["linalg.eigvals_ms_per_call.d4"] == pytest.approx(1500.0)
    assert m["reports.emit_s"] == pytest.approx(4.0)
    assert m["reports.emit_bytes"] == 120


def _entropy_op(tmp_path: Path):
    from qlogent import cli

    rng = np.random.default_rng(3)
    rho = inputs._full_rank_state(rng, 4)
    basis = inputs._basis(rng, 4)
    blocks = inputs._projectors(basis, [1] * 4)
    w = inputs._Writer(tmp_path, tmp_path)
    argv = ["entropy", "--in", str(tmp_path / w.density("rho.json", rho)),
            "--pvm", str(tmp_path / w.pvm("pvm.json", blocks))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return checks.entropy_reference(rho, blocks, fine=True), code, out.getvalue()


def test_correct_output_passes_and_corrupted_output_is_caught(tmp_path):
    spec, code, stdout = _entropy_op(tmp_path)
    assert checks.check(spec, code, stdout) is None

    report = json.loads(stdout)
    report["results"]["eigenvalues"][1] += 1e-6
    assert "eigenvalues[1]" in checks.check(spec, code, json.dumps(report))
    assert checks.check(spec, 3, stdout) == "exit code 3"
    assert "not JSON" in checks.check(spec, code, stdout[:-5])
    del report["results"]
    assert "malformed report" in checks.check(spec, code, json.dumps(report))


def test_verify_and_sample_checks_catch_bad_reports():
    spec = {"kind": "verify", "prop": "5", "trials": 50}
    good = {"results": {"5": {"status": "verified", "trials_run": 50}}}
    assert checks.check(spec, 0, json.dumps(good)) is None
    short = {"results": {"5": {"status": "verified", "trials_run": 49}}}
    assert "trials_run" in checks.check(spec, 0, json.dumps(short))
    violated = {"results": {"5": {"status": "violated", "trials_run": 50}}}
    assert "status" in checks.check(spec, 0, json.dumps(violated))

    spec = {"kind": "sample", "analytic": 0.75, "trials": 100}
    good = {"results": {"analytic": 0.75, "trials": 100, "z_score": 1.5}}
    assert checks.check(spec, 0, json.dumps(good)) is None
    far = {"results": {"analytic": 0.75, "trials": 100, "z_score": -5.5}}
    assert "z_score" in checks.check(spec, 0, json.dumps(far))


def test_changed_stdout_on_repeat_or_thread_count_fails_the_op():
    spec = {"kind": "verify", "prop": "2", "trials": 1}
    plan = {"ops": [{"check": spec}, {"check": spec}]}
    stdout = json.dumps({"results": {"2": {"status": "verified", "trials_run": 1}}})
    good = hashlib.sha256(stdout.encode()).hexdigest()
    main_run = {
        "first": {"0": {"stdout": stdout, "stderr": ""}, "1": {"stdout": stdout, "stderr": ""}},
        "executions": [
            [0, 0.1, 0, good, 0, False], [1, 0.1, 0, good, 0, False],
            [0, 0.1, 0, "other", 1, False], [1, 0.1, 0, good, 1, False],
        ],
    }
    identity_run = {"executions": [[1, 0.1, 0, "different", -1, False]]}
    failures, units = run._evaluate(plan, main_run, identity_run)
    assert failures == [
        (0, "stdout changed on repeat"), (1, "stdout differs with BLAS threads = nproc"),
    ]
    assert units == {}
    failures, units = run._evaluate(plan, main_run, {"executions": []})
    assert units == {1: 1}


def test_op_latency_is_scaled_by_the_reference_loop_beside_it():
    ref = calibrate.REFERENCE_S["linalg"]
    executions = [
        [0, 0.010, 0, "d", 0, False, ref],
        [1, 0.040, 0, "d", 0, False, 2 * ref],
        [0, 0.030, 0, "d", 1, False, 2 * ref],
        [1, 0.020, 0, "d", 1, False, ref],
        [0, 0.050, 0, "d", 2, False, 5 * ref],
    ]
    assert run._op_latency_ms(executions, ref) == pytest.approx({0: 10.0, 1: 20.0})
