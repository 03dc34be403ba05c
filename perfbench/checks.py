"""Independent numpy references and the correctness check applied to each op.

References use closed forms (eigvalsh, Frobenius norms, overlaps) rather
than qlogent's code paths, and are compared within TOL.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9
MAX_ABS_Z = 5.0


def _purity(rho: np.ndarray) -> float:
    # tr rho^2 of a Hermitian matrix is its squared Frobenius norm
    return float(np.vdot(rho, rho).real)


def _sq_distance(a: np.ndarray, b: np.ndarray) -> float:
    return _purity(a - b)


def _outcomes(rho: np.ndarray, blocks) -> np.ndarray:
    return np.clip([np.vdot(b, rho).real for b in blocks], 0.0, 1.0)


def entropy_reference(rho: np.ndarray, blocks, fine: bool) -> dict:
    purity = _purity(rho)
    q = _outcomes(rho, blocks)
    measured = sum(b @ rho @ b for b in blocks)
    results = {
        "logical_entropy": 1.0 - purity,
        "purity": purity,
        "eigenvalues": np.linalg.eigvalsh(rho)[::-1].tolist(),
        "pvm_logical_entropy": 1.0 - float(q @ q),
        "measured_state_entropy": 1.0 - _purity(measured),
        "divergence_to_measured": _sq_distance(rho, measured),
        "pvm_non_degenerate": fine,
    }
    if fine:
        results["purity_decomposition"] = {
            "measured_purity": float(q @ q),
            "off_diagonal_mass": purity - float(q @ q),
        }
    return {"kind": "entropy", "results": results, "warnings": 0 if fine else 1}


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    w, v = np.linalg.eigh(sigma)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = root @ rho @ root
    values = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    return min(float(np.sum(np.sqrt(values))) ** 2, 1.0)


def divergence_reference(rho: np.ndarray, sigma: np.ndarray, pure_sigma=None) -> dict:
    """pure_sigma, when given, is the unit vector of a rank-1 sigma: F = <psi|rho|psi>."""
    div = _sq_distance(rho, sigma)
    if pure_sigma is None:
        fid = _fidelity(rho, sigma)
    else:
        fid = float(np.vdot(pure_sigma, rho @ pure_sigma).real)
    results = {"divergence": div, "divergence_definitional": div, "fidelity": fid}
    return {"kind": "divergence", "results": results, "warnings": 0}


def relative_reference(rho: np.ndarray, da: int, db: int) -> dict:
    rho_b = np.einsum("ijik->jk", rho.reshape(da, db, da, db))
    ref = np.kron(np.eye(da) / da, rho_b)
    value = _purity(ref) - _purity(rho)
    div = _sq_distance(rho, ref)
    results = {
        "relative_logical_entropy": value,
        "minus_divergence": -div,
        "minus_quarter_divergence": -div / 4.0,
        "matches_minus_divergence": bool(abs(value + div) <= TOL),
        "matches_minus_quarter_divergence": bool(abs(value + div / 4.0) <= TOL),
    }
    warnings = 0 if results["matches_minus_quarter_divergence"] else 1
    return {"kind": "relative", "results": results, "warnings": warnings}


def postselect_reference(pre: np.ndarray, post: np.ndarray, basis: np.ndarray) -> dict:
    """Weak values <phi|k><k|psi> / <phi|psi> for the rank-1 PVM of basis columns."""
    overlap = complex(np.vdot(post, pre))
    w = (post.conj() @ basis) * (basis.conj().T @ pre) / overlap
    raw = np.abs(w) ** 2
    left = float(np.sum(raw * np.abs(1.0 - w) ** 2))
    weak = complex(np.sum(w * (1.0 - w)))
    diff = abs(left - abs(weak) ** 2)
    results = {
        "overlap": [overlap.real, overlap.imag],
        "weak_values": [[z.real, z.imag] for z in w],
        "abl_raw": raw.tolist(),
        "abl_normalized": (raw / raw.sum()).tolist(),
        "postselected_logical_entropy": left,
        "weak_logical_entropy": [weak.real, weak.imag],
        "relation_diagnostic": {
            "abs_weak_entropy_squared": abs(weak) ** 2,
            "abs_difference": diff,
            "agrees": bool(diff <= TOL),
        },
    }
    return {"kind": "postselect", "results": results, "warnings": 0 if diff <= TOL else 1}


def sample_reference(rho: np.ndarray, blocks, trials: int) -> dict:
    q = _outcomes(rho, blocks)
    return {"kind": "sample", "analytic": 1.0 - float(q @ q), "trials": trials}


def check(spec: dict, code, stdout: str) -> str | None:
    """None when one op's exit code and report match spec, else the first problem."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        if spec["kind"] == "verify":
            return _check_verify(spec, report)
        if spec["kind"] == "sample":
            return _check_sample(spec, report)
        if len(report["warnings"]) != spec["warnings"]:
            return f"expected {spec['warnings']} warning(s), got {report['warnings']!r}"
        return _compare("results", spec["results"], report["results"])
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _check_verify(spec: dict, report: dict) -> str | None:
    results = report["results"]
    if list(results) != [spec["prop"]]:
        return f"expected results for {spec['prop']!r}, got {list(results)!r}"
    res = results[spec["prop"]]
    if spec["prop"] == "ssa":
        if res["status"] != "counterexample-found-as-expected":
            return f"ssa status {res['status']!r}"
        if not 1 <= res["trials_run"] <= spec["trials"]:
            return f"ssa trials_run {res['trials_run']} outside 1..{spec['trials']}"
        return None
    if res["status"] != "verified":
        return f"proposition {spec['prop']} status {res['status']!r}"
    if res["trials_run"] != spec["trials"]:
        return f"trials_run {res['trials_run']} != requested {spec['trials']}"
    return None


def _check_sample(spec: dict, report: dict) -> str | None:
    res = report["results"]
    if res["trials"] != spec["trials"]:
        return f"trials {res['trials']!r} != requested {spec['trials']}"
    if not abs(res["analytic"] - spec["analytic"]) <= TOL:
        return f"analytic {res['analytic']!r} != reference {spec['analytic']!r}"
    if not abs(res["z_score"]) <= MAX_ABS_Z:
        return f"|z_score| {abs(res['z_score'])} > {MAX_ABS_Z}"
    return None


def _compare(path: str, expected, actual) -> str | None:
    if isinstance(expected, bool) or expected is None:
        return None if actual is expected else f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return f"{path}: {actual!r} is not a number"
        return None if abs(actual - expected) <= TOL else f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: {actual!r} is not an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            problem = _compare(f"{path}.{key}", value, actual[key])
            if problem:
                return problem
        return None
    if not isinstance(actual, list) or len(actual) != len(expected):
        return f"{path}: {actual!r} does not have {len(expected)} entries"
    for i, (e, a) in enumerate(zip(expected, actual)):
        problem = _compare(f"{path}[{i}]", e, a)
        if problem:
            return problem
    return None


def work_units(spec: dict, report: dict) -> int:
    """Work one op completed: proposition trials, draw pairs, or one CLI call."""
    if spec["kind"] == "verify":
        return sum(r["trials_run"] for r in report["results"].values())
    if spec["kind"] == "sample":
        return report["results"]["trials"]
    return 1
