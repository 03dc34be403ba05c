"""Command-line front door: entropy, divergence, relative, verify, postselect, sample."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import postselect as ps
from . import reports
from .linalg import DimensionMismatchError, NotHermitianError, NotPsdError
from .propositions import (
    PROP6_MAX_DIM,
    PROPOSITION_IDS,
    STATUS_COUNTEREXAMPLE,
    STATUS_VERIFIED,
    SamplerConfig,
    two_draw_quantum_mc,
    verify_proposition,
)
from .states import (
    ValidationError,
    basis_decomposition_check,
    fidelity,
    logical_divergence,
    logical_divergence_definitional,
    logical_entropy,
    measured_state,
    purity,
    pvm_logical_entropy,
    relative_entropy_report,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIMENSION = 4
EXIT_VERIFY = 5
EXIT_ORTHOGONAL = 6


def cmd_entropy(args) -> dict:
    rho, rho_info = reports.load_matrix_file(args.infile, "density")
    inputs = {"rho": rho_info}
    results = {
        "logical_entropy": logical_entropy(rho),
        "purity": purity(rho),
        "eigenvalues": [float(v) for v in rho.eigenvalues()],
    }
    warnings: list[str] = []
    if args.pvm is not None:
        pvm, pvm_info = reports.load_matrix_file(args.pvm, "pvm")
        inputs["pvm"] = pvm_info
        rho_meas = measured_state(rho, pvm)
        results["pvm_logical_entropy"] = pvm_logical_entropy(rho, pvm)
        results["measured_state_entropy"] = logical_entropy(rho_meas)
        results["divergence_to_measured"] = logical_divergence(rho, rho_meas)
        results["pvm_non_degenerate"] = pvm.non_degenerate
        if pvm.non_degenerate:
            diag, off = basis_decomposition_check(rho, pvm)
            results["purity_decomposition"] = {
                "measured_purity": diag,
                "off_diagonal_mass": off,
            }
        else:
            warnings.append(
                "coarse PVM: entropy computed from outcome probabilities; the "
                "measured state keeps intra-block coherences"
            )
    return reports.run_report("entropy", _echo(args), inputs, results, warnings)


def cmd_divergence(args) -> dict:
    rho, a_info = reports.load_matrix_file(args.a_file, "density")
    sigma, b_info = reports.load_matrix_file(args.b_file, "density")
    d_hs = logical_divergence(rho, sigma)
    results = {
        "divergence": d_hs,
        "divergence_definitional": logical_divergence_definitional(rho, sigma),
        "fidelity": fidelity(rho, sigma),
    }
    return reports.run_report(
        "divergence", _echo(args), {"rho": a_info, "sigma": b_info}, results
    )


def cmd_relative(args) -> dict:
    rho, rho_info = reports.load_matrix_file(args.infile, "density")
    if rho.dims is None or len(rho.dims) != 2:
        if args.dims:
            rho = rho.with_dims(tuple(args.dims))
        else:
            raise DimensionMismatchError(
                "relative entropy needs bipartite dims (in the file or via --dims)"
            )
    report = relative_entropy_report(rho)
    warnings = []
    if not report["matches_minus_quarter_divergence"]:
        warnings.append(
            "relative entropy equals minus one times the divergence; a -1/4 "
            "factor does not match numerically"
        )
    return reports.run_report(
        "relative", _echo(args), {"rho": rho_info}, report, warnings
    )


def cmd_verify(args) -> tuple[dict, int]:
    known = list(PROPOSITION_IDS) + ["ssa"]
    props = known if list(args.prop) == ["all"] else list(args.prop)
    for i, pid in enumerate(props):
        if pid not in known or pid in props[:i]:
            raise ValueError(f"{'repeated' if pid in known else 'unknown'} proposition id {pid!r}")
    cfg = SamplerConfig(args.seed, args.trials, tuple(args.dims), args.tol)
    if "6" in props and max(cfg.dims) > PROP6_MAX_DIM:
        raise DimensionMismatchError(
            f"prop 6 takes dims up to {PROP6_MAX_DIM}: above, its Haar QR at joint dim 3d"
            " depends on the BLAS thread count"
        )
    results = {}
    ok = True
    for pid in props:
        res = verify_proposition(pid, cfg)
        results[pid] = res.to_dict()
        expected = STATUS_COUNTEREXAMPLE if pid == "ssa" else STATUS_VERIFIED
        if res.status != expected:
            ok = False
    report = reports.run_report(
        "verify", _echo(args), {}, results, seed=args.seed
    )
    return report, EXIT_OK if ok else EXIT_VERIFY


def cmd_postselect(args) -> dict:
    pre, pre_info = reports.load_matrix_file(args.pre, "vector")
    post, post_info = reports.load_matrix_file(args.post, "vector")
    pvm, pvm_info = reports.load_matrix_file(args.pvm, "pvm")
    pair = ps.PrePostPair(pre, post)
    rho = ps.pre_post_state(pair)
    w = ps.weak_values(rho, pvm)
    abl = ps.abl_probabilities(rho, pvm)
    diag = ps.relation_diagnostic(rho, pvm)
    warnings = []
    if not diag["agrees"]:
        warnings.append(
            "postselected entropy differs from |weak entropy|^2 for this input"
        )
    results = {
        "overlap": pair.overlap,
        "weak_values": [complex(x) for x in w],
        "abl_raw": [float(x) for x in abl["raw"]],
        "abl_normalized": [float(x) for x in abl["normalized"]],
        "postselected_logical_entropy": diag["postselected_entropy"],
        "weak_logical_entropy": diag["weak_entropy"],
        "relation_diagnostic": {
            "abs_weak_entropy_squared": diag["abs_weak_entropy_squared"],
            "abs_difference": diag["abs_difference"],
            "agrees": diag["agrees"],
        },
    }
    return reports.run_report(
        "postselect",
        _echo(args),
        {"pre": pre_info, "post": post_info, "pvm": pvm_info},
        results,
        warnings,
    )


def cmd_sample(args) -> dict:
    rho, rho_info = reports.load_matrix_file(args.infile, "density")
    pvm, pvm_info = reports.load_matrix_file(args.pvm, "pvm")
    analytic = pvm_logical_entropy(rho, pvm)
    estimate = two_draw_quantum_mc(rho, pvm, args.trials, args.seed)
    sigma = float(np.sqrt(max(analytic * (1.0 - analytic), 0.0) / args.trials))
    z = 0.0 if sigma == 0.0 else (estimate - analytic) / sigma
    results = {
        "estimate": estimate,
        "analytic": analytic,
        "trials": args.trials,
        "sigma": sigma,
        "z_score": z,
    }
    return reports.run_report(
        "sample",
        _echo(args),
        {"rho": rho_info, "pvm": pvm_info},
        results,
        seed=args.seed,
    )


def _echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one stderr line, like every other error; subparsers inherit it."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # Python 3.11's argparse strips the "--" of "--trials=--" and returns [] unconverted
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qlogent",
        description="Logical entropies of classical and quantum states",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("entropy", help="entropy, purity, and PVM quantities of a state")
    p.add_argument("--in", dest="infile", required=True, help="density matrix file")
    p.add_argument("--pvm", help="optional PVM file")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("divergence", help="logical divergence and fidelity of two states")
    p.add_argument("a_file", help="first density matrix file")
    p.add_argument("b_file", help="second density matrix file")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("relative", help="relative logical entropy of a bipartite state")
    p.add_argument("--in", dest="infile", required=True, help="density matrix file")
    p.add_argument("--dims", type=_int_list, default=None, help="factor dims, e.g. 2,2")
    p.set_defaults(func=cmd_relative)

    p = sub.add_parser("verify", help="run the proposition verification suite")
    p.add_argument(
        "--prop",
        type=lambda s: s.split(","),
        default=("all",),
        help="comma-separated proposition ids (1a..12, ssa) or 'all'",
    )
    p.add_argument("--dims", type=_int_list, default=(2, 3, 4))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("postselect", help="weak values and post-selected entropies")
    p.add_argument("--pre", required=True, help="pre-selected state vector file")
    p.add_argument("--post", required=True, help="post-selected state vector file")
    p.add_argument("--pvm", required=True, help="PVM file")
    p.set_defaults(func=cmd_postselect)

    p = sub.add_parser("sample", help="Monte Carlo two-draw distinction estimate")
    p.add_argument("--in", dest="infile", required=True, help="density matrix file")
    p.add_argument("--pvm", required=True, help="PVM file")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_sample)

    return parser


PARSER = build_parser()  # shared by every main call, so each default above is immutable


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        out = args.func(args)
        code = EXIT_OK
        if isinstance(out, tuple):
            out, code = out
        sys.stdout.write(reports.dumps_stable(out))
        sys.stdout.write("\n")
        return code
    except reports.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ps.OrthogonalSelectionError as exc:
        print(f"orthogonal pre/post selection: {exc}", file=sys.stderr)
        return EXIT_ORTHOGONAL
    except DimensionMismatchError as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (ValidationError, NotHermitianError, NotPsdError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
