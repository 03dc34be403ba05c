"""Command-line front door: entropy, divergence, relative, verify, postselect, sample."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import postselect as ps
from . import reports
from .linalg import DimensionMismatchError
from .partitions import distribution_purity
from .propositions import run_verify, two_draw_quantum_mc
from .states import (
    fidelity,
    logical_divergence,
    logical_divergence_definitional,
    logical_entropy,
    measured_state,
    outcome_probabilities,
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


def cmd_entropy(args, rho, pvm=None):
    p = purity(rho)
    results = {"logical_entropy": 1.0 - p, "purity": p, "eigenvalues": rho.eigenvalues()}
    warnings: list[str] = []
    if pvm is not None:
        rho_meas = measured_state(rho, pvm)
        measured = float(distribution_purity(outcome_probabilities(rho, pvm)))
        results["measured_state_entropy"] = logical_entropy(rho_meas)
        results["divergence_to_measured"] = logical_divergence(rho, rho_meas)
        results["pvm_non_degenerate"] = pvm.non_degenerate
        results["pvm_logical_entropy"] = 1.0 - measured
        if pvm.non_degenerate:
            results["purity_decomposition"] = {
                "measured_purity": measured,
                "off_diagonal_mass": p - measured,
            }
        else:
            warnings.append(
                "coarse PVM: entropy computed from outcome probabilities; the "
                "measured state keeps intra-block coherences"
            )
    return results, warnings


def cmd_divergence(args, rho, sigma):
    results = {
        "divergence": logical_divergence(rho, sigma),
        "divergence_definitional": logical_divergence_definitional(rho, sigma),
        "fidelity": fidelity(rho, sigma),
    }
    return results, []


def cmd_relative(args, rho):
    dims = tuple(args.dims or ())
    if rho.dims is not None and len(rho.dims) == 2:
        if dims and dims != rho.dims:
            raise DimensionMismatchError(f"--dims {dims} differ from the file's dims {rho.dims}")
    elif dims:
        rho = rho.with_dims(dims)
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
    return report, warnings


def cmd_verify(args):
    results, ok = run_verify(args.prop, args.seed, args.trials, args.dims, args.tol)
    return results, [], EXIT_OK if ok else EXIT_VERIFY


def cmd_postselect(args, pre, post, pvm):
    pair = ps.PrePostPair(pre, post)
    rho = ps.pre_post_state(pair)
    w = ps.weak_values(rho, pvm)
    abl = ps.abl_probabilities(w)
    diag = ps.relation_diagnostic(rho, pvm)
    warnings = []
    if not diag["agrees"]:
        warnings.append(
            "postselected entropy differs from |weak entropy|^2 for this input"
        )
    results = {
        "overlap": pair.overlap,
        "weak_values": w,
        "abl_raw": abl["raw"],
        "abl_normalized": abl["normalized"],
        "postselected_logical_entropy": diag["postselected_entropy"],
        "weak_logical_entropy": diag["weak_entropy"],
        "relation_diagnostic": {
            "abs_weak_entropy_squared": diag["abs_weak_entropy_squared"],
            "abs_difference": diag["abs_difference"],
            "agrees": diag["agrees"],
        },
    }
    return results, warnings


def cmd_sample(args, rho, pvm):
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
    return results, []


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
    # files: (report key, argument dest, file kind) of each input; main loads each one whose
    # argument is set, in this order, and passes the object to func under its report key
    rho, pvm = ("rho", "infile", "density"), ("pvm", "pvm", "pvm")

    p = sub.add_parser("entropy", help="entropy, purity, and PVM quantities of a state")
    p.add_argument("--in", dest="infile", required=True, help="density matrix file")
    p.add_argument("--pvm", help="optional PVM file")
    p.set_defaults(func=cmd_entropy, files=(rho, pvm))

    p = sub.add_parser("divergence", help="logical divergence and fidelity of two states")
    p.add_argument("a_file", help="first density matrix file")
    p.add_argument("b_file", help="second density matrix file")
    p.set_defaults(
        func=cmd_divergence, files=(("rho", "a_file", "density"), ("sigma", "b_file", "density"))
    )

    p = sub.add_parser("relative", help="relative logical entropy of a bipartite state")
    p.add_argument("--in", dest="infile", required=True, help="density matrix file")
    p.add_argument("--dims", type=_int_list, default=None, help="factor dims, e.g. 2,2")
    p.set_defaults(func=cmd_relative, files=(rho,))

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
    p.set_defaults(func=cmd_verify, files=())

    p = sub.add_parser("postselect", help="weak values and post-selected entropies")
    p.add_argument("--pre", required=True, help="pre-selected state vector file")
    p.add_argument("--post", required=True, help="post-selected state vector file")
    p.add_argument("--pvm", required=True, help="PVM file")
    p.set_defaults(
        func=cmd_postselect, files=(("pre", "pre", "vector"), ("post", "post", "vector"), pvm)
    )

    p = sub.add_parser("sample", help="Monte Carlo two-draw distinction estimate")
    p.add_argument("--in", dest="infile", required=True, help="density matrix file")
    p.add_argument("--pvm", required=True, help="PVM file")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_sample, files=(rho, pvm))

    return parser


PARSER = build_parser()  # shared by every main call, so each default above is immutable


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        inputs, loaded = {}, {}
        for name, dest, kind in args.files:
            if (path := getattr(args, dest)) is not None:
                loaded[name], inputs[name] = reports.load_matrix_file(path, kind)
        results, warnings, *code = args.func(args, **loaded)
        echo = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "files")}
        report = reports.run_report(
            args.subcommand, echo, inputs, results, warnings, getattr(args, "seed", None)
        )
        sys.stdout.write(reports.dumps_stable(report))
        sys.stdout.write("\n")
        return code[0] if code else EXIT_OK
    except reports.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ps.OrthogonalSelectionError as exc:
        print(f"orthogonal pre/post selection: {exc}", file=sys.stderr)
        return EXIT_ORTHOGONAL
    except DimensionMismatchError as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
