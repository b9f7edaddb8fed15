"""Command-line front end.

Problems come in as JSON files (complex scalars as [re, im] pairs, matrices
as arrays of rows), reports go out as a single pretty-printed JSON object
with the same scalar encoding. Identical inputs and seeds produce
byte-identical reports; wall-clock timing is only included behind --timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .corpus import verify_example
from .cpmaps import Inequivalent, KrausMap
from .errors import (
    AssertionFailure,
    CpmasaError,
    DimensionMismatch,
    NumericalFailure,
    ParseError,
)
from .gksl import (
    GkslGenerator,
    TransformWitness,
    cp_part_diagonalizable,
    gksl_equivalent,
    hamiltonian_part_diagonalizable,
    markov_form,
)
from .linalg import DEFAULT_TOL, Tolerance, Verdict
from .masa import (
    Masa,
    find_masa_m2,
    classical_restriction,
    is_invariant,
    rebolledo_check,
    search_masa,
    solve_generator_coefficients,
    solve_kraus_coefficients,
)

__all__ = ["main"]


def _is_number(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_tolerance(value, name: str) -> float | None:
    """A JSON number or a numeric string such as "1e-9"; booleans are refused."""
    if value is None:
        return None
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ParseError(f"{name} must be a number, got {value!r}")


def _parse_scalar(value) -> complex:
    if _is_number(value):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(float(value[0]), float(value[1]))
    raise ParseError(f"expected a number or [re, im] pair, got {value!r}")


def _parse_matrix(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{name}: expected an array of rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ParseError(f"{name}: ragged rows")
    return np.array([[_parse_scalar(v) for v in row] for row in rows], dtype=complex)


def _encode(value):
    """Make a report value JSON-safe; complex scalars become [re, im]."""
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(np.real(value)), float(np.imag(value))]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise ParseError(f"cannot encode report value of type {type(value).__name__}")


def _encode_matrix(m: np.ndarray):
    return [[_encode(complex(z)) for z in row] for row in np.asarray(m, dtype=complex)]


def _verdict_record(verdict: Verdict) -> dict:
    return {
        "ok": bool(verdict.ok),
        "residual": float(verdict.residual),
        "threshold": float(verdict.threshold),
    }


def _masa_record(masa: Masa) -> dict:
    return {"dim": masa.dim, "basis_unitary": _encode_matrix(masa.basis_unitary)}


def _tol_record(tol: Tolerance) -> dict:
    return {"atol": tol.atol, "rtol": tol.rtol}


class _Problem:
    """Parsed problem file: payload plus optional masa and tolerances."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ParseError(f"{path}: top level must be an object")
        kind = data.get("kind")
        if kind not in ("cp_map", "generator"):
            raise ParseError(f"{path}: kind must be 'cp_map' or 'generator'")
        kraus_raw = data.get("kraus")
        if not isinstance(kraus_raw, list) or not kraus_raw:
            raise ParseError(f"{path}: kraus must be a nonempty array of matrices")
        operators = [
            _parse_matrix(mat, f"kraus[{i}]") for i, mat in enumerate(kraus_raw)
        ]
        dim = data.get("dim", operators[0].shape[0])
        if any(op.shape != (dim, dim) for op in operators):
            raise DimensionMismatch(f"{path}: kraus operators must be {dim}x{dim}")
        self.kind = kind
        self.dim = int(dim)
        beta_raw = data.get("beta")
        hamiltonian_raw = data.get("hamiltonian")
        if kind == "generator":
            if (beta_raw is None) == (hamiltonian_raw is None):
                raise ParseError(
                    f"{path}: a generator needs exactly one of beta / hamiltonian"
                )
            kraus = KrausMap(operators)
            if beta_raw is not None:
                self.payload = GkslGenerator(kraus, _parse_matrix(beta_raw, "beta"))
            else:
                self.payload = markov_form(
                    kraus, _parse_matrix(hamiltonian_raw, "hamiltonian")
                )
        else:
            if beta_raw is not None or hamiltonian_raw is not None:
                raise ParseError(f"{path}: beta/hamiltonian are for generators only")
            self.payload = KrausMap(operators)
        self.masa_matrix = (
            _parse_matrix(data["masa"], "masa") if data.get("masa") is not None else None
        )
        self.atol = _parse_tolerance(data.get("atol"), f"{path}: atol")
        self.rtol = _parse_tolerance(data.get("rtol"), f"{path}: rtol")
        self.echo = {
            "kind": kind,
            "dim": self.dim,
            "kraus": [_encode_matrix(op) for op in operators],
        }
        if beta_raw is not None:
            self.echo["beta"] = _encode_matrix(self.payload.beta)
        if hamiltonian_raw is not None:
            self.echo["hamiltonian"] = _encode_matrix(
                _parse_matrix(hamiltonian_raw, "hamiltonian")
            )
        if self.masa_matrix is not None:
            self.echo["masa"] = _encode_matrix(self.masa_matrix)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as err:
        raise ParseError(f"{path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON ({err})") from err


def _load_problem(path: str | None) -> _Problem:
    if path is None:
        raise ParseError("this command requires --input FILE")
    return _Problem(_load_json(path), path)


def _load_masa(args, problem: _Problem, tol: Tolerance) -> Masa:
    if args.masa is not None:
        data = _load_json(args.masa)
        matrix = data.get("masa", data) if isinstance(data, dict) else data
        return Masa(_parse_matrix(matrix, "masa"), tol)
    if problem.masa_matrix is not None:
        return Masa(problem.masa_matrix, tol)
    return Masa.diagonal(problem.dim)


def _resolve_tol(args, problem: _Problem | None) -> Tolerance:
    atol = args.atol
    rtol = args.rtol
    if problem is not None:
        if atol is None:
            atol = problem.atol
        if rtol is None:
            rtol = problem.rtol
    return Tolerance(
        atol=DEFAULT_TOL.atol if atol is None else atol,
        rtol=DEFAULT_TOL.rtol if rtol is None else rtol,
    )


def _require_kind(problem: _Problem, kind: str, command: str):
    if problem.kind != kind:
        raise ParseError(f"{command} needs kind = '{kind}', got '{problem.kind}'")


def _witness_record(witness: TransformWitness) -> dict:
    return {
        "equivalent": True,
        "gamma": _encode(witness.gamma),
        "h_scalar": float(witness.h_scalar),
        "eta_prime": [_encode(z) for z in witness.eta_prime],
        "eta": [_encode(z) for z in witness.eta],
        "m_matrix": _encode_matrix(witness.m_matrix),
        "checks": {k: _encode(v) for k, v in witness.checks.items()},
    }


def _split_record(verdict) -> dict:
    record = {
        "feasible": bool(verdict.feasible),
        "residual": float(verdict.residual),
        "threshold": float(verdict.threshold),
        "eta": None if verdict.eta is None else [_encode(z) for z in verdict.eta],
        "gamma": None if verdict.gamma is None else _encode(verdict.gamma),
    }
    cert = verdict.infeasibility_certificate
    if cert is not None:
        record["certificate"] = {
            "row_labels": list(cert.row_labels),
            "accepted": list(cert.accepted),
            "forced_coefficients": [_encode(z) for z in cert.forced_coefficients],
            "residual_vector": [float(v) for v in cert.residual_vector],
            "violations": [[label, float(v)] for label, v in cert.violations()],
        }
    return record


def _cmd_check_invariance(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    tol = _resolve_tol(args, problem)
    masa = _load_masa(args, problem, tol)
    verdict = is_invariant(problem.payload, masa, tol)
    report = {
        "invariant": _verdict_record(verdict),
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
    }
    return report, verdict.ok


def _cmd_find_masa(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    tol = _resolve_tol(args, problem)
    if problem.dim == 2:
        masa = find_masa_m2(problem.payload, tol)
        method = "pauli_eigenvector"
    else:
        masa, _ = search_masa(
            problem.payload, restarts=args.restarts, seed=args.seed, tol=tol
        )
        method = "multi_start_descent"
    verdict = is_invariant(problem.payload, masa, tol)
    report = {
        "masa": _masa_record(masa),
        "method": method,
        "invariant": _verdict_record(verdict),
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
    }
    return report, verdict.ok


def _cmd_search_masa(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    tol = _resolve_tol(args, problem)
    masa, residual = search_masa(
        problem.payload, restarts=args.restarts, seed=args.seed, tol=tol
    )
    verdict = is_invariant(problem.payload, masa, tol)
    report = {
        "masa": _masa_record(masa),
        "search_residual": float(residual),
        "restarts": args.restarts,
        "seed": args.seed,
        "invariant": _verdict_record(verdict),
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
    }
    return report, verdict.ok


def _cmd_criterion(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    tol = _resolve_tol(args, problem)
    masa = _load_masa(args, problem, tol)
    if args.variant == "thm11":
        _require_kind(problem, "cp_map", "criterion thm11")
        outcome = solve_kraus_coefficients(problem.payload, masa, tol)
        if outcome:
            result = {
                "feasible": True,
                "residual": float(outcome.residual),
                "c_blocks": _encode(outcome.c_blocks),
            }
        else:
            result = {
                "feasible": False,
                "residual": float(outcome.residual),
                "threshold": float(outcome.threshold),
            }
    else:
        _require_kind(problem, "generator", "criterion thm12")
        outcome = solve_generator_coefficients(problem.payload, masa, tol)
        if outcome:
            result = {
                "feasible": True,
                "residual": float(outcome.residual),
                "c_ops": _encode(outcome.c_ops),
                "gamma": [float(g) for g in outcome.gamma],
                "inner_residual": float(outcome.inner_witness.residual),
            }
        else:
            result = {
                "feasible": False,
                "residual": float(outcome.residual),
                "threshold": float(outcome.threshold),
            }
    report = {
        "criterion": args.variant,
        "result": result,
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
    }
    return report, bool(outcome)


def _cmd_rebolledo(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    _require_kind(problem, "cp_map", "rebolledo")
    tol = _resolve_tol(args, problem)
    masa = _load_masa(args, problem, tol)
    verdict = rebolledo_check(problem.payload, masa, tol)
    all_pass = all(v.ok for v in verdict.per_operator)
    report = {
        "per_operator": [_verdict_record(v) for v in verdict.per_operator],
        "patterns_examined": verdict.patterns_examined,
        "compatible_elements": [
            {
                "pattern": list(item.pattern),
                "dimension": item.dimension,
                "basis": [_encode_matrix(b) for b in item.basis],
            }
            for item in verdict.compatible_elements
        ],
        "all_operators_pass": all_pass,
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
    }
    return report, all_pass


def _cmd_split(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    _require_kind(problem, "generator", "split")
    tol = _resolve_tol(args, problem)
    masa = _load_masa(args, problem, tol)
    if args.variant == "cp-part":
        verdict = cp_part_diagonalizable(problem.payload, masa, tol)
    else:
        verdict = hamiltonian_part_diagonalizable(problem.payload, masa, tol)
    report = {
        "split": args.variant,
        "result": _split_record(verdict),
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
    }
    return report, verdict.feasible


def _cmd_equiv(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    if args.other is None:
        raise ParseError("equiv requires --other FILE with the second presentation")
    other = _Problem(_load_json(args.other), args.other)
    _require_kind(problem, "generator", "equiv")
    _require_kind(other, "generator", "equiv")
    tol = _resolve_tol(args, problem)
    outcome = gksl_equivalent(problem.payload, other.payload, tol)
    if isinstance(outcome, Inequivalent):
        result = {"equivalent": False, "distance": float(outcome.distance)}
        ok = False
    else:
        result = _witness_record(outcome)
        ok = True
    report = {
        "result": result,
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
        "other": other.echo,
    }
    return report, ok


def _cmd_restrict(args) -> tuple[dict, bool]:
    problem = _load_problem(args.input)
    tol = _resolve_tol(args, problem)
    masa = _load_masa(args, problem, tol)
    matrix = classical_restriction(problem.payload, masa, tol)
    report = {
        "restriction": [[float(v) for v in row] for row in matrix],
        "row_sums": [float(v) for v in matrix.sum(axis=1)],
        "tolerance": _tol_record(tol),
        "inputs": problem.echo,
    }
    return report, True


def _cmd_corpus(args) -> tuple[dict, bool]:
    tol = _resolve_tol(args, None)
    report = verify_example(args.example_id, tol)
    report["tolerance"] = _tol_record(tol)
    return report, bool(report["ok"])


_COMMANDS = {
    "check-invariance": _cmd_check_invariance,
    "find-masa": _cmd_find_masa,
    "search-masa": _cmd_search_masa,
    "criterion": _cmd_criterion,
    "rebolledo": _cmd_rebolledo,
    "split": _cmd_split,
    "equiv": _cmd_equiv,
    "restrict": _cmd_restrict,
    "corpus": _cmd_corpus,
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--input", help="problem file (JSON)")
    parser.add_argument("--masa", help="masa basis file (JSON)")
    parser.add_argument("--atol", type=float, help="absolute tolerance")
    parser.add_argument("--rtol", type=float, help="relative tolerance")
    parser.add_argument("--seed", type=int, default=42, help="search seed")
    parser.add_argument("--restarts", type=int, default=200, help="search restarts")
    parser.add_argument(
        "--assert",
        dest="assert_",
        action="store_true",
        help="exit 1 when the decided property fails",
    )
    parser.add_argument(
        "--timing", action="store_true", help="include wall time in the report"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmasa",
        description="Decide and certify masa invariance for CP maps and "
        "Lindblad generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "check-invariance",
        "find-masa",
        "search-masa",
        "rebolledo",
        "equiv",
        "restrict",
    ):
        cmd = sub.add_parser(name)
        _add_common(cmd)
        if name == "equiv":
            cmd.add_argument("--other", help="problem file of the second presentation")
    criterion = sub.add_parser("criterion")
    criterion.add_argument(
        "variant",
        choices=("thm11", "thm12"),
        help="thm11: CP-map coefficient criterion; thm12: generator criterion",
    )
    _add_common(criterion)
    split = sub.add_parser("split")
    split.add_argument(
        "variant",
        choices=("cp-part", "hamiltonian"),
        help="which re-gauged part must preserve the masa",
    )
    _add_common(split)
    corpus = sub.add_parser("corpus")
    corpus.add_argument("example_id", metavar="example_id")
    _add_common(corpus)
    return parser


def _render(report: dict) -> str:
    try:
        return json.dumps(_encode(report), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise NumericalFailure(f"report holds a non-finite number ({err})") from err


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    started = time.perf_counter()
    failure = None
    try:
        try:
            report, ok = handler(args)
        except AssertionFailure as err:
            failure = err
            report, ok = getattr(err, "report", {"ok": False, "error": str(err)}), False
        if args.timing:
            report["timing"] = {"seconds": time.perf_counter() - started}
        text = _render(report)
    except CpmasaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(text)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
    return 0 if (ok or not args.assert_) else 1


if __name__ == "__main__":
    sys.exit(main())
