"""Command-line front end.

Problems come in as JSON files (complex scalars as [re, im] pairs, matrices
as arrays of rows), reports go out as a single pretty-printed JSON object
with the same scalar encoding. Identical inputs and seeds produce
byte-identical reports; wall-clock timing is only included behind --timing.
"""

from __future__ import annotations

import argparse
import functools
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
    PreconditionFailed,
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
    """json.dumps' hook for report values JSON has no type for.

    Arrays become nested lists, complex scalars [re, im] and numpy scalars
    Python ones; anything else raises ParseError.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return value.item()
    raise ParseError(f"cannot encode report value of type {type(value).__name__}")


def _verdict_record(answer: Verdict, key: str) -> dict:
    """An answer's decision under `key` ("ok" or "feasible"), with its residual and threshold."""
    return {key: answer.ok, "residual": answer.residual, "threshold": answer.threshold}


def _masa_record(masa: Masa) -> dict:
    return {"dim": masa.dim, "basis_unitary": masa.basis_unitary}


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
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ParseError(f"{path}: dim must be an integer, got {dim!r}")
        if any(op.shape != (dim, dim) for op in operators):
            raise DimensionMismatch(f"{path}: kraus operators must be {dim}x{dim}")
        self.dim = dim
        self.echo = {"kind": kind, "dim": self.dim, "kraus": operators}
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
                self.echo["beta"] = self.payload.beta
            else:
                hamiltonian = _parse_matrix(hamiltonian_raw, "hamiltonian")
                self.payload = markov_form(kraus, hamiltonian)
                self.echo["hamiltonian"] = hamiltonian
        else:
            if beta_raw is not None or hamiltonian_raw is not None:
                raise ParseError(f"{path}: beta/hamiltonian are for generators only")
            self.payload = KrausMap(operators)
        self.masa_matrix = (
            _parse_matrix(data["masa"], "masa") if data.get("masa") is not None else None
        )
        if self.masa_matrix is not None:
            self.echo["masa"] = self.masa_matrix
        self.atol = _parse_tolerance(data.get("atol"), f"{path}: atol")
        self.rtol = _parse_tolerance(data.get("rtol"), f"{path}: rtol")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as err:
        raise ParseError(f"{path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON ({err})") from err


def _load_problem(path: str | None, flag: str) -> _Problem:
    if path is None:
        raise ParseError(f"this command requires {flag} FILE")
    return _Problem(_load_json(path), path)


def _load_masa(path: str | None, problem: _Problem, tol: Tolerance) -> Masa:
    if path is not None:
        data = _load_json(path)
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


def _witness_record(witness: TransformWitness) -> dict:
    return {
        "equivalent": True,
        "gamma": witness.gamma,
        "h_scalar": witness.h_scalar,
        "eta_prime": witness.eta_prime,
        "eta": witness.eta,
        "m_matrix": witness.m_matrix,
        "checks": witness.checks,
    }


# Each command body takes the parsed arguments with --input, --masa and
# --other replaced by what they load (`problem`, `masa`, `other`) and the
# resolved `tol`, and returns its result record and the decided property.


def _check_invariance(run) -> tuple[dict, bool]:
    verdict = is_invariant(run.problem.payload, run.masa, run.tol)
    return {"invariant": _verdict_record(verdict, "ok")}, verdict.ok


def _find_masa(run) -> tuple[dict, bool]:
    """find-masa and search-masa. find-masa tries the constructive M₂ finder
    first and names the method that found the masa; search-masa always
    searches and reports the search."""
    masa = None
    if run.command == "find-masa" and run.problem.dim == 2:
        try:
            masa = find_masa_m2(run.problem.payload, run.tol)
        except PreconditionFailed:
            pass  # outside the finder's precondition; the search still applies
    if masa is not None:
        record = {"method": "pauli_eigenvector"}
    else:
        masa, residual = search_masa(
            run.problem.payload, restarts=run.restarts, seed=run.seed, tol=run.tol
        )
        if run.command == "find-masa":
            record = {"method": "multi_start_descent"}
        else:
            record = {"search_residual": residual, "restarts": run.restarts, "seed": run.seed}
    verdict = is_invariant(run.problem.payload, masa, run.tol)
    record.update(masa=_masa_record(masa), invariant=_verdict_record(verdict, "ok"))
    return record, verdict.ok


def _criterion(run) -> tuple[dict, bool]:
    """thm11: CP-map coefficient criterion; thm12: generator criterion."""
    if run.variant == "thm11":
        outcome = solve_kraus_coefficients(run.problem.payload, run.masa, run.tol)
    else:
        outcome = solve_generator_coefficients(run.problem.payload, run.masa, run.tol)
    result = _verdict_record(outcome, "feasible")
    if outcome and run.variant == "thm11":
        result["c_blocks"] = outcome.c_blocks
    elif outcome:
        result.update(
            c_ops=outcome.c_ops, gamma=outcome.gamma, inner_residual=outcome.inner_witness.residual
        )
    return {"criterion": run.variant, "result": result}, outcome.ok


def _rebolledo(run) -> tuple[dict, bool]:
    verdict = rebolledo_check(run.problem.payload, run.masa, run.tol)
    all_pass = all(v.ok for v in verdict.per_operator)
    report = {
        "per_operator": [_verdict_record(v, "ok") for v in verdict.per_operator],
        "patterns_examined": verdict.patterns_examined,
        "compatible_elements": [
            {"pattern": item.pattern, "dimension": item.dimension, "basis": item.basis}
            for item in verdict.compatible_elements
        ],
        "all_operators_pass": all_pass,
    }
    return report, all_pass


def _split(run) -> tuple[dict, bool]:
    """Which re-gauged part must preserve the masa: cp-part or hamiltonian."""
    if run.variant == "cp-part":
        verdict = cp_part_diagonalizable(run.problem.payload, run.masa, run.tol)
    else:
        verdict = hamiltonian_part_diagonalizable(run.problem.payload, run.masa, run.tol)
    result = _verdict_record(verdict, "feasible")
    result.update(eta=verdict.eta, gamma=verdict.gamma)
    cert = verdict.infeasibility_certificate
    if cert is not None:
        result["certificate"] = {
            "row_labels": cert.row_labels,
            "accepted": cert.accepted,
            "forced_coefficients": cert.forced_coefficients,
            "residual_vector": cert.residual_vector,
            "violations": cert.violations(),
        }
    return {"split": run.variant, "result": result}, verdict.ok


def _equiv(run) -> tuple[dict, bool]:
    outcome = gksl_equivalent(run.problem.payload, run.other.payload, run.tol)
    if isinstance(outcome, Inequivalent):
        return {"result": {"equivalent": False, "distance": outcome.distance}}, False
    return {"result": _witness_record(outcome)}, True


def _restrict(run) -> tuple[dict, bool]:
    matrix = classical_restriction(run.problem.payload, run.masa, run.tol)
    return {"restriction": matrix, "row_sums": matrix.sum(axis=1)}, True


def _corpus(run) -> tuple[dict, bool]:
    report = verify_example(run.example_id, run.tol)
    return report, bool(report["ok"])


# Arguments a command may read besides --atol, --rtol, --assert and --timing.
_ARGUMENTS = {
    "--input": {"help": "problem file (JSON)"},
    "--masa": {"help": "masa basis file (JSON)"},
    "--other": {"help": "problem file of the second presentation"},
    "--seed": {"type": int, "default": 42, "help": "search seed"},
    "--restarts": {"type": int, "default": 200, "help": "search restarts"},
    "example_id": {},
}

# name: (arguments read, choices of the variant argument if it takes one, body).
# A problem of the wrong kind is refused by the library call in the body.
_TABLE = {
    "check-invariance": (("--input", "--masa"), (), _check_invariance),
    "find-masa": (("--input", "--seed", "--restarts"), (), _find_masa),
    "search-masa": (("--input", "--seed", "--restarts"), (), _find_masa),
    "criterion": (("--input", "--masa"), ("thm11", "thm12"), _criterion),
    "rebolledo": (("--input", "--masa"), (), _rebolledo),
    "split": (("--input", "--masa"), ("cp-part", "hamiltonian"), _split),
    "equiv": (("--input", "--other"), (), _equiv),
    "restrict": (("--input", "--masa"), (), _restrict),
    "corpus": (("example_id",), (), _corpus),
}


def _run(name: str, args) -> tuple[dict, bool]:
    """Run one command: load what it reads, call its body and wrap the
    record in the envelope of the tolerance and the echoed inputs."""
    reads, _, body = _TABLE[name]
    run = argparse.Namespace(**vars(args))
    run.problem = _load_problem(args.input, "--input") if "--input" in reads else None
    run.tol = _resolve_tol(args, run.problem)
    if "--masa" in reads:
        run.masa = _load_masa(args.masa, run.problem, run.tol)
    if "--other" in reads:
        run.other = _load_problem(args.other, "--other")
    record, ok = body(run)
    record["tolerance"] = {"atol": run.tol.atol, "rtol": run.tol.rtol}
    if run.problem is not None:
        record["inputs"] = run.problem.echo
    if "--other" in reads:
        record["other"] = run.other.echo
    return record, ok


_COMMANDS = {name: functools.partial(_run, name) for name in _TABLE}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cpmasa",
        description="Decide and certify masa invariance for CP maps and "
        "Lindblad generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (reads, variants, body) in _TABLE.items():
        cmd = sub.add_parser(name, description=body.__doc__)
        if variants:
            cmd.add_argument("variant", choices=variants)
        for arg in reads:
            cmd.add_argument(arg, **_ARGUMENTS[arg])
        cmd.add_argument("--atol", type=float, help="absolute tolerance")
        cmd.add_argument("--rtol", type=float, help="relative tolerance")
        cmd.add_argument(
            "--assert",
            dest="assert_",
            action="store_true",
            help="exit 1 when the decided property fails",
        )
        cmd.add_argument(
            "--timing", action="store_true", help="include wall time in the report"
        )
    return parser


def _render(report: dict) -> str:
    try:
        return json.dumps(report, default=_encode, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise NumericalFailure(f"report holds a non-finite number ({err})") from err


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    started = time.perf_counter()
    failure = None
    try:
        try:
            # non-finite arithmetic ends in NumericalFailure below; numpy's
            # warnings about it would only precede the error line on stderr
            with np.errstate(all="ignore"):
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
