"""The four workloads as lists of timed tasks, each with its correctness check.

A task's `call` is one user question, timed from call to return. Its
`check` compares the answer with the ground truth the instance was built
with and runs outside the timed interval; it returns None when the answer
is right and a reason otherwise. Every library call goes through an
attribute of the ``cpmasa`` package at call time, so the tracer's rebinding
sees it.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import cpmasa as cm
import cpmasa.cli

from instances import CASES, SEARCH_RESTARTS, SEMIGROUP_TIME, Case

# bound on witness defects and restriction errors, relative to the instance scale
WITNESS_BOUND = 1e-8


@dataclass
class Task:
    label: str
    size: int
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    planted: bool = False

    def found(self, outcome) -> bool:
        """Whether a planted search returned a masa that passes the direct verdict."""
        return self.planted and bool(outcome)

    def report_bytes(self, outcome) -> int:
        """Bytes of report the CLI wrote, for corpus tasks."""
        return len(outcome[1].encode()) if self.label.startswith("corpus.") else 0


# ---------------------------------------------------------------- corpus


def _corpus_task(example_id: str) -> Task:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cm.cli.main(["corpus", example_id])
        return code, out.getvalue()

    def check(outcome):
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except ValueError:
            return "report is not valid JSON"
        if report.get("ok") is not True:
            failing = [c["name"] for c in report.get("checks", []) if c["asserted"] and not c["ok"]]
            return f"report not ok: {failing}"
        return None

    return Task(f"corpus.{example_id}", 0, call, check)


# ---------------------------------------------------------------- search


def _search_task(case: Case) -> Task:
    source = case.evolution.build()
    is_map = case.evolution.beta is None

    def verdict(masa):
        if is_map:
            return cm.is_invariant_map(source, masa)
        return cm.is_invariant_generator(source, masa)

    if case.kind.startswith("m2"):

        def call():
            return verdict(cm.find_masa_m2(source))

    else:

        def call():
            masa, _ = cm.search_masa(source, restarts=SEARCH_RESTARTS, seed=case.seed)
            return verdict(masa)

    def check(outcome):
        if case.kind.startswith("m2") and not outcome:
            return f"constructive masa fails the verdict, residual {outcome.residual:.3e}"
        if not case.truth["exists"] and outcome:
            return f"barren instance passed the verdict, residual {outcome.residual:.3e}"
        return None

    return Task(case.label, case.dim, call, check, planted=case.kind.startswith("planted"))


# ---------------------------------------------------------------- certify


def _certify_task(case: Case) -> Task:
    source = case.evolution.build()
    masa = cm.Masa(case.basis)
    is_map = case.evolution.beta is None

    def call():
        if is_map:
            verdict = cm.is_invariant_map(source, masa)
            criterion = cm.solve_kraus_coefficients(source, masa)
        else:
            verdict = cm.is_invariant_generator(source, masa)
            criterion = cm.solve_generator_coefficients(source, masa)
        kernel = cm.classical_restriction(source, masa) if verdict.ok else None
        return verdict, criterion, kernel

    def check(outcome):
        verdict, criterion, kernel = outcome
        expected = case.truth["invariant"]
        if bool(verdict) != expected:
            return f"verdict {bool(verdict)}, residual {verdict.residual:.3e} vs {verdict.threshold:.3e}"
        if bool(criterion) != expected:
            return f"criterion {bool(criterion)}, residual {criterion.residual:.3e}"
        if expected:
            truth = case.truth["kernel"]
            err = float(np.linalg.norm(kernel - truth))
            if err > WITNESS_BOUND * max(1.0, float(np.linalg.norm(truth))):
                return f"classical restriction off by {err:.3e}"
        return None

    return Task(case.label, case.dim, call, check)


# ---------------------------------------------------------------- gksl


def _defects(witness, names):
    bound = WITNESS_BOUND * max(1.0, witness.checks["scale"])
    return [f"{n}={witness.checks[n]:.3e}" for n in names if witness.checks[n] > bound]


def _gksl_task(case: Case) -> Task:
    gen = case.evolution.build()
    other = case.other.build() if case.other is not None else None
    masa = cm.Masa(case.basis) if case.basis is not None else None
    kind = case.kind

    if kind.startswith("equiv"):

        def call():
            return cm.gksl_equivalent(gen, other)

    elif kind == "cp_part":

        def call():
            return cm.cp_part_diagonalizable(gen, masa)

    elif kind.startswith("hamiltonian"):

        def call():
            return cm.hamiltonian_part_diagonalizable(gen, masa)

    else:

        def call():
            return cm.is_invariant_superoperator(cm.semigroup_at(gen, SEMIGROUP_TIME), masa)

    def check(outcome):
        truth = case.truth
        if kind == "equiv_inequivalent":
            if not isinstance(outcome, cm.Inequivalent):
                return "perturbed pair reported equivalent"
            if abs(outcome.distance - truth["distance"]) > 1e-6 * truth["distance"]:
                return f"distance {outcome.distance:.6e}, built {truth['distance']:.6e}"
            return None
        if kind.startswith("equiv"):
            if not isinstance(outcome, cm.TransformWitness):
                return f"gauge pair reported inequivalent, distance {outcome.distance:.3e}"
            if kind == "equiv_direct":
                bad = _defects(outcome, ("drift_equation_residual", "isometry_defect", "real_part_defect"))
                scale = WITNESS_BOUND * max(1.0, outcome.checks["scale"])
                if np.linalg.norm(outcome.m_matrix - truth["m"]) > scale:
                    bad.append("m_matrix differs from the built transformation")
                if np.linalg.norm(outcome.eta_prime - truth["eta_prime"]) > scale:
                    bad.append("eta_prime differs from the built transformation")
                if abs(outcome.h_scalar - truth["h"]) > scale:
                    bad.append("h differs from the built transformation")
            else:
                bad = _defects(
                    outcome,
                    ("superoperator_distance", "drift_equation_residual", "partial_isometry_defect"),
                )
            return "; ".join(bad) or None
        if kind == "semigroup":
            return None if outcome else f"semigroup verdict residual {outcome.residual:.3e}"
        if outcome.feasible != truth["feasible"]:
            return f"feasible {outcome.feasible}, residual {outcome.residual:.3e}"
        if not truth["feasible"] and outcome.infeasibility_certificate is None:
            return "infeasible without a certificate"
        return None

    return Task(case.label, case.dim, call, check)


# ---------------------------------------------------------------- assembly

_BUILDERS = {"search": _search_task, "certify": _certify_task, "gksl": _gksl_task}


def _spread(tasks: list[Task]) -> list[Task]:
    """Order a round so that the tasks of each size are spaced evenly through it.

    The machine's speed drifts by tens of percent over a few seconds. Spread
    out, the tasks that decide the median and the tail sample the whole run
    rather than one stretch of it.
    """
    by_size: dict[int, list[Task]] = {}
    for task in tasks:
        by_size.setdefault(task.size, []).append(task)
    slots = [((j + 0.5) / len(group), size, task) for size, group in by_size.items() for j, task in enumerate(group)]
    return [task for _, _, task in sorted(slots, key=lambda slot: slot[:2])]


def build(workload: str, seed: int) -> tuple[list[Task], Task]:
    """One round of tasks for the workload and seed, and the untimed warm-up task.

    The corpus content is fixed, so it ignores the seed. Elsewhere the
    warm-up is the first task of the smallest size.
    """
    if workload == "corpus":
        return [_corpus_task(e) for e in cm.CORPUS_IDS], _corpus_task("ex2_2")
    tasks = _spread([_BUILDERS[workload](case) for case in CASES[workload](seed)])
    return tasks, min(tasks, key=lambda t: t.size)
