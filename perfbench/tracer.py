"""Per-layer tracing of cpmasa from outside the package.

`Tracer.install` replaces each listed public function, in every loaded
``cpmasa`` namespace where that very function object is bound, by a wrapper
that records a span. Matching by identity also catches aliases such as
``cpmasa.map_superoperator`` and late imports such as a function-local
``from .cpmaps import is_unital``. `Tracer.uninstall` puts every original
binding back. Spans (name, start, end, parent, task id) are kept in flat
arrays in memory and summarised or saved when the run ends.

A span's self time is its duration minus the time its child spans cover, so
numpy work done directly in a module's function body counts toward that
module's layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "masa": (
        "search_masa",
        "search_invariant_projections",
        "find_masa_m2",
        "is_invariant_map",
        "is_invariant_generator",
        "is_invariant_superoperator",
        "solve_kraus_coefficients",
        "solve_generator_coefficients",
        "classical_restriction",
        "rebolledo_check",
    ),
    "linalg": (
        "real_linear_least_squares",
        "complex_least_squares",
        "hermitian_eig",
        "expm_skew",
        "matrix_exp",
        "nullspace",
        "matrix_rank_tol",
        "commutant_intersection",
        "haar_unitary",
    ),
    "cpmaps": ("apply_cp", "superoperator", "choi_matrix", "minimal_kraus", "kraus_transform"),
    "gksl": (
        "apply_generator",
        "superoperator",
        "gksl_equivalent",
        "cp_part_diagonalizable",
        "hamiltonian_part_diagonalizable",
        "semigroup_at",
    ),
    "corpus": ("verify_example", "build_example"),
    "cli": ("main",),
}

CORPUS_IDS = ("ex2_1", "ex2_2", "ex2_8", "ex3_2", "ex3_3", "ex3_4")
TASK = "task"
LSTSQ = ("linalg.real_linear_least_squares", "linalg.complex_least_squares")


def _lstsq_flops(a, *args, **kwargs):
    m, n = np.shape(a)
    return m * n * n


def _superoperator_bytes(t, *args, **kwargs):
    return 16 * t.dim**4


def _example_id(example_id, *args, **kwargs):
    return CORPUS_IDS.index(example_id) if example_id in CORPUS_IDS else -1


# functions whose arguments are noted per call, for the extra counts
NOTES = {
    "linalg.real_linear_least_squares": _lstsq_flops,
    "linalg.complex_least_squares": _lstsq_flops,
    "cpmaps.superoperator": _superoperator_bytes,
    "corpus.verify_example": _example_id,
}


# counts and times derived from the spans beyond calls and self time, with
# those the benchmark adds from its own records
EXTRA_UNITS = {
    "masa.search_masa.restarts": "count",
    "masa.search_masa.line_search_trials": "count",
    "masa.search_invariant_projections.objective_evals": "count",
    "linalg.lstsq.flops_computed": "flop",
    "cpmaps.superoperator.bytes_computed": "B",
    "gksl.hamiltonian_part_diagonalizable.lstsq_calls": "count",
    **{f"corpus.{example_id}.wall_s": "s" for example_id in CORPUS_IDS},
    "cli.report_bytes": "B",
    "trace.overhead_s": "s",
    "found_fraction": "fraction",
}


def metric_units() -> dict:
    """Every per-layer metric name of a traced run, with its unit."""
    units = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    units.update(EXTRA_UNITS)
    return units


class Tracer:
    """Span recorder for the functions in `LAYERS`; install, run tasks, summarise."""

    def __init__(self):
        self.names = [TASK] + [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.note = array("q")
        self._stack = [-1]
        self._task_id = -1
        self._rebound = []

    # ------------------------------------------------------------ recording

    def _open(self, name_id: int, note: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.task.append(self._task_id)
        self.note.append(note)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        note_fn = NOTES.get(name)
        open_span, stack, start, end, clock = self._open, self._stack, self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(name_id, note_fn(*args, **kwargs) if note_fn else 0)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def run_task(self, task_id: int, call):
        """Run `call()` inside a root span for task `task_id`; returns its result."""
        self._task_id = task_id
        idx = self._open(0, 0)
        self.start[idx] = time.perf_counter()
        try:
            return call()
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._task_id = -1

    # ------------------------------------------------------------ rebinding

    def install(self):
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"cpmasa.{layer}")
            for fn_name in fns:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cpmasa" and not mod_name.startswith("cpmasa."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))
        return self

    def uninstall(self):
        while self._rebound:
            module, attr, value = self._rebound.pop()
            setattr(module, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ summary

    def arrays(self) -> dict:
        """The spans as numpy arrays (index i is span i; parent -1 is a root)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "note": np.frombuffer(self.note, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-function calls and self time, per-layer self time and share, extra counts."""
        s = self.arrays()
        name, parent, note = s["name"], s["parent"], s["note"]
        count = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
        self_time = dur - covered
        calls = np.bincount(name, minlength=count)
        self_by_name = np.bincount(name, weights=self_time, minlength=count)
        task_time = float(dur[name == 0].sum())

        out = {}
        for layer, fns in LAYERS.items():
            layer_self = 0.0
            for fn in fns:
                i = self._ids[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.calls"] = int(calls[i])
                out[f"{layer}.{fn}.self_s"] = float(self_by_name[i])
                layer_self += float(self_by_name[i])
            out[f"{layer}.self_s"] = layer_self
            out[f"{layer}.share"] = layer_self / task_time if task_time > 0 else 0.0
        out["task.self_s"] = float(self_by_name[0])
        out["task.wall_s"] = task_time

        def beneath(ancestor: str, names) -> int:
            ids = [self._ids[n] for n in names]
            return int(np.count_nonzero(np.isin(name, ids) & self._under(name, parent, ancestor)))

        out["masa.search_masa.restarts"] = beneath("masa.search_masa", ["linalg.haar_unitary"])
        out["masa.search_masa.line_search_trials"] = beneath("masa.search_masa", ["linalg.expm_skew"])
        out["masa.search_invariant_projections.objective_evals"] = beneath(
            "masa.search_invariant_projections", ["gksl.apply_generator"]
        )
        out["gksl.hamiltonian_part_diagonalizable.lstsq_calls"] = beneath(
            "gksl.hamiltonian_part_diagonalizable", LSTSQ
        )
        lstsq = np.isin(name, [self._ids[n] for n in LSTSQ])
        out["linalg.lstsq.flops_computed"] = int(note[lstsq].sum())
        out["cpmaps.superoperator.bytes_computed"] = int(
            note[name == self._ids["cpmaps.superoperator"]].sum()
        )
        verify = name == self._ids["corpus.verify_example"]
        for k, example_id in enumerate(CORPUS_IDS):
            out[f"corpus.{example_id}.wall_s"] = float(dur[verify & (note == k)].sum())
        return out

    def _under(self, name, parent, ancestor: str):
        """Mask of spans that have a span named `ancestor` above them."""
        target = self._ids[ancestor]
        safe = np.where(parent >= 0, parent, 0)
        rooted = parent >= 0
        under = np.zeros(len(name), dtype=bool)
        while True:
            step = rooted & ((name[safe] == target) | under[safe])
            if np.array_equal(step, under):
                return under
            under = step
