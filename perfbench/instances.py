"""Seeded instances for the benchmark workloads, each tagged with its ground truth.

Every instance is made from a ``numpy.random.Generator`` keyed by the
workload seed and the instance's position, so one seed gives the same
arrays byte for byte. Only numpy and cpmasa's public API are used. An
instance holds plain arrays; turning them into ``KrausMap``,
``GkslGenerator`` and ``Masa`` objects is left to the workload set-up.

Conventions follow the library: a map acts as X -> sum_i L_i* X L_i, a
generator adds X beta + beta* X, and ``Masa(w)`` is the algebra w D w*.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import cpmasa as cm

# search: restarts per search_masa call. Found searches still run the whole
# budget: the early exit needs sqrt(best) < atol/10 = 1e-10 and a planted
# find lands near 4e-10.
SEARCH_RESTARTS = 20
SEARCH_SIZES = (3, 4, 6)
# a search's time depends on its seed, by up to a quarter for the same
# instance, and the median and the tail rest on the few searches in the
# middle; a round of twice the set puts twice as many there
SEARCH_COPIES = 2
# key of the fixed stream for the unrotated planted families (not tuned)
PLANTED_BASE_KEY = 1000
# copies of each question per round and size: the cheap sizes repeat so that
# the median and the tail fall among several like tasks, not on one task.
# gksl's latencies come in clusters, one per question and size, with gaps of
# up to 1.6 times between them; with 4 copies at each of d = 4, 8 and 16 the
# tail sat at the edge of the d = 16 non-minimal equivalences and jumped by a
# quarter between runs. These counts put the median inside the
# cp_part_diagonalizable d = 16 cluster and the tail inside the non-minimal
# d = 16 one, with at least two like tasks on either side of each.
CERTIFY_COPIES = {4: 4, 8: 4, 16: 2, 32: 1}
GKSL_COPIES = {4: 4, 8: 3, 16: 7, 32: 1}
CERTIFY_SIZES = tuple(CERTIFY_COPIES)
GKSL_SIZES = tuple(GKSL_COPIES)
KRAUS_COUNT = 3
SEMIGROUP_TIME = 1.0
INEQUIVALENT_SHIFT = 0.01


@dataclass(frozen=True)
class Evolution:
    """Arrays of a CP map (beta is None) or of a Lindblad-form generator."""

    ops: tuple
    beta: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def build(self):
        kraus = cm.KrausMap(self.ops)
        return kraus if self.beta is None else cm.GkslGenerator(kraus, self.beta)

    def arrays(self):
        return self.ops if self.beta is None else (*self.ops, self.beta)


@dataclass(frozen=True)
class Case:
    """One benchmark question with the ground truth it was built with.

    `kind` names the question, `evolution` (and `other` for equivalence
    questions) its inputs, `basis` the unitary of the masa asked about, if
    any, and `truth` what the construction guarantees.
    """

    kind: str
    evolution: Evolution
    truth: dict
    basis: np.ndarray | None = None
    other: Evolution | None = None
    seed: int = 0

    @property
    def dim(self) -> int:
        return self.evolution.dim

    @property
    def label(self) -> str:
        return f"{self.kind}.d{self.dim}"

    def arrays(self):
        out = list(self.evolution.arrays())
        if self.other is not None:
            out += self.other.arrays()
        if self.basis is not None:
            out.append(self.basis)
        return out


def digest(cases) -> str:
    """SHA-256 over every input array of every case, in order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.kind.encode())
        h.update(str(case.seed).encode())
        for a in case.arrays():
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- building blocks


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _conjugate(w, ops):
    return tuple(w @ op @ cm.dag(w) for op in ops)


def _pattern_ops(rng, d, n):
    """n operators with at most one complex Gaussian entry per row.

    Each such operator maps every diagonal projection to a diagonal
    element, so the family preserves the diagonal masa term by term.
    """
    ops = []
    for _ in range(n):
        cols = rng.integers(0, d + 1, size=d)
        vals = _gaussian(rng, d)
        op = np.zeros((d, d), dtype=complex)
        rows = np.flatnonzero(cols < d)
        op[rows, cols[rows]] = vals[rows]
        ops.append(op)
    return ops


def _mix(rng, ops):
    """Haar-unitary mixing of the Kraus index: same map, sparsity hidden."""
    v = cm.haar_unitary(rng, len(ops))
    return list(np.einsum("ji,iab->jab", v, np.asarray(ops)))


def _markov_drift(ops, h):
    return -sum(cm.dag(op) @ op for op in ops) / 2 + 1j * h


def _classical_kernel(base, generator: bool):
    """Expected classical restriction of a pattern family in masa coordinates.

    Entry (k, l) is the (k, k) entry of the image of E_ll, which for
    operators with one nonzero per row is sum_i |B_i[l, k]|^2; a Markov
    drift adds -(sum_i B_i* B_i)_ll on the diagonal.
    """
    p = sum(np.abs(op) ** 2 for op in base)
    kernel = p.T.copy()
    if generator:
        kernel -= np.diag(p.sum(axis=0))
    return kernel


def _gauge_shift(rng, ops, beta):
    """Shift L_i -> L_i + z_i and compensate the drift; the generator is unchanged."""
    d = beta.shape[0]
    z = _gaussian(rng, len(ops))
    gamma = 1j * rng.standard_normal() - np.vdot(z, z) / 2
    new_beta = beta + gamma * np.eye(d) - sum(np.conj(z[i]) * op for i, op in enumerate(ops))
    return [op + z[i] * np.eye(d) for i, op in enumerate(ops)], new_beta


def _transformed(rng, ops, beta, extra):
    """Gauge-transformed presentation of (ops, beta) and the transformation.

    Jumps eta'_j + sum_i M_ji L_i with an isometry M of shape (n + extra, n),
    drift beta + gamma + sum_i conj(eta_i) L_i with eta = -M* eta' and
    gamma = i h - |eta'|^2 / 2. The generator is unchanged.
    """
    d = beta.shape[0]
    n = len(ops)
    m, _ = np.linalg.qr(_gaussian(rng, (n + extra, n)))
    eta_prime = _gaussian(rng, n + extra)
    h = float(rng.standard_normal())
    gamma = 1j * h - np.vdot(eta_prime, eta_prime) / 2
    eta = -cm.dag(m) @ eta_prime
    alpha = beta + gamma * np.eye(d) + sum(np.conj(eta[i]) * ops[i] for i in range(n))
    new_ops = [
        eta_prime[j] * np.eye(d) + sum(m[j, i] * ops[i] for i in range(n)) for j in range(n + extra)
    ]
    return Evolution(tuple(new_ops), alpha), {"m": m, "eta_prime": eta_prime, "h": h}


def _minimal_presentation(rng, d, n):
    """Gaussian jumps and drift with {1, L_i} independent at the library's rank threshold."""
    while True:
        ops = [_gaussian(rng, (d, d)) / np.sqrt(d) for _ in range(n)]
        beta = _gaussian(rng, (d, d)) / np.sqrt(d)
        if cm.GkslGenerator(cm.KrausMap(ops), beta).is_minimal:
            return ops, beta


# ---------------------------------------------------------------- search


def _planted_search(base_rng, rng, kind, d):
    """A map or generator with an invariant masa, hidden by a seeded Haar rotation.

    The unrotated family comes from `base_rng` and the rotation from `rng`.
    """
    if kind == "planted_map":
        base, drift = _mix(base_rng, _pattern_ops(base_rng, d, KRAUS_COUNT)), None
    elif kind == "planted_unital":
        # sqrt(p_i) D_i P_i: phase-permutation unitaries, so sum L_i* L_i = 1
        p = base_rng.dirichlet(np.ones(KRAUS_COUNT))
        base = []
        for pi in p:
            perm = np.eye(d)[base_rng.permutation(d)]
            base.append(np.sqrt(pi) * np.diag(np.exp(2j * np.pi * base_rng.random(d))) @ perm)
        drift = None
    else:
        base = _mix(base_rng, _pattern_ops(base_rng, d, KRAUS_COUNT))
        drift = _markov_drift(base, np.diag(base_rng.standard_normal(d)))
    w = cm.haar_unitary(rng, d)
    beta = None if drift is None else w @ drift @ cm.dag(w)
    return Evolution(_conjugate(w, base), beta), w


_BARREN = (
    # (label, corpus id, corner dimension or None)
    ("barren_ex2_1", "ex2_1", None),
    ("barren_ex2_1_corner", "ex2_1", 3),
    ("barren_ex2_1_corner", "ex2_1", 4),
    ("barren_ex3_4_halved", "ex3_4", None),
    ("barren_ex3_3", "ex3_3", None),
)


def _barren_search(rng, example_id, corner):
    """A Haar conjugate of a corpus case whose invariant masa provably does not exist."""
    payload = cm.build_example(example_id).payload
    if example_id == "ex3_3":
        ops, beta = payload.kraus.operators, payload.beta
    else:
        if corner is not None:
            payload = cm.embed_corner(payload, corner)
        ops, beta = payload.operators, None
        if example_id == "ex3_4":
            ops = [op / np.sqrt(2) for op in ops]
    w = cm.haar_unitary(rng, ops[0].shape[0])
    return Evolution(_conjugate(w, ops), None if beta is None else w @ beta @ cm.dag(w))


def search_cases(seed: int) -> list[Case]:
    """One round: SEARCH_COPIES times 4 constructive M2 cases, 9 planted and 9 barren searches.

    As with the barren cases, which are fixed corpus maps, the unrotated
    planted families are the same for every seed; the seed draws the hiding
    rotations and the search seeds. How long a search runs depends mostly on
    the family, so the work of a round changes little with the seed.
    """
    cases = []

    def rng_for(i):
        return np.random.default_rng([seed, 2, i])

    def search_seed(rng):
        return int(rng.integers(0, 2**31))

    for _ in range(SEARCH_COPIES):
        for _ in range(2):
            rng = rng_for(len(cases))
            t = cm.random_unital_kraus(rng, 2, 3)
            cases.append(Case("m2_unital", Evolution(t.operators), {"exists": True}))
            rng = rng_for(len(cases))
            ops = [_gaussian(rng, (2, 2)) for _ in range(2)]
            h = _gaussian(rng, (2, 2))
            drift = _markov_drift(ops, (h + cm.dag(h)) / 2)
            cases.append(Case("m2_markov", Evolution(tuple(ops), drift), {"exists": True}))
        for kind in ("planted_map", "planted_unital", "planted_markov"):
            for d in SEARCH_SIZES:
                rng = rng_for(len(cases))
                base_rng = np.random.default_rng([PLANTED_BASE_KEY, len(cases)])
                evo, w = _planted_search(base_rng, rng, kind, d)
                cases.append(Case(kind, evo, {"exists": True}, basis=w, seed=search_seed(rng)))
        # every barren case once, and the four of dimension >= 3 a second time
        for label, example_id, corner in _BARREN + _BARREN[1:]:
            rng = rng_for(len(cases))
            evo = _barren_search(rng, example_id, corner)
            cases.append(Case(label, evo, {"exists": False}, seed=search_seed(rng)))
    return cases


# ---------------------------------------------------------------- certify


def _certify_case(rng, d, generator: bool, invariant: bool) -> Case:
    n = KRAUS_COUNT
    w = cm.haar_unitary(rng, d)
    if not invariant:
        ops = [_gaussian(rng, (d, d)) / np.sqrt(d) for _ in range(n)]
        beta = _gaussian(rng, (d, d)) / np.sqrt(d) if generator else None
        kind = "generic_" + ("generator" if generator else "map")
        return Case(kind, Evolution(tuple(ops), beta), {"invariant": False}, basis=w)
    base = _pattern_ops(rng, d, n)
    kernel = _classical_kernel(base, generator)
    ops = _mix(rng, base)
    beta = None
    if generator:
        beta = _markov_drift(ops, np.diag(rng.standard_normal(d)))
        # gauge-shifted, so the invariance is not visible on its face
        ops, beta = _gauge_shift(rng, ops, beta)
        beta = w @ beta @ cm.dag(w)
    kind = "invariant_" + ("generator" if generator else "map")
    truth = {"invariant": True, "kernel": kernel}
    return Case(kind, Evolution(_conjugate(w, ops), beta), truth, basis=w)


def certify_cases(seed: int) -> list[Case]:
    """One round: of each (map | generator) x (invariant | generic), CERTIFY_COPIES[d] at each size."""
    cases = []
    for d in CERTIFY_SIZES:
        for _ in range(CERTIFY_COPIES[d]):
            for generator in (False, True):
                for invariant in (True, False):
                    rng = np.random.default_rng([seed, 3, len(cases)])
                    cases.append(_certify_case(rng, d, generator, invariant))
    return cases


# ---------------------------------------------------------------- gksl


def _invariant_markov(rng, d):
    """Markov generator preserving Masa(w), gauge-shifted, with its basis w."""
    w = cm.haar_unitary(rng, d)
    base = _mix(rng, _pattern_ops(rng, d, KRAUS_COUNT))
    ops, beta = _gauge_shift(rng, base, _markov_drift(base, np.diag(rng.standard_normal(d))))
    return Evolution(_conjugate(w, ops), w @ beta @ cm.dag(w)), w


GKSL_KINDS = (
    "equiv_direct",
    "equiv_nonminimal",
    "equiv_inequivalent",
    "cp_part",
    "hamiltonian_feasible",
    "hamiltonian_infeasible",
    "semigroup",
)


def _gksl_case(rng, kind, d) -> Case:
    n = KRAUS_COUNT
    if kind.startswith("equiv"):
        ops, beta = _minimal_presentation(rng, d, n)
        reference = Evolution(tuple(ops), beta)
        if kind == "equiv_direct":
            other, truth = _transformed(rng, ops, beta, extra=int(rng.integers(0, 2)))
        elif kind == "equiv_nonminimal":
            other, truth = _transformed(rng, ops, beta, extra=1)
            # a scalar jump makes {1, L_i} dependent; the drift compensates it
            reference = Evolution((*ops, np.eye(d, dtype=complex)), beta - np.eye(d) / 2)
        else:
            # a real positive scalar shift of the drift is no gauge move
            other = Evolution(tuple(ops), beta + INEQUIVALENT_SHIFT * np.eye(d))
            truth = {"distance": 2 * INEQUIVALENT_SHIFT * d}
        return Case(kind, reference, truth, other=other)
    if kind == "hamiltonian_infeasible":
        ops, beta = _minimal_presentation(rng, d, n)
        return Case(kind, Evolution(tuple(ops), beta), {"feasible": False}, basis=cm.haar_unitary(rng, d))
    evo, w = _invariant_markov(rng, d)
    return Case(kind, evo, {"feasible": True, "invariant": True}, basis=w)


def gksl_cases(seed: int) -> list[Case]:
    """One round: each of the seven gksl questions GKSL_COPIES[d] times at each size."""
    cases = []
    for d in GKSL_SIZES:
        for _ in range(GKSL_COPIES[d]):
            for kind in GKSL_KINDS:
                rng = np.random.default_rng([seed, 4, len(cases)])
                cases.append(_gksl_case(rng, kind, d))
    return cases


CASES = {"search": search_cases, "certify": certify_cases, "gksl": gksl_cases}
