"""Seeded random instances shared across the test modules.

Invariant instances are built so the diagonal masa (conjugated by a Haar
unitary) is preserved by construction; generic instances are iid complex
Gaussian and are non-invariant except on a measure-zero set. The tests
assert verdict agreement between solvers and direct residuals, so an
accidental invariant draw cannot produce a false failure.
"""

import numpy as np

from cpmasa import (
    GkslGenerator,
    KrausMap,
    Masa,
    dag,
    haar_unitary,
    markov_form,
    random_unital_kraus,
)


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pattern_ops(rng, d, n):
    """Kraus family where each row of each operator has at most one nonzero.

    Such a family preserves the diagonal masa operator by operator.
    """
    ops = []
    for _ in range(n):
        k = np.zeros((d, d), dtype=complex)
        for r in range(d):
            choice = int(rng.integers(0, d + 1))
            if choice < d:
                k[r, choice] = complex(rng.standard_normal(), rng.standard_normal())
        ops.append(k)
    return ops


def mix_ops(rng, ops):
    """Rotate the operator index by a Haar unitary; the CP map is unchanged,
    but the individual operators lose their sparsity pattern."""
    n = len(ops)
    v = haar_unitary(rng, n)
    return [sum(v[j, i] * ops[i] for i in range(n)) for j in range(n)]


def invariant_map_instance(rng, d, n):
    """(KrausMap, Masa) with the masa preserved by construction."""
    base = pattern_ops(rng, d, n)
    if n > 1:
        base = mix_ops(rng, base)
    w = haar_unitary(rng, d)
    ops = [w @ op @ dag(w) for op in base]
    return KrausMap(ops), Masa(w)


def invariant_unital_map_instance(rng, d, n):
    """(KrausMap, Masa) of a unital map preserving the masa by construction.

    The operators are sqrt(p_i)·D_i·P_i in the masa's basis, for phase
    diagonals D_i, permutations P_i and a Dirichlet p, so Σ L_i* L_i = 1.
    """
    p = rng.dirichlet(np.ones(n))
    base = [
        np.sqrt(pi) * np.diag(np.exp(2j * np.pi * rng.random(d))) @ np.eye(d)[rng.permutation(d)]
        for pi in p
    ]
    w = haar_unitary(rng, d)
    return KrausMap([w @ op @ dag(w) for op in base]), Masa(w)


def generic_map_instance(rng, d, n):
    """(KrausMap, Masa) with iid Gaussian operators and a Haar masa."""
    ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
    return KrausMap(ops), Masa(haar_unitary(rng, d))


def invariant_generator_instance(rng, d, n, gauge_shift=False):
    """(GkslGenerator, Masa) preserving the masa.

    The base presentation is Markov with a diagonal Hamiltonian. With
    gauge_shift the jump operators pick up scalar offsets compensated in the
    drift, so the presentation no longer shows the invariance on its face.
    """
    base = pattern_ops(rng, d, n)
    if n > 1:
        base = mix_ops(rng, base)
    h = np.diag(rng.standard_normal(d)).astype(complex)
    beta = -sum(dag(op) @ op for op in base) / 2 + 1j * h
    if gauge_shift and n > 0:
        z = complex_gaussian(rng, n)
        gamma = 1j * rng.standard_normal() - np.vdot(z, z) / 2
        beta = beta + gamma * np.eye(d) - sum(np.conj(z[i]) * base[i] for i in range(n))
        base = [base[i] + z[i] * np.eye(d) for i in range(n)]
    w = haar_unitary(rng, d)
    ops = [w @ op @ dag(w) for op in base]
    return GkslGenerator(KrausMap(ops), w @ beta @ dag(w)), Masa(w)


def vanishing_row_generator_instance(rng, d, n, entry):
    """(GkslGenerator, Masa) that is not invariant, though its jumps preserve the masa.

    The jumps are diagonal or, at random, pattern families in a Haar masa, so
    in masa coordinates some or all rows of their off-diagonal parts vanish
    up to rounding. The drift is Markov plus `entry`
    at one off-diagonal position, where no scalar shift of the jumps can
    absorb it; a shift fitted to the rounding noise of a vanishing row can
    appear to.
    """
    if rng.integers(2) == 0:
        base = [np.diag(complex_gaussian(rng, d)) for _ in range(n)]
    else:
        base = pattern_ops(rng, d, n)
    beta = -sum(dag(op) @ op for op in base) / 2 + 1j * np.diag(rng.standard_normal(d))
    r, s = rng.choice(d, 2, replace=False)
    beta[r, s] += entry
    w = haar_unitary(rng, d)
    return GkslGenerator(KrausMap([w @ op @ dag(w) for op in base]), w @ beta @ dag(w)), Masa(w)


def generic_generator_instance(rng, d, n):
    ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
    beta = complex_gaussian(rng, (d, d))
    return GkslGenerator(KrausMap(ops), beta), Masa(haar_unitary(rng, d))


def random_markov_generator(rng, d, n):
    """Markov generator: drift determined by the jumps and a random Hamiltonian."""
    ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
    h = complex_gaussian(rng, (d, d))
    return markov_form(KrausMap(ops), (h + dag(h)) / 2)


def minimal_presentation(rng, d, n):
    """Gaussian presentation with {1, L_i} independent (re-drawn if not)."""
    while True:
        ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
        gen = GkslGenerator(KrausMap(ops), complex_gaussian(rng, (d, d)))
        if gen.is_minimal:
            return gen


def transformed_presentation(rng, gen, extra=0):
    """Apply a random gauge transformation to a Lindblad presentation.

    Draws an isometry M of shape (n + extra, n), a vector eta', and a real
    h, and returns the presentation with jumps eta'_j + Σ_i M_ji L_i and the
    compensated drift. The generator is unchanged.
    """
    d = gen.dim
    n = len(gen.kraus)
    j = n + extra
    z = complex_gaussian(rng, (j, n))
    m, _ = np.linalg.qr(z)
    eta_prime = complex_gaussian(rng, j)
    h = rng.standard_normal()
    gamma = 1j * h - np.vdot(eta_prime, eta_prime) / 2
    eta = -dag(m) @ eta_prime
    ops = gen.kraus.operators
    alpha = gen.beta + gamma * np.eye(d) + sum(np.conj(eta[i]) * ops[i] for i in range(n))
    new_ops = [
        eta_prime[row] * np.eye(d) + sum(m[row, i] * ops[i] for i in range(n))
        for row in range(j)
    ]
    moved = GkslGenerator(KrausMap(new_ops), alpha)
    return moved, (m, eta_prime, h)


def random_unital_map(rng, d, count):
    return random_unital_kraus(rng, d, count)
