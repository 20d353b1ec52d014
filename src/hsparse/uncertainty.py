"""Uncertainty audits: kernel concentration bounds and two-dictionary limits.

``kernel_uncertainty_audit`` checks, for every set size k, that a kernel
vector cannot be too concentrated: k must be at least
(1 - eps_k)(1 + 1/mu_h).  ``gup_audit`` checks the two-dictionary product
bound on the occupied-block counts of two signals with identical images.
Both bounds are theorems, so a failing audit on inputs satisfying the
hypotheses signals an implementation or conditioning problem, not new
mathematics.  ``picket_fence`` produces the classical equality witness for
the identity/Fourier pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import index

import numpy as np

from .blocks import (RANK_TOL, BlockDictionary, BlockVector, NumericalAnomaly,
                     best_concentration_set, concentration_epsilon,
                     uniform_structure)
from .coherence import AUDIT_SLACK, hilbert_coherence, mutual_hilbert_coherence
from .models import complex_standard_normal, unitary_dft

# Relative residual ||D.unit v|| / ||v|| up to which v counts as a kernel
# vector; for unit-norm columns at most twice as loose as in D's own units.
KERNEL_RESIDUAL_TOL = 1e-10
# Gap, relative to the larger of ||D1|| ||u|| and ||D2|| ||v||, up to which
# two sampled images D1 u and D2 v count as one measurement.
IMAGE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class KernelBound:
    """One row of a kernel concentration profile."""

    k: int
    epsilon: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class GupAudit:
    """Evaluation of the two-dictionary uncertainty bound on one instance.

    ``lhs`` is |U| * |V|; ``rhs`` the product bound assembled from the two
    concentration defects and the three coherences.  ``anomaly`` marks the
    degenerate mutual-coherence-zero case, where the bound is vacuous yet
    the matching-image hypothesis held; such instances deserve manual review.
    """

    lhs: int
    rhs: float
    eps_u: float
    eps_v: float
    mu_phi: float
    mu_psi: float
    mu_mutual: float
    holds: bool
    slack: float
    anomaly: bool = False

    def to_mapping(self) -> dict:
        return asdict(self)


def kernel_sample(D: BlockDictionary, seed: int) -> BlockVector:
    """Unit-norm random vector in the numerical kernel of D.

    A complex Gaussian draw is projected onto the span of the right singular
    vectors whose singular values fall below RANK_TOL relative to the
    largest.  Deterministic per seed.
    """
    mat = D.matrix
    n_cols = mat.shape[1]
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    if rank >= n_cols:
        raise ValueError("trivial kernel: the dictionary is injective")
    basis = vh[rank:].conj().T
    g = complex_standard_normal(np.random.default_rng(index(seed)), n_cols)
    z = basis @ (basis.conj().T @ g)
    nz = float(np.linalg.norm(z))
    if nz == 0.0:
        raise NumericalAnomaly("Gaussian draw projected to exactly zero")
    return BlockVector(z / nz, D.structure)


def kernel_uncertainty_audit(D: BlockDictionary, v: BlockVector,
                             tol_kernel: float = KERNEL_RESIDUAL_TOL) -> list[KernelBound]:
    """Concentration profile of a kernel vector against the coherence bound.

    For each k = 1..n the best k-block set is found, its epsilon computed,
    and the bound (1 - eps)(1 + 1/mu_h) compared against k.  Every row must
    hold for a kernel vector, ||D.unit v|| <= tol_kernel ||v|| (scale-free,
    like mu_h); the full profile pinpoints the offending set size.
    """
    if not 0 <= tol_kernel < math.inf:   # also rejects NaN
        raise ValueError("tol_kernel must be nonnegative and finite")
    if v.structure != D.structure:
        raise ValueError("vector and dictionary use different block structures")
    vn = v.norm()
    if vn <= 0.0:
        raise ValueError("zero vector has no concentration profile")
    if float(np.linalg.norm(D.unit @ v.entries)) > tol_kernel * vn:
        raise ValueError("not a kernel vector")
    mu = hilbert_coherence(D)
    if mu <= 0.0:
        # Injective blocks with orthogonal ranges stack to an injective map,
        # so a kernel vector cannot coexist with zero coherence.
        raise NumericalAnomaly("zero coherence alongside a nontrivial kernel")
    profile = []
    for k in range(1, D.n_blocks + 1):
        cert = best_concentration_set(v, k)
        bound = (1.0 - cert.epsilon) * (1.0 + 1.0 / mu)
        profile.append(KernelBound(k, cert.epsilon, bound, k >= bound - AUDIT_SLACK))
    return profile


def gup_audit(D1: BlockDictionary, D2: BlockDictionary, u: BlockVector,
              v: BlockVector, set_u, set_v,
              tol_match: float = IMAGE_MATCH_TOL) -> GupAudit:
    """Audit the product bound |U||V| >= rhs for signals with equal images.

    The concentration defects are recomputed from the supplied sets rather
    than trusted from the caller.  rhs combines the positive parts
    [(1 - eps)(1 + mu) - |set| mu]^+ for each side, scaled by the inverse
    squared mutual coherence.  The images D1 u and D2 v match when their
    gap is at most tol_match times the larger of ||D1|| ||u|| and
    ||D2|| ||v|| (Frobenius), all from ``D1.unit`` and ``D2.unit`` in one
    power-of-two scale: scale-free, and kernel rounding residue matches.
    """
    if not 0 <= tol_match < math.inf:   # also rejects NaN
        raise ValueError("tol_match must be nonnegative and finite")
    if u.structure != D1.structure or v.structure != D2.structure:
        raise ValueError("signal and dictionary block structures disagree")
    if u.norm() <= 0.0 or v.norm() <= 0.0:
        raise ValueError("signals must be nonzero")
    top = max(D1.exponent, D2.exponent)
    img_u, img_v = (np.ldexp((D.unit @ x.entries).view(np.float64), D.exponent - top)
                    for D, x in ((D1, u), (D2, v)))
    scale = max(math.ldexp(float(np.linalg.norm(D.unit)) * x.norm(), D.exponent - top)
                for D, x in ((D1, u), (D2, v)))
    if np.linalg.norm(img_u - img_v) > tol_match * scale:
        raise ValueError("sampled images differ: the two signals do not share a measurement")

    card_u = len({u.structure.check_index(i) for i in set_u})
    card_v = len({v.structure.check_index(i) for i in set_v})
    eps_u = concentration_epsilon(u, set_u)
    eps_v = concentration_epsilon(v, set_v)
    mu_phi = hilbert_coherence(D1)
    mu_psi = hilbert_coherence(D2)
    mu_m = mutual_hilbert_coherence(D1, D2)
    lhs = card_u * card_v

    if mu_m <= 0.0:
        # Orthogonal ranges make the bound vacuous; reaching here means the
        # matching-image hypothesis nevertheless held (images zero or residue).
        return GupAudit(lhs, math.inf, eps_u, eps_v, mu_phi, mu_psi, mu_m,
                        holds=False, slack=-math.inf, anomaly=True)

    left = max(0.0, (1.0 - eps_u) * (1.0 + mu_phi) - card_u * mu_phi)
    right = max(0.0, (1.0 - eps_v) * (1.0 + mu_psi) - card_v * mu_psi)
    rhs = left * right / (mu_m * mu_m)
    return GupAudit(lhs, rhs, eps_u, eps_v, mu_phi, mu_psi, mu_m,
                    holds=lhs >= rhs - AUDIT_SLACK, slack=lhs - rhs)


def picket_fence(n: int) -> tuple[BlockVector, BlockVector, tuple[int, ...], tuple[int, ...]]:
    """Equality witness for the identity/Fourier uncertainty bound.

    For n = p*p the comb with spikes every p positions transforms to another
    p-spike comb, so the same measurement has two representations occupying
    exactly sqrt(n) blocks each.  Returns (u, v, U, V) with u in the standard
    basis, v = F^H u in the Fourier basis, and U, V their supports; the
    images satisfy u = F v to machine accuracy.
    """
    p = math.isqrt(n)
    if p * p != n or p < 2:
        raise ValueError("picket fence needs n to be a perfect square >= 4")
    comb = np.zeros(n, dtype=np.complex128)
    comb[::p] = 1.0
    structure = uniform_structure(n)
    u = BlockVector(comb, structure)
    v = BlockVector(unitary_dft(n).conj().T @ comb, structure)
    support = tuple(range(0, n, p))
    return u, v, support, support
