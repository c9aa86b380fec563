"""Reference implementations that only the tests use.

No pipeline runs these.  They are the independent oracles the samplers and
the acceptance criteria are checked against: the dense factor of a level
covariance (eigendecomposition of the Gram matrix on every site pair), the
Gamma-function constant of the dual moment relation, and the fractional
moment identity by quadrature.  replica_fields is the replica-by-replica
view of a sampler's field blocks that the per-replica reference loops read,
and replica_generators the matching view of a purpose's block substreams.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn, gammaln

from gmclab.atomic import AtomicError
from gmclab.field import FIELD_BLOCK, FieldError, FieldGrid, Lattice, LayerSampler, RngStream
from gmclab.kernels import KernelSpec, eval_level_increment, level_increment_radial

DENSE_SITE_LIMIT = 4096
DENSE_JITTER = 1e-12


def dense_factor(spec: KernelSpec, levels: Sequence[int], lattice: Lattice) -> np.ndarray:
    """Factor F with F F^T the covariance summed over the given levels."""
    if lattice.n_sites > DENSE_SITE_LIMIT:
        raise FieldError(
            f"{lattice.n_sites} sites exceed the dense backend limit {DENSE_SITE_LIMIT}"
        )
    pts = lattice.centers()
    if spec.family == "gff-square":
        # row-chunked: the image-sum expansion is memory hungry on full pair grids
        q = np.empty((len(pts), len(pts)))
        step = max(1, 2**18 // max(len(pts), 1))
        for i in range(0, len(pts), step):
            q[i:i + step] = sum(eval_level_increment(spec, n, pts[i:i + step, None, :],
                                                     pts[None, :, :]) for n in levels)
    else:
        r = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        q = sum(level_increment_radial(spec, n, r) for n in levels)
    scale = max(float(np.max(np.diag(q))), 1.0)
    q = q + DENSE_JITTER * scale * np.eye(len(q))
    w, v = np.linalg.eigh(q)
    neg = np.abs(w[w < 0]).sum()
    if neg > 1e-8 * np.abs(w).sum():
        raise FieldError(f"level covariance far from positive semidefinite (mass {neg:.3e})")
    return v * np.sqrt(np.maximum(w, 0.0))


def replica_fields(sampler: LayerSampler, stream: RngStream, replicas: int) -> Iterator[FieldGrid]:
    """Replicas 0..replicas - 1 of the sampler's field in order, one FieldGrid
    each, read off its field blocks."""
    for _, block in sampler.field_blocks(stream, replicas):
        for values in block.values:
            yield FieldGrid(lattice=block.lattice, values=values, variance0=block.variance0)


def replica_generators(stream: RngStream, purpose: str,
                       replicas: int) -> Iterator[np.random.Generator]:
    """The generator replicas 0..replicas - 1 draw purpose's values from, in
    order: each block's one substream, opened at its first replica, so a
    loop that draws replica r's values at step r reads the block in order."""
    for r in range(replicas):
        if r % FIELD_BLOCK == 0:
            rng = stream.generator(purpose, r)
        yield rng


def moment_relation_constant(beta: float, alpha: float) -> float:
    """Gamma-function factor linking E[Mbar(A)^beta] to E[M(A)^(beta/alpha)]:
    Gamma(1-b/a) Gamma(1-a)^(b/a) / (Gamma(1-b) a^(b/a)); finite iff beta < alpha."""
    if beta < 0:
        raise AtomicError("beta must be nonnegative")
    if beta >= alpha:
        raise AtomicError("moment constant diverges for beta >= alpha")
    if beta == 0:
        return 1.0
    r = beta / alpha
    log_c = (
        gammaln(1.0 - r)
        + r * gammaln(1.0 - alpha)
        - gammaln(1.0 - beta)
        - r * np.log(alpha)
    )
    return float(np.exp(log_c))


def fractional_moment_identity_check(x: float, beta: float) -> float:
    """Residual of x^b = (b/Gamma(1-b)) int_0^inf (1-e^(-xz)) dz/z^(1+b)."""
    if x < 0:
        raise AtomicError("x must be nonnegative")
    if not (0.0 < beta < 1.0):
        raise AtomicError("beta must lie strictly in (0, 1)")
    if x == 0.0:
        return 0.0

    def integrand(z):
        return -np.expm1(-x * z) / z ** (1.0 + beta)

    # split at the 1/x knee so quad resolves both regimes cleanly
    v1, e1 = integrate.quad(integrand, 0.0, 1.0 / x, epsabs=1e-13, epsrel=1e-12, limit=400)
    v2, e2 = integrate.quad(integrand, 1.0 / x, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    val, err = v1 + v2, e1 + e2
    if not np.isfinite(val):
        raise AtomicError("quadrature failure in fractional moment identity")
    rhs = beta / gamma_fn(1.0 - beta) * val
    return abs(x**beta - rhs)
