"""Reference implementations that only the tests use.

No pipeline runs these.  They are the independent oracles the samplers and
the acceptance criteria are checked against: the dense factor of a level
covariance (eigendecomposition of the Gram matrix on every site pair), the
gff-square per-site variance summed pointwise from the image-sum kernel
(the sampler reads it off its sine spectrum instead), the Gamma-function
constant of the dual moment relation, the fractional
moment identity by quadrature, the exponent of a truncated atom cloud's
conditional Laplace transform, Kanter's formula in its general form for
every alpha (the sampler takes a shorter path at alpha = 1/2), and the
positive-stable distribution function by quadrature.  replica_fields is
the replica-by-replica view of a sampler's field blocks that the
per-replica reference loops read, and replica_generators the matching view
of a purpose's block substreams.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn, gammaincc, gammaln

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


def gff_variance0(levels: Sequence[int], lattice: Lattice) -> np.ndarray:
    """gff-square's variance at each cell center, summed over the given
    levels: q_n(x, x) of the image-sum kernel, one site at a time."""
    spec = KernelSpec(family="gff-square", T=1.0, d=2)
    pts = lattice.centers()
    out = np.zeros(len(pts))
    for n in sorted(levels):
        out = out + eval_level_increment(spec, n, pts, pts)
    return out


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


def truncated_cloud_exponent(v, alpha: float, z_min: float) -> np.ndarray:
    """psi(v) = int_{z_min}^inf (1 - e^(-v z)) z^(-1-alpha) dz, so a Poisson
    cloud of intensity c dz / z^(1+alpha) on z >= z_min has
    E exp(-v sum z) = exp(-c psi(v)).  With x = v z_min and the regularised
    upper incomplete gamma Q, integrating by parts gives
    psi(v) = v^alpha [(1 - e^(-x)) x^(-alpha) / alpha + Gamma(1-alpha) Q(1-alpha, x) / alpha]."""
    v = np.asarray(v, dtype=float)
    x = v * z_min
    return v**alpha * (-np.expm1(-x) * x ** -alpha / alpha
                       + gamma_fn(1.0 - alpha) * gammaincc(1.0 - alpha, x) / alpha)


# Kanter's formula floors an exponential draw at the smallest normal double
# and clips its log-result to the positive finite doubles
_TINY = np.finfo(float).tiny
_LOG_BOUNDS = np.log([_TINY, np.finfo(float).max])


def kanter(alpha: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Kanter's formula with its three sines at every alpha, elementwise on
    rng.random() uniforms u and standard exponentials e of one shape: the
    reference gmclab.atomic.sample_positive_stable must match bit for bit.

    Both arrays are overwritten and the draws come back in u's buffer.
    """
    np.multiply(np.pi, np.subtract(1.0, u, out=u), out=u)      # U in (0, pi)
    np.log(np.maximum(e, _TINY, out=e), out=e)
    sin_au = np.sin(alpha * u)
    # ((1-a)/a) (log(sin((1-a)U) / sin(aU)) - log E)
    tail = np.multiply(1.0 - alpha, u)
    np.sin(tail, out=tail)
    np.divide(tail, sin_au, out=tail)
    np.log(tail, out=tail)
    np.subtract(tail, e, out=tail)
    np.multiply((1.0 - alpha) / alpha, tail, out=tail)
    # + log(sin(aU) / sin U) / a
    np.sin(u, out=u)
    np.divide(sin_au, u, out=u)
    np.log(u, out=u)
    np.divide(u, alpha, out=u)
    np.add(u, tail, out=u)
    return np.exp(np.clip(u, *_LOG_BOUNDS, out=u), out=u)


STABLE_CDF_NODES = 200
# points of x per quadrature pass: a (4096, 200) table is 6.6 MB
_CDF_CHUNK = 4096


def stable_cdf(alpha: float, x) -> np.ndarray:
    """P(S <= x) for S standard positive alpha-stable, E exp(-u S) = exp(-u^alpha).

    Kanter's representation S = (A(U) / E)^((1-a)/a), with U uniform on
    (0, pi), E ~ Exp(1) and A(t) = (sin(a t)^a sin((1-a) t)^(1-a) / sin t)^(1/(1-a)),
    gives P(S <= x) = (1/pi) int_0^pi exp(-x^(-a/(1-a)) A(t)) dt, here by a
    STABLE_CDF_NODES-point Gauss-Legendre rule.  A is finite at t = 0 and
    grows without bound at t = pi, where the integrand falls to 0 steeply
    once x is large; that end sets the error.
    """
    t, w = np.polynomial.legendre.leggauss(STABLE_CDF_NODES)
    theta = np.pi / 2 * (t + 1.0)
    a = alpha
    kanter_a = np.exp((a * np.log(np.sin(a * theta))
                       + (1.0 - a) * np.log(np.sin((1.0 - a) * theta))
                       - np.log(np.sin(theta))) / (1.0 - a))
    x = np.asarray(x, dtype=float)
    scale = x.ravel() ** (-a / (1.0 - a))
    out = np.empty(scale.shape)
    for lo in range(0, scale.size, _CDF_CHUNK):
        s = scale[lo:lo + _CDF_CHUNK, None]
        out[lo:lo + _CDF_CHUNK] = np.exp(-s * kanter_a) @ w / 2.0
    return out.reshape(x.shape)
