"""Lattice Gaussian field sampling.

The field X^n = Y^1 + ... + Y^n is a sum of independent Gaussian layers, so it
is one Gaussian with the summed covariance k_n = q_1 + ... + q_n.  It is drawn
in one step, with one path per kernel kind: circulant embedding with FFTs for
the stationary families, and the folded Dirichlet sine spectrum with one
type-III DST for gff-square.  Each replica draws from its own RNG substream
(field, replica, 0), derived from a single master seed, so every draw is
reproducible bit for bit.  The dense factorization `_dense_factor` is kept as
the reference that tests compare the samplers against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.fft import dstn

from .kernels import (
    KernelSpec,
    eval_level_increment,
    gff_spectral_weights,
    level_increment_radial,
    partial_kernel_radial,
)

DENSE_SITE_LIMIT = 4096
# negative circulant eigenvalue mass tolerated before the embedding is rejected
CLIP_MASS_TOL = 1e-6
DENSE_JITTER = 1e-12

# RNG substream purposes: a stable code for the spawn key and a bit generator.
# The field keeps Philox, so every chaos-side draw stays as it was; the atom
# clouds draw up to ~2e4 uniforms per replica, which SFC64 makes about three
# times faster.
PURPOSES = {
    "field": (0, np.random.Philox),
    "atoms": (1, np.random.SFC64),
    "subordinated": (2, np.random.SFC64),
}


class FieldError(ValueError):
    pass


class EmbeddingError(FieldError):
    """Circulant embedding not nonnegative definite within tolerance."""


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream factory keyed by (purpose, replica)."""

    master_seed: int

    def generator(self, replica: int, purpose: str) -> np.random.Generator:
        # manifest.json records this key and bit generator as the seed
        # scheme; any other key or generator changes every draw
        code, bit_generator = PURPOSES[purpose]
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(code, replica, 0))
        return np.random.Generator(bit_generator(ss))


@dataclass(frozen=True)
class Lattice:
    """Regular grid of cell centers over the unit box [0, 1]^d."""

    d: int
    resolution: int

    def __post_init__(self):
        if self.resolution < 2:
            raise FieldError("resolution must be >= 2")

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    @property
    def n_sites(self) -> int:
        return self.resolution**self.d

    def axis_centers(self) -> np.ndarray:
        return self.spacing * (np.arange(self.resolution) + 0.5)

    def centers(self) -> np.ndarray:
        """Site centers, shape (n_sites, d) in row-major site order."""
        ax = self.axis_centers()
        if self.d == 1:
            return ax[:, None]
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Nearest-cell flat index for points inside the unit box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor(pts / self.spacing).astype(np.int64)
        idx = np.clip(idx, 0, self.resolution - 1)
        if self.d == 1:
            return idx[:, 0]
        return idx[:, 0] * self.resolution + idx[:, 1]


@dataclass
class FieldGrid:
    """Accumulated field X^n on a lattice, with its variance profile.

    variance0 is the scalar k_n(0) for stationary families, or a per-site
    array of k_n(x, x) for the nonstationary GFF family.
    """

    lattice: Lattice
    values: np.ndarray
    variance0: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise FieldError("field values must be finite")


def _circulant_eigs(spec: KernelSpec, levels: Sequence[int], lattice: Lattice, m: int) -> np.ndarray:
    lag = np.minimum(np.arange(m), m - np.arange(m)) * lattice.spacing
    if lattice.d == 2:
        rx, ry = np.meshgrid(lag, lag, indexing="ij")
        lag = np.hypot(rx, ry)
    c = sum(level_increment_radial(spec, n, lag) for n in levels)
    return (np.fft.fft(c) if lattice.d == 1 else np.fft.fft2(c)).real


def prepare_circulant(spec: KernelSpec, levels: Sequence[int],
                      lattice: Lattice) -> tuple[np.ndarray, int]:
    """Sqrt-eigenvalue array of a nonnegative circulant embedding of the
    covariance summed over the given levels (k_n for levels 1..n).

    Tries embeddings of increasing size; small negative eigenvalue mass is
    clipped to zero, larger mass raises EmbeddingError.
    """
    if not spec.stationary:
        raise EmbeddingError("circulant embedding requires a stationary family")
    m = 2 * lattice.resolution
    last_ratio = np.inf
    for _ in range(4):
        lam = _circulant_eigs(spec, levels, lattice, m)
        neg = np.abs(lam[lam < 0]).sum()
        tot = np.abs(lam).sum()
        last_ratio = neg / tot if tot > 0 else 0.0
        if last_ratio <= CLIP_MASS_TOL:
            return np.sqrt(np.maximum(lam, 0.0)), m
        m *= 2
    raise EmbeddingError(
        f"negative eigenvalue mass {last_ratio:.3e} exceeds {CLIP_MASS_TOL} "
        f"for family {spec.family}, levels {min(levels)}..{max(levels)}"
    )


def _draw_circulant(sqrt_lam: np.ndarray, m: int, d: int, resolution: int,
                    rng: np.random.Generator) -> np.ndarray:
    shape = (m,) if d == 1 else (m, m)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if d == 1:
        e = np.fft.fft(sqrt_lam * z) / np.sqrt(m)
        return e.real[:resolution]
    e = np.fft.fft2(sqrt_lam * z) / m
    return e.real[:resolution, :resolution].reshape(-1)


def _dense_factor(spec: KernelSpec, levels: Sequence[int], lattice: Lattice) -> np.ndarray:
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


def _prepare_sine(levels: Sequence[int], lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Draw weights of the gff-square field and its exact per-site variance.

    The field is S (sqrt(W) * z) with S[i, j-1] = sin(j pi x_i) on both axes
    and W the folded spectrum; dstn type 3 computes 2 S on every mode but the
    last, so the weights carry a factor 1/2 there.
    """
    if lattice.d != 2:
        raise FieldError("gff-square is sampled on the unit square")
    n = lattice.resolution
    w = gff_spectral_weights(levels, n)
    half = np.where(np.arange(n) < n - 1, 0.5, 1.0)
    sqrt_w = np.sqrt(w) * half[:, None] * half[None, :]
    # diagonal of the sampled covariance, (S o S) W (S o S)^T
    s2 = np.sin(np.pi * np.outer(lattice.axis_centers(), np.arange(1, n + 1))) ** 2
    return sqrt_w, (s2 @ w @ s2.T).reshape(-1)


class LayerSampler:
    """Reusable field sampler over a level set: the covariance summed over the
    levels is prepared once, then each draw costs one batch of normals and one
    transform.  Stationary families use a circulant embedding and one FFT;
    gff-square uses its folded sine spectrum and one DST."""

    def __init__(self, spec: KernelSpec, lattice: Lattice, levels: Sequence[int]):
        self.spec = spec
        self.lattice = lattice
        self.levels = list(levels)
        if spec.stationary:
            self._factor = prepare_circulant(spec, self.levels, lattice)
            self.variance0 = field_variance0(spec, self.levels, lattice)
        else:
            self._factor, self.variance0 = _prepare_sine(self.levels, lattice)

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.spec.stationary:
            sqrt_lam, m = self._factor
            return _draw_circulant(sqrt_lam, m, self.lattice.d, self.lattice.resolution, rng)
        return dstn(self._factor * rng.standard_normal(self._factor.shape), type=3).reshape(-1)

    def sample_field(self, stream: RngStream, replica: int) -> FieldGrid:
        """One replica of X^n, drawn at once on the substream (field, replica, 0)."""
        return FieldGrid(
            lattice=self.lattice,
            values=self._draw(stream.generator(replica, "field")),
            variance0=self.variance0,
        )


def field_variance0(spec: KernelSpec, levels: Sequence[int],
                    lattice: Lattice | None = None) -> float | np.ndarray:
    """Sum of q_n(x, x) over the sampled levels (k_n(0) for levels 1..n).

    Stationary families give a scalar; gff-square gives a per-site array and
    therefore requires the lattice.
    """
    levels = sorted(levels)
    if spec.family == "gff-square":
        if lattice is None:
            raise FieldError("gff-square variance profile requires the lattice")
        pts = lattice.centers()
        out = np.zeros(len(pts))
        for n in levels:
            out = out + eval_level_increment(spec, n, pts, pts)
        return out
    if levels == list(range(1, levels[-1] + 1)):
        return float(partial_kernel_radial(spec, levels[-1], 0.0))
    return float(sum(level_increment_radial(spec, n, 0.0) for n in levels))
