"""Lattice Gaussian field sampling.

The field X^n = Y^1 + ... + Y^n is a sum of independent Gaussian layers, so it
is one Gaussian with the summed covariance k_n = q_1 + ... + q_n.  It is drawn
in one step, with one path per kernel kind: circulant embedding with FFTs for
the stationary families, and the folded Dirichlet sine spectrum with one
type-III DST for gff-square.  Replicas come in blocks of FIELD_BLOCK, and
every RNG substream is keyed by block: block b draws its replicas in order
from one substream (purpose, b, 0) per purpose, derived from a single master
seed, the field with one batched transform per chunk of them.  A circulant
FFT gives two replicas, its real and its imaginary part.  Replica r's field
depends only on (seed, r), so every draw is reproducible bit for bit.
`LayerSampler.field_blocks` hands the replica loop each chunk whole, a
FieldGrid of (replicas, n_sites) values, and draws only the rows a partial
last block needs; `sample_field` draws a replica's block through its row.
Both take the rows from one stateless block generator, so the sampler keeps
no draw between calls.  A field is a flat array over the N^d cells in
row-major order: site i is the cell np.unravel_index(i, lattice.shape), and
every reduction over the cell grid reshapes on Lattice.shape.  The dense
factorization that tests compare the circulant embedding against lives with
the other reference implementations in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .kernels import (
    KernelSpec,
    # no field code calls it; the benchmark tracer (perfbench/tracer.py)
    # wraps this name after import
    eval_level_increment,
    gff_spectral_weights,
    level_increment_radial,
    partial_kernel_radial,
)

# negative circulant eigenvalue mass tolerated before the embedding is rejected
CLIP_MASS_TOL = 1e-6

# replicas per field substream; a multiple of 2, since a circulant draw
# gives two replicas
FIELD_BLOCK = 64
# byte budget of one batched transform's transient arrays
CHUNK_BYTES = 32 * 2**20

# RNG substream purposes: a stable code for the spawn key and a bit generator.
# The atom clouds draw up to ~2e4 uniforms per replica, which SFC64 makes about
# three times faster than Philox.  "positions" places the direct cloud's atoms
# inside their cells, for the outputs that show coordinates.  Each purpose has
# one substream per block of FIELD_BLOCK replicas, read in replica order.
PURPOSES = {
    "field": (0, np.random.Philox),
    "atoms": (1, np.random.SFC64),
    "subordinated": (2, np.random.SFC64),
    "positions": (3, np.random.SFC64),
}


class FieldError(ValueError):
    pass


class EmbeddingError(FieldError):
    """Circulant embedding not nonnegative definite within tolerance."""


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream factory: one substream (purpose, block, 0) per
    purpose and block of FIELD_BLOCK replicas, block = replica // FIELD_BLOCK."""

    master_seed: int

    def generator(self, purpose: str, replica: int) -> np.random.Generator:
        """A fresh generator of purpose's substream for the block that starts
        at replica, a multiple of FIELD_BLOCK.  The block's replicas draw from
        it in order, so one generator serves the whole block.  The block is
        named by its first replica: perfbench's tracer reads this parameter by
        name as the span's replica."""
        # manifest.json records this key and bit generator as the seed
        # scheme; any other key or generator changes every draw
        code, bit_generator = PURPOSES[purpose]
        # a per-replica call would hand every replica of a block the same draws
        if replica % FIELD_BLOCK:
            raise ValueError(f"replica {replica} does not start a block of {FIELD_BLOCK}")
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(code, replica // FIELD_BLOCK, 0))
        return np.random.Generator(bit_generator(ss))


@dataclass(frozen=True)
class Lattice:
    """Regular grid of cell centers over the unit box [0, 1]^d.

    Sites are numbered in row-major order over the cell grid: site i is the
    cell np.unravel_index(i, shape), so masses.reshape(shape) is the grid.
    """

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

    @property
    def shape(self) -> tuple[int, ...]:
        """Cell-grid shape (resolution,) * d of the row-major site order."""
        return (self.resolution,) * self.d

    @property
    def volume(self) -> float:
        """Volume of the unit box the cells cover."""
        return 1.0

    def axis_centers(self) -> np.ndarray:
        return self.spacing * (np.arange(self.resolution) + 0.5)

    def centers(self) -> np.ndarray:
        """Site centers, shape (n_sites, d) in row-major site order."""
        grids = np.meshgrid(*[self.axis_centers()] * self.d, indexing="ij")
        return np.stack(grids, axis=-1).reshape(self.n_sites, self.d)


@dataclass
class FieldGrid:
    """Accumulated field X^n on a lattice, with its variance profile.

    values holds one replica, shape (n_sites,), or a block of replicas, shape
    (replicas, n_sites).  variance0 is the scalar k_n(0) for stationary
    families, or a per-site array of k_n(x, x) for the nonstationary GFF
    family.
    """

    lattice: Lattice
    values: np.ndarray
    variance0: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise FieldError("field values must be finite")


def _summed_radial(spec: KernelSpec, levels: Sequence[int], r):
    """Covariance summed over levels, in their order, at distances r.

    Levels 1..n take one partial-kernel call, bit-equal to the running sum
    of the increments: for the exact families consecutive partials k_{n-1}
    and k_n lie within a factor 2 of each other, so each increment q_n = k_n -
    k_{n-1} is an exact subtraction, and star's partial kernel is that
    running sum.  Any other level set sums its increments.
    """
    levels = list(levels)
    if levels == list(range(1, len(levels) + 1)):
        return partial_kernel_radial(spec, len(levels), r)
    return sum(level_increment_radial(spec, n, r) for n in levels)


def _circulant_eigs(spec: KernelSpec, levels: Sequence[int], lattice: Lattice, m: int) -> np.ndarray:
    lag = np.minimum(np.arange(m), m - np.arange(m)) * lattice.spacing
    r = np.hypot.reduce(np.meshgrid(*[lag] * lattice.d, indexing="ij"))
    return np.fft.fftn(_summed_radial(spec, levels, r)).real


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


def _circulant_fields(sqrt_lam: np.ndarray, resolution: int, z: np.ndarray) -> np.ndarray:
    """Fields of a batch of circulant draws, shape (2 * rows, resolution**d).

    z holds the unit normals, shape (rows, 2, m[, m]).  Row k forms the complex
    vector z[k, 0] + i z[k, 1]; the real part of its transform is replica 2k
    and the imaginary part replica 2k + 1, two independent fields with the
    embedded covariance (Dietrich & Newsam 1997; Wood & Chan 1994).
    """
    d, m = sqrt_lam.ndim, sqrt_lam.shape[0]
    w = np.empty(z[:, 0].shape, dtype=complex)
    w.real = z[:, 0]
    w.imag = z[:, 1]
    w *= sqrt_lam
    # fft and fft2 rather than fftn: the benchmark tracer counts calls to these
    # two numpy.fft attributes as field.fft_points, and fftn bypasses them
    transform = np.fft.fft if d == 1 else np.fft.fft2
    e = transform(w)[(slice(None),) + (slice(resolution),) * d] / np.sqrt(float(m**d))
    out = np.empty((2 * len(z), resolution**d))
    out[0::2] = e.real.reshape(len(z), -1)
    out[1::2] = e.imag.reshape(len(z), -1)
    return out


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
    levels is prepared once, then each chunk of replicas costs one batch of
    normals and one batched transform.  Stationary families use a circulant
    embedding and one FFT per two replicas; gff-square uses its folded sine
    spectrum and one DST per replica.

    A row is one draw of unit normals: two replicas on the circulant path, one
    on the sine path.  A block's rows are drawn in order from its substream on
    every call; the sampler keeps no draw between calls."""

    def __init__(self, spec: KernelSpec, lattice: Lattice, levels: Sequence[int]):
        self.spec = spec
        self.lattice = lattice
        self.levels = list(levels)
        if spec.stationary:
            self._factor = prepare_circulant(spec, self.levels, lattice)
            self.variance0 = field_variance0(spec, self.levels)
            m = self._factor[1]
            self._row_shape = (2,) + (m,) * lattice.d
            self._per_row = 2
            # normals, the weighted complex input and the FFT output
            self._row_bytes = 48 * m**lattice.d
        else:
            self._factor, self.variance0 = _prepare_sine(self.levels, lattice)
            self._row_shape = self._factor.shape
            self._per_row = 1
            # normals, the weighted input and the DST output
            self._row_bytes = 24 * self._factor.size

    def _fields(self, z: np.ndarray) -> np.ndarray:
        """Fields of a batch of unit-normal rows z, one per replica in order."""
        if self.spec.stationary:
            return _circulant_fields(self._factor[0], self.lattice.resolution, z)
        from scipy.fft import dstn  # imported here: see the package docstring

        return dstn(self._factor * z, type=3, axes=(1, 2)).reshape(len(z), -1)

    def _block(self, stream: RngStream, base: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (start, fields) through replica base + stop - 1 of the block
        that starts at replica base: its rows drawn in order from its
        substream, one transform per chunk of at most CHUNK_BYTES, and fields
        the chunk's replicas start, start + 1, ... as (rows, n_sites) values."""
        rng = stream.generator("field", base)
        rows = -(-stop // self._per_row)
        step = max(1, CHUNK_BYTES // self._row_bytes)
        for row in range(0, rows, step):
            fields = self._fields(rng.standard_normal((min(step, rows - row),) + self._row_shape))
            start = row * self._per_row
            yield base + start, fields[:stop - start]

    def sample_field(self, stream: RngStream, replica: int) -> FieldGrid:
        """One replica of X^n, from the substream (field, replica // FIELD_BLOCK, 0):
        its block is drawn through its row, which is a view of the last chunk."""
        i = replica % FIELD_BLOCK
        for _, fields in self._block(stream, replica - i, i + 1):
            pass
        return FieldGrid(lattice=self.lattice, values=fields[-1], variance0=self.variance0)

    def field_blocks(self, stream: RngStream, replicas: int) -> Iterator[tuple[int, FieldGrid]]:
        """Yield (start, fields) over replicas 0..replicas - 1 in order, one
        chunk at a time: fields holds replicas start, start + 1, ... as
        (rows, n_sites) values, a view of the chunk.  A partial last block
        draws only the rows its replicas need."""
        for base in range(0, replicas, FIELD_BLOCK):
            for start, fields in self._block(stream, base, min(FIELD_BLOCK, replicas - base)):
                yield start, FieldGrid(lattice=self.lattice, values=fields,
                                       variance0=self.variance0)


def field_variance0(spec: KernelSpec, levels: Sequence[int]) -> float:
    """Sum of q_n(x, x) over the sampled levels (k_n(0) for levels 1..n) of a
    stationary family.  gff-square's per-site variance comes from _prepare_sine."""
    return float(_summed_radial(spec, sorted(levels), 0.0))
