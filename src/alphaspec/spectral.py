"""Alpha matrices of digraphs and certified spectral radius computation.

For a digraph G and 0 <= alpha < 1 the alpha matrix is

    A_alpha(G) = alpha * D(G) + (1 - alpha) * A(G)

with D the diagonal out-degree matrix and A the adjacency matrix.  alpha = 0
gives the adjacency matrix and alpha = 1/2 gives half the signless Laplacian;
alpha = 1 is rejected because it degenerates to the degree diagonal.

The spectral radius of a strongly connected digraph is computed by power
iteration on A_alpha + I (the shift makes the matrix primitive, so iteration
converges even for periodic digraphs such as directed cycles).  Every iterate
yields Collatz-Wielandt quotients r_i = (Mx)_i / x_i whose extremes enclose
the Perron root, so the returned radius carries a rigorous interval.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digraph import Digraph, NotStronglyConnected, _reach, is_strongly_connected

__all__ = [
    "AlphaMatrix",
    "QuotientMatrix",
    "SpectralResult",
    "ConvergenceError",
    "alpha_matrix",
    "collatz_wielandt_bounds",
    "spectral_radius",
    "spectral_radius_general",
    "quotient_matrix",
    "batch_cw_radius",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200_000


class ConvergenceError(RuntimeError):
    """Power iteration hit the iteration cap before certifying the radius.

    index is the position in the input stack of the worst matrix that did
    not converge (batched kernel only); witness, when a caller knows it,
    names that matrix and leads the message.
    """

    def __init__(
        self,
        lo: float,
        hi: float,
        iterations: int,
        index: int | None = None,
        witness: str | None = None,
    ):
        self.lo = lo
        self.hi = hi
        self.iterations = iterations
        self.index = index
        self.witness = witness
        message = (
            f"no certificate after {iterations} iterations; "
            f"current enclosure [{lo!r}, {hi!r}]"
        )
        super().__init__(message if witness is None else f"{witness}: {message}")

    def __reduce__(self):
        # rebuilt from its fields, so it survives a process pool
        return type(self), (self.lo, self.hi, self.iterations, self.index, self.witness)


@dataclass(frozen=True)
class AlphaMatrix:
    n: int
    alpha: float
    entries: np.ndarray


@dataclass(frozen=True)
class QuotientMatrix:
    entries: np.ndarray
    partition: tuple[tuple[int, ...], ...]

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.entries)).max())


@dataclass(frozen=True)
class SpectralResult:
    radius: float
    perron: np.ndarray
    certificate_lo: float
    certificate_hi: float
    iterations: int


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(
            f"alpha must lie in [0, 1), got {alpha} "
            "(alpha = 1 keeps only the degree diagonal and is excluded)"
        )
    return alpha


def _alpha_entries(adj: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * D + (1 - alpha) * A in float64 for an adjacency matrix or a
    (..., n, n) stack of them; D holds the out-degrees (row sums of A)."""
    alpha = _check_alpha(alpha)
    m = (1.0 - alpha) * adj
    idx = np.arange(m.shape[-1])
    m[..., idx, idx] += alpha * adj.sum(axis=-1)
    return m


def alpha_matrix(G: Digraph, alpha: float) -> AlphaMatrix:
    """alpha * D + (1 - alpha) * A as a dense float matrix."""
    alpha = _check_alpha(alpha)
    return AlphaMatrix(n=G.n, alpha=alpha, entries=_alpha_entries(G.adjacency_matrix(), alpha))


def collatz_wielandt_bounds(
    M: AlphaMatrix | np.ndarray, x: Sequence[float]
) -> tuple[float, float]:
    """(min, max) of the quotients (Mx)_i / x_i; both enclose the Perron root."""
    entries = M.entries if isinstance(M, AlphaMatrix) else np.asarray(M, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (entries.shape[0],):
        raise ValueError(f"vector shape {x.shape} does not match matrix order {entries.shape[0]}")
    if not (x > 0.0).all():
        bad = int(np.argmin(x))
        raise ValueError(f"test vector must be strictly positive; entry {bad} is {x[bad]!r}")
    r = (entries @ x) / x
    return float(r.min()), float(r.max())


def _power_enclosure(
    shifted: np.ndarray,
    tol: float,
    max_iters: int,
    start: np.ndarray | None,
) -> tuple[float, float, float, np.ndarray, int]:
    """Core loop on a primitive matrix (already +I shifted)."""
    n = shifted.shape[0]
    if start is None:
        x = np.ones(n, dtype=np.float64)
    else:
        x = np.asarray(start, dtype=np.float64).copy()
        if x.shape != (n,):
            raise ValueError(f"start vector shape {x.shape} does not match order {n}")
        if not (x > 0.0).all():
            raise ValueError("start vector must be strictly positive")
    lo = hi = 0.0
    for it in range(1, max_iters + 1):
        y = shifted @ x
        r = y / x
        lo = float(r.min())
        hi = float(r.max())
        x = y / y.sum()
        if hi - lo <= tol:
            return (hi + lo) / 2.0 - 1.0, lo - 1.0, hi - 1.0, x, it
    raise ConvergenceError(lo - 1.0, hi - 1.0, max_iters)


def spectral_radius(
    G: Digraph,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    start: np.ndarray | None = None,
) -> SpectralResult:
    """Certified Perron root of A_alpha(G) for strongly connected G.

    The result's [certificate_lo, certificate_hi] interval contains the exact
    radius and is at most tol wide; perron is the positive eigenvector
    normalised to unit 1-norm.
    """
    if not is_strongly_connected(G):
        raise NotStronglyConnected(
            "spectral radius with Perron data needs a strongly connected digraph"
        )
    m = alpha_matrix(G, alpha).entries.copy()
    idx = np.arange(G.n)
    m[idx, idx] += 1.0
    mid, lo, hi, x, iters = _power_enclosure(m, tol, max_iters, start)
    return SpectralResult(
        radius=mid,
        perron=x,
        certificate_lo=lo,
        certificate_hi=hi,
        iterations=iters,
    )


def spectral_radius_general(
    G: Digraph,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> float:
    """Spectral radius for a possibly reducible digraph (no Perron certificate).

    A_alpha is block-triangular under the condensation order, so its radius is
    the max over strongly connected components of the component's diagonal
    block (whose diagonal keeps out-degrees counted in the whole digraph).
    """
    alpha = _check_alpha(alpha)
    full = alpha_matrix(G, alpha).entries
    rows = G.out_masks
    cols = G.in_masks
    assigned = 0
    best = 0.0
    for v in range(G.n):
        if (assigned >> v) & 1:
            continue
        comp = _reach(rows, 1 << v) & _reach(cols, 1 << v)
        assigned |= comp
        verts = [i for i in range(G.n) if (comp >> i) & 1]
        block = full[np.ix_(verts, verts)].copy()
        k = len(verts)
        bidx = np.arange(k)
        block[bidx, bidx] += 1.0
        mid, _lo, _hi, _x, _it = _power_enclosure(block, tol, max_iters, None)
        if mid > best:
            best = mid
    return best


def quotient_matrix(
    M: AlphaMatrix | np.ndarray, partition: Sequence[Sequence[int]]
) -> QuotientMatrix:
    """Equitable quotient with respect to an ordered vertex partition.

    Every block-to-block row sum must be constant within 1e-12, otherwise the
    partition is rejected with the worst offending block pair reported.
    """
    entries = M.entries if isinstance(M, AlphaMatrix) else np.asarray(M, dtype=np.float64)
    n = entries.shape[0]
    blocks = [tuple(int(v) for v in blk) for blk in partition]
    flat = [v for blk in blocks for v in blk]
    if sorted(flat) != list(range(n)):
        raise ValueError("partition must cover every vertex exactly once")
    t = len(blocks)
    q = np.zeros((t, t), dtype=np.float64)
    worst = (0.0, None)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            sums = entries[np.ix_(bi, bj)].sum(axis=1)
            dev = float(sums.max() - sums.min())
            if dev > worst[0]:
                worst = (dev, (i, j))
            q[i, j] = float(sums.mean())
    if worst[0] > 1e-12:
        dev, (i, j) = worst
        raise ValueError(
            f"partition is not equitable: block pair ({i}, {j}) has row sums "
            f"varying by {dev:.3e} (> 1e-12)"
        )
    return QuotientMatrix(entries=q, partition=tuple(tuple(b) for b in blocks))


def batch_cw_radius(
    mats: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Certified radii for a stack of nonnegative irreducible matrices.

    Runs the same shifted power iteration as spectral_radius on every matrix
    of the (B, n, n) stack in lockstep; each matrix is frozen the first
    iteration its Collatz-Wielandt interval is within tol.  Returns arrays
    (radius, lo, hi, iterations).
    """
    mats = np.asarray(mats, dtype=np.float64)
    b, n, _ = mats.shape
    out_mid = np.empty(b, dtype=np.float64)
    out_lo = np.empty(b, dtype=np.float64)
    out_hi = np.empty(b, dtype=np.float64)
    out_it = np.zeros(b, dtype=np.int64)
    if b == 0:
        return out_mid, out_lo, out_hi, out_it

    cur = mats.copy()
    idx = np.arange(n)
    cur[:, idx, idx] += 1.0
    x = np.ones((b, n), dtype=np.float64)
    src = np.arange(b)
    done = np.zeros(b, dtype=bool)

    for it in range(1, max_iters + 1):
        # compact before iterating, so that lo/hi and src share one numbering
        # when the cap is hit
        ndone = int(done.sum())
        if ndone >= done.size // 2 and ndone >= 32:
            keep = ~done
            cur = cur[keep]
            x = x[keep]
            src = src[keep]
            done = np.zeros(src.size, dtype=bool)
        y = np.einsum("bij,bj->bi", cur, x)
        r = y / x
        lo = r.min(axis=1)
        hi = r.max(axis=1)
        fin = (hi - lo) <= tol
        new = fin & ~done
        if new.any():
            g = src[new]
            out_mid[g] = (hi[new] + lo[new]) / 2.0 - 1.0
            out_lo[g] = lo[new] - 1.0
            out_hi[g] = hi[new] - 1.0
            out_it[g] = it
            done |= fin
            if done.all():
                return out_mid, out_lo, out_hi, out_it
        x = y / y.sum(axis=1, keepdims=True)
    worst = int(np.argmax(hi - lo))
    raise ConvergenceError(
        float(lo[worst]) - 1.0, float(hi[worst]) - 1.0, max_iters, index=int(src[worst])
    )
