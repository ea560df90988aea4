"""Alpha matrices of digraphs and certified spectral radius computation.

For a digraph G and 0 <= alpha < 1 the alpha matrix is

    A_alpha(G) = alpha * D(G) + (1 - alpha) * A(G)

with D the diagonal out-degree matrix and A the adjacency matrix.  alpha = 0
gives the adjacency matrix and alpha = 1/2 gives half the signless Laplacian;
alpha = 1 is rejected because it degenerates to the degree diagonal.

The spectral radius of a strongly connected digraph is computed by shifted
inverse iteration: each step solves (mu*I - M) z = x with mu just above a
certified upper bound, so after a few steps z is close to the Perron vector
whatever the period of the digraph.  Every positive iterate x yields
Collatz-Wielandt quotients r_i = (Mx)_i / x_i whose extremes enclose the
Perron root.  They are computed in float and widened outward by a bound on
every rounding involved (see _widening), so the returned interval holds the
exact root of alpha*D + (1-alpha)*A for the double-valued alpha.

The kernel, _certify, runs a stack of matrices in solve blocks, and each
block takes one of two loops, each with one solver.  A block of at least
_ELIMINATION_MIN matrices is held batch-last, as one (n, n, k) array, so its
numpy operations run along the long axis k, and solves by Gaussian
elimination without pivoting, vectorised over k (_inverse_step).  Skipping
pivoting is safe because mu*I - M is a nonsingular M-matrix, whose
elimination needs no row exchanges and is stable.  A smaller block
certifies matrix by matrix on 2-D arrays (_certify_one), and
spectral_radius calls that loop directly, with no stack: its second
iterate is LAPACK's eigenvector for the eigenvalue of largest real part
(np.linalg.eig), and each later step one np.linalg.solve on the (n, n)
matrix, with Python floats for the bounds.  So a matrix certifies bit for
bit alike alone and in any block below _ELIMINATION_MIN, because the same
code runs it.  No solver or eigensolver can touch the certificate: it is
evaluated afresh (_enclosure) on whatever positive vector the step returns.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .digraph import Digraph, NotStronglyConnected

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
_MAX_ITERS = 200_000  # checks per matrix; no measured matrix has needed more than 21
_SOLVE_BLOCK = 1 << 18  # float64 matrix elements (2 MB) per batched solve
_X_MIN = 2.0 ** -500  # least iterate entry; keeps each product M_ij x_j from underflow
_STALL_CHECKS = 8  # checks after which a width that has not narrowed ends the kernel
# Least block that _certify solves by elimination; a smaller one certifies
# matrix by matrix.  Timed on whole certifications of random strong stacks at
# alpha 0.5 (2-core x86-64, numpy 2.4.6 with OpenBLAS 0.3.31), one block of k
# costs less than k one-matrix runs from k = 10-16 for n = 3..5 and from
# 16-24 for n = 6..12 (BENCH_eig_start.json).
_ELIMINATION_MIN = 16


class ConvergenceError(RuntimeError):
    """The kernel could not certify a radius within tol.

    Either the iteration cap was hit, or tol is below floor, the narrowest
    width that the outward-rounded certificate of this matrix can reach; then
    the kernel stops at once.  Or the width, above tol and floor, stopped
    narrowing in the rounding noise of the quotients.  index is the position
    in the input stack of the matrix at fault (for the cap, the widest
    uncertified one of its solve block); witness, when a caller knows it,
    names that matrix and leads the message.
    """

    def __init__(
        self,
        lo: float,
        hi: float,
        iterations: int,
        index: int | None = None,
        witness: str | None = None,
        floor: float | None = None,
        tol: float | None = None,
    ):
        self.lo = lo
        self.hi = hi
        self.iterations = iterations
        self.index = index
        self.witness = witness
        self.floor = floor
        self.tol = tol
        if floor is None:
            message = (
                f"no certificate after {iterations} iterations; "
                f"current enclosure [{lo!r}, {hi!r}]"
            )
        elif tol < floor:
            message = (
                f"tol {tol!r} is below the rounding floor {floor!r} of the "
                f"certificate; enclosure [{lo!r}, {hi!r}] after {iterations} iterations"
            )
        else:
            message = (
                f"width {hi - lo!r} stopped narrowing above tol {tol!r} (rounding floor "
                f"{floor!r}); enclosure [{lo!r}, {hi!r}] after {iterations} iterations"
            )
        super().__init__(message if witness is None else f"{witness}: {message}")

    def __reduce__(self):
        # rebuilt from its fields, so pickle and copy keep all of them
        return type(self), (
            self.lo, self.hi, self.iterations, self.index, self.witness, self.floor, self.tol
        )


@contextlib.contextmanager
def _witnessed(witness, alpha: float):
    """Re-raise a ConvergenceError of the block led by "<witness> at alpha <alpha>";
    witness is a string, or a function of the failing matrix's index in its stack."""
    try:
        yield
    except ConvergenceError as err:
        name = witness(err.index) if callable(witness) else witness
        raise ConvergenceError(
            err.lo, err.hi, err.iterations, err.index,
            witness=f"{name} at alpha {alpha}", floor=err.floor, tol=err.tol,
        ) from err


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
    (..., n, n) stack of them; D holds the out-degrees (row sums of A).
    alpha is one that _check_alpha has passed."""
    m = np.multiply(1.0 - alpha, adj, order="C")
    n = m.shape[-1]
    # the diagonal, as a strided view of the C-contiguous result
    m.reshape(*m.shape[:-2], n * n)[..., :: n + 1] += alpha * adj.sum(axis=-1)
    return m


def alpha_matrix(G: Digraph, alpha: float) -> AlphaMatrix:
    """alpha * D + (1 - alpha) * A as a dense float matrix."""
    alpha = _check_alpha(alpha)
    return AlphaMatrix(n=G.n, alpha=alpha, entries=_alpha_entries(G.adjacency, alpha))


def _square_entries(M: AlphaMatrix | np.ndarray) -> np.ndarray:
    """The float entries of M; a shape other than (n, n) raises ValueError."""
    entries = M.entries if isinstance(M, AlphaMatrix) else np.asarray(M, dtype=np.float64)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square 2-D matrix, got shape {entries.shape}")
    return entries


def collatz_wielandt_bounds(
    M: AlphaMatrix | np.ndarray, x: Sequence[float]
) -> tuple[float, float]:
    """(min, max) of the quotients (Mx)_i / x_i, computed in float.

    In exact arithmetic they enclose the Perron root; these are the plain
    rounded quotients, not widened outward (see _widening), so they are not
    a certificate.  spectral_radius returns a certified enclosure.  A matrix
    that is not square 2-D, a matrix entry that is negative or not finite, or
    a vector entry that is not positive and finite, raises ValueError naming
    it."""
    entries = _square_entries(M)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (entries.shape[0],):
        raise ValueError(f"vector shape {x.shape} does not match matrix order {entries.shape[0]}")
    ok = (x > 0.0) & (x < np.inf)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ValueError(
            f"test vector must be strictly positive and finite; entry {bad} is {x[bad]!r}"
        )
    ok = (entries >= 0.0) & (entries < np.inf)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ValueError(
            f"matrix entry ({i}, {j}) is {float(entries[i, j])!r}; "
            "the quotients bound the Perron root of nonnegative finite matrices only"
        )
    r = (entries @ x) / x
    return float(r.min()), float(r.max())


@functools.lru_cache(maxsize=64)
def _widening(n: int) -> tuple[float, float]:
    """Floats f_lo <= (1+u)^-(n+2) and f_hi >= (1-u)^-(n+2), u = 2^-53.

    Rounding bound of the certificate for order n.  Let M be the exact
    Fraction(alpha)*D + (1-Fraction(alpha))*A, M' the float matrix built from
    it, x > 0 a float vector, y = fl(M'x) and q_i = fl(y_i / x_i).
    - Built entries: every nonzero entry of M' is one rounded operation on an
      exact value (1 - alpha, or alpha times an integer degree), so
      M'_ij = M_ij (1 + d_ij) with |d_ij| <= u and (Mx)_i / (M'x)_i lies in
      [1/(1+u), 1/(1-u)].  A matrix given in float is its own M, and the
      bound only widens more than needed.
    - Dot product (gamma_n): each of the n nonnegative terms passes through
      at most n roundings in any summation order, so y_i / (M'x)_i lies in
      [(1-u)^n, (1+u)^n].
    - Division: q_i / (y_i / x_i) lies in [1-u, 1+u].
    So r_i = (Mx)_i / x_i lies in [q_i (1+u)^-(n+2), q_i (1-u)^-(n+2)], and
    min r_i <= rho <= max r_i.  The two factors are rounded outward here in
    exact arithmetic; multiplying q_i by one of them rounds to nearest once
    more, which one np.nextafter step outward covers.  The bound assumes no
    underflow: iterates stay above _X_MIN, so a product M'_ij x_j underflows
    only if M'_ij < 2^-522 (alpha below about 1e-157).
    """
    u = Fraction(1, 1 << 53)
    exact_lo = 1 / (1 + u) ** (n + 2)
    exact_hi = 1 / (1 - u) ** (n + 2)
    f_lo, f_hi = float(exact_lo), float(exact_hi)
    if f_lo > exact_lo:
        f_lo = float(np.nextafter(f_lo, 0.0))
    if f_hi < exact_hi:
        f_hi = float(np.nextafter(f_hi, 2.0))
    return f_lo, f_hi


def _enclosure(q_min, q_max, f_lo: float, f_hi: float, nextafter=np.nextafter):
    """The certified [lo, hi] from the least and greatest float quotients:
    each times its _widening factor, then one step outward.  lo steps toward
    0, downward for the quotients of a nonnegative matrix on a positive
    vector, so a quotient 0 (n = 1) leaves lo at 0 <= rho, not below it.
    Takes arrays, or floats with nextafter=math.nextafter."""
    return nextafter(q_min * f_lo, 0.0), nextafter(q_max * f_hi, math.inf)


def _shift(lo, hi, maximum=np.maximum):
    """mu of the inverse step (_inverse_step), just above hi; takes arrays,
    or floats with maximum=max."""
    return hi + maximum(1e-6 * (hi - lo), 1e-15 * hi)


@contextlib.contextmanager
def _kernel(n: int, tol: float):
    """What both kernel loops share for order n: a tol that is not > 0 (NaN
    included) raises ValueError, and otherwise (f_lo, f_hi, floor_factor)
    are yielded under an errstate in which a failed solve may divide by
    zero or overflow, since the step replaces its iterate.

    At best all quotients agree, q_max*f_hi >= rho and rho >= lo, so no
    width can fall below the floor lo*floor_factor, floor_factor =
    (f_hi - f_lo)/f_hi (the nextafter steps only add).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    f_lo, f_hi = _widening(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yield f_lo, f_hi, (f_hi - f_lo) / f_hi


def _inverse_step(
    m: np.ndarray, x: np.ndarray, mx: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Next iterate of every matrix of the batch-last (n, n, k) stack m,
    as an (n, k) block of unit-sum columns; mx is M x, kept from the check
    of x.

    z solves (mu*I - M) z = x with mu just above the certified hi >= rho, so
    mu*I - M is a nonsingular M-matrix with a positive inverse and z > 0 in
    exact arithmetic.  The offset max(1e-6*(hi - lo), 1e-15*hi) keeps every
    tested case within a few solves, up to alpha = 0.9999.

    The solve is Gaussian elimination without pivoting, each step one numpy
    operation over all k columns, in place on one (n, n, k) copy.  That is
    safe here: every leading principal submatrix of a nonsingular M-matrix
    is one too, so every pivot is positive in exact arithmetic, and
    elimination without row exchanges is stable on M-matrices (Funderlic,
    Neumann and Plemmons, Numer. Math. 40, 1982).  Only blocks of at least
    _ELIMINATION_MIN matrices come here; _certify_one takes a smaller
    block's steps matrix by matrix.

    An iterate that comes out not finite or not positive is replaced by one
    power step on M + I, x + mx, which keeps it positive.  A zero or
    non-finite pivot spoils only its own column, and costs an iteration,
    never the certificate: _certify takes it afresh on whatever vector
    results, so no solver's rounding can reach it.
    """
    n, _, k = m.shape
    a = np.negative(m)
    # the diagonal, as a view of the contiguous copy
    a.reshape(n * n, k)[:: n + 1] += _shift(lo, hi)
    z = x.copy()
    for p in range(n - 1):
        f = a[p + 1 :, p] / a[p, p]
        a[p + 1 :, p + 1 :] -= f[:, None] * a[p, p + 1 :]
        z[p + 1 :] -= f * z[p]
    for p in range(n - 1, -1, -1):
        z[p] -= np.einsum("jk,jk->k", a[p, p + 1 :], z[p + 1 :])
        z[p] /= a[p, p]
    z /= z.sum(axis=0)
    # min and max propagate NaN, so two reductions test every entry
    if z.min() > _X_MIN and z.max() < np.inf:
        return z
    bad = ~((z > _X_MIN) & np.isfinite(z)).all(axis=0)
    p = x[:, bad] + mx[:, bad]
    z[:, bad] = p / p.sum(axis=0)
    return z


def _solve_block(n: int) -> int:
    """Matrices of order n per block of _certify: at most _SOLVE_BLOCK
    elements (read at call time), and at least one matrix."""
    return max(1, _SOLVE_BLOCK // max(1, n * n))


def _certify(
    mats: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The certified-radius kernel: (radius, lo, hi, perron, iterations) for
    every matrix of a (B, n, n) stack of nonnegative irreducible matrices.

    Iteration k checks the widened Collatz-Wielandt certificate of the
    current vector: the first check takes the all-equal vector, each later
    one follows one inverse iteration step (in the one-matrix loop, the
    second follows np.linalg.eig instead).  A matrix is done at the first
    check whose enclosure is at most tol wide; perron is that certifying
    vector, unit-sum.  Every _STALL_CHECKS checks, a matrix whose width has
    not narrowed since the last such check ends the kernel.  The stack runs
    in blocks of _solve_block(n) matrices, each to completion, and a
    matrix still uncertified after _MAX_ITERS checks (read at call time)
    ends it.  A tol that is not > 0 (NaN included) raises ValueError
    (_kernel).

    A block of at least _ELIMINATION_MIN matrices is held batch-last: its
    matrices as one (n, n, k) array and its iterates as one (n, k) array, so
    the quotients, their min and max, the normalisation, the positivity test
    and the removal of certified matrices all run along the long axis k, and
    _inverse_step solves it.  Only the outputs are batch-first.  A smaller
    block goes to _certify_one one matrix at a time, as spectral_radius's
    one matrix does.
    """
    b, n, _ = mats.shape
    out_lo = np.empty(b, dtype=np.float64)
    out_hi = np.empty(b, dtype=np.float64)
    out_x = np.empty((b, n), dtype=np.float64)
    out_it = np.zeros(b, dtype=np.int64)
    step = _solve_block(n)
    with _kernel(n, tol) as (f_lo, f_hi, floor_factor):
        for s in range(0, b, step):
            e = min(s + step, b)
            if e - s < _ELIMINATION_MIN:
                for i in range(s, e):
                    out_lo[i], out_hi[i], out_x[i], out_it[i] = _certify_one(
                        mats[i], tol, i, f_lo, f_hi, floor_factor
                    )
                continue
            act = np.arange(s, e)
            m = np.ascontiguousarray(mats[s:e].transpose(1, 2, 0))
            x = np.full((n, e - s), 1.0 / n)
            last = np.full(e - s, np.inf)  # widths at the last stall test
            for it in range(1, _MAX_ITERS + 1):
                mx = np.einsum("ijk,jk->ik", m, x)
                q = mx / x
                lo, hi = _enclosure(q.min(axis=0), q.max(axis=0), f_lo, f_hi)
                fin = hi - lo <= tol
                if fin.any():
                    g = act[fin]
                    out_lo[g], out_hi[g], out_x[g], out_it[g] = lo[fin], hi[fin], x[:, fin].T, it
                    keep = ~fin
                    if not keep.any():
                        break
                    act, lo, hi, last = (a[keep] for a in (act, lo, hi, last))
                    # compress, unlike m[:, :, keep], keeps k the contiguous axis
                    m = np.compress(keep, m, axis=2)
                    x, mx = (np.compress(keep, a, axis=1) for a in (x, mx))
                stuck = lo * floor_factor > tol
                if it % _STALL_CHECKS == 0:
                    stuck |= hi - lo >= last
                    last = hi - lo
                if stuck.any():
                    i = int(np.argmax(stuck))
                    raise ConvergenceError(
                        float(lo[i]), float(hi[i]), it, index=int(act[i]),
                        floor=float(lo[i] * floor_factor), tol=tol,
                    )
                if it == _MAX_ITERS:
                    worst = int(np.argmax(hi - lo))
                    raise ConvergenceError(
                        float(lo[worst]), float(hi[worst]), it, index=int(act[worst])
                    )
                x = _inverse_step(m, x, mx, lo, hi)
    return (out_lo + out_hi) / 2.0, out_lo, out_hi, out_x, out_it


def _certify_one(
    m: np.ndarray,
    tol: float,
    index: int,
    f_lo: float,
    f_hi: float,
    floor_factor: float,
) -> tuple[float, float, np.ndarray, int]:
    """_certify for one (n, n) matrix m, alone or of a block below
    _ELIMINATION_MIN: (lo, hi, perron, iterations).  Runs inside _kernel,
    which gives f_lo, f_hi and floor_factor.

    The checks are those of the elimination loop: the same certificate
    (_enclosure), floor, stall rule and cap, with ConvergenceError naming m
    by its index in the input stack.  The first check takes the all-equal
    vector, as there.  The second takes LAPACK's eigenvector of m for its
    eigenvalue of largest real part (_lapack_perron), which for an
    irreducible nonnegative m is the Perron root, since every other
    eigenvalue of modulus rho has a smaller real part; most family matrices
    certify on it.  Every later step, and the second when eig fails or its
    vector is not above _X_MIN and finite, is the elimination loop's
    shifted solve, with the power step on M + I, x + Mx, when its iterate
    is not positive and finite.  Its shift (_shift) is taken from the
    tightest enclosure so far, not the current one: every enclosure is
    certified, and eig loses the tiny entries of a Perron vector that
    spans many orders of magnitude, whose enclosure can then reach far
    above rho (1e48 for c_ng(12, 3)' at alpha 0.99), where a shift makes
    each solve no better than a power step.  The layout differs: 2-D arrays,
    one np.linalg.solve on the (n, n) matrix, the bounds as Python floats,
    and no active set.  For a few matrices the elimination loop's numpy
    calls cost their dispatch, not their work.
    """
    n = m.shape[0]
    x = np.full(n, 1.0 / n)
    last = math.inf  # width at the last stall test
    best_lo, best_hi = -math.inf, math.inf  # the tightest enclosure so far
    for it in range(1, _MAX_ITERS + 1):
        # each row of M x summed in index order, as the elimination loop's
        # einsum sums each column, so a first check reads the same in both
        # loops (np.add.accumulate is sequential; BLAS and np.sum pair or
        # fuse terms); Python's min and max cost less at this size
        mx = np.add.accumulate(m * x, axis=1)[:, -1]
        q = (mx / x).tolist()
        lo, hi = _enclosure(min(q), max(q), f_lo, f_hi, math.nextafter)
        if hi - lo <= tol:
            return lo, hi, x, it
        stuck = lo * floor_factor > tol
        if it % _STALL_CHECKS == 0:
            stuck |= hi - lo >= last
            last = hi - lo
        if stuck:
            raise ConvergenceError(lo, hi, it, index=index, floor=lo * floor_factor, tol=tol)
        if it == _MAX_ITERS:
            raise ConvergenceError(lo, hi, it, index=index)
        best_lo, best_hi = max(best_lo, lo), min(best_hi, hi)
        z = _lapack_perron(m) if it == 1 else None
        if z is None:
            a = np.negative(m)
            a.flat[:: n + 1] += _shift(best_lo, best_hi, max)
            try:
                z = np.linalg.solve(a, x)
            except np.linalg.LinAlgError:  # an exactly singular pivot
                z = np.full_like(x, np.nan)
            z /= z.sum()
            if not (z.min() > _X_MIN and z.max() < np.inf):
                z = x + mx
                z /= z.sum()
        x = z


def _lapack_perron(m: np.ndarray) -> np.ndarray | None:
    """The eigenvector np.linalg.eig gives for the eigenvalue of m of largest
    real part, as abs(real(.)) with unit sum; None if eig raises LinAlgError
    or the vector is not above _X_MIN and finite.  Only a start: the
    certificate is taken afresh on it, so eig's rounding cannot reach it."""
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError:
        return None
    z = np.abs(v[:, np.argmax(w.real)].real)
    z /= z.sum()
    return z if z.min() > _X_MIN and z.max() < np.inf else None


def spectral_radius(G: Digraph, alpha: float, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Certified Perron root of A_alpha(G) for strongly connected G.

    The result's [certificate_lo, certificate_hi] interval contains the exact
    radius and is at most tol wide; perron is the positive vector that
    certifies it, an approximate eigenvector normalised to unit 1-norm.
    It runs the one-matrix loop (_certify_one) directly, with no stack, so
    the result is bit for bit that of G's matrix in any block of
    batch_cw_radius below _ELIMINATION_MIN.
    """
    if not G.strongly_connected:
        raise NotStronglyConnected(
            "spectral radius with Perron data needs a strongly connected digraph"
        )
    m = _alpha_entries(G.adjacency, _check_alpha(alpha))
    with _kernel(G.n, tol) as bounds:
        lo, hi, x, iterations = _certify_one(m, tol, 0, *bounds)
    return SpectralResult(
        radius=(lo + hi) / 2.0,
        perron=x,
        certificate_lo=lo,
        certificate_hi=hi,
        iterations=iterations,
    )


def _component_enclosures(
    adj: np.ndarray, alpha: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Certified [lo, hi] enclosures of the A_alpha radius of every digraph
    of a (k, n, n) adjacency stack, strongly connected or not.

    A_alpha is block-triangular under the condensation order, so its radius
    is the largest radius of the diagonal blocks of the strong components
    (whose diagonals keep the out-degrees counted in the whole digraph),
    enclosed by [max lo, max hi] over the blocks.  The blocks of each size
    go through the kernel as one stack; a ConvergenceError names its
    failing block by the index in adj of that block's digraph.
    """
    k, n, _ = adj.shape
    mats = _alpha_entries(adj, _check_alpha(alpha))
    # Warshall's closure on the stack: [b, i, j] is whether i reaches j
    reach = adj.astype(bool) | np.eye(n, dtype=bool)
    for v in range(n):
        reach |= reach[:, :, v, None] & reach[:, v, None, :]
    same = reach & reach.transpose(0, 2, 1)  # [b, i, j]: i and j share a component
    # one block per component of each digraph, named by its least vertex
    owner, least = np.nonzero(same.argmax(axis=2) == np.arange(n))
    sizes = same[owner, least].sum(axis=1)
    lo = np.full(k, -np.inf)
    hi = np.full(k, -np.inf)
    for size in np.unique(sizes).tolist():
        pick = sizes == size
        b = owner[pick]
        verts = np.nonzero(same[b, least[pick]])[1].reshape(-1, size)
        blocks = mats[b[:, None, None], verts[:, :, None], verts[:, None, :]]
        try:
            _, block_lo, block_hi, _, _ = _certify(blocks, tol)
        except ConvergenceError as err:
            err.index = int(b[err.index])  # the failing block's digraph in adj
            raise
        np.maximum.at(lo, b, block_lo)
        np.maximum.at(hi, b, block_hi)
    return lo, hi


def spectral_radius_general(G: Digraph, alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius for a possibly reducible digraph (no Perron certificate):
    the midpoint of its enclosure from the strongly connected blocks
    (_component_enclosures)."""
    lo, hi = _component_enclosures(G.adjacency[None], alpha, tol)
    return float((lo[0] + hi[0]) / 2.0)


def quotient_matrix(
    M: AlphaMatrix | np.ndarray, partition: Sequence[Sequence[int]]
) -> QuotientMatrix:
    """Equitable quotient with respect to an ordered vertex partition.

    Every block-to-block row sum must be constant within 1e-12, otherwise the
    partition is rejected with the worst offending block pair reported (the
    first in row-major order among equally bad pairs).  A matrix that is not
    square 2-D, a partition that misses or repeats a vertex or has an empty
    block, or a matrix entry that is not finite, raises ValueError naming it.
    """
    entries = _square_entries(M)
    n = entries.shape[0]
    blocks = [tuple(int(v) for v in blk) for blk in partition]
    flat = [v for blk in blocks for v in blk]
    if sorted(flat) != list(range(n)):
        raise ValueError("partition must cover every vertex exactly once")
    sizes = [len(blk) for blk in blocks]
    if 0 in sizes:
        # reduceat would read an empty block as the row at its start
        raise ValueError(f"block {sizes.index(0)} of the partition is empty")
    t = len(blocks)
    if not t:
        return QuotientMatrix(entries=np.empty((0, 0)), partition=())
    # min and max propagate NaN, so two reductions test every entry
    if not (entries.min() > -np.inf and entries.max() < np.inf):
        i, j = np.argwhere(~np.isfinite(entries))[0]
        raise ValueError(f"matrix entry ({i}, {j}) is {float(entries[i, j])!r}, not finite")
    # rows and columns in block order, so every block is a run of them
    starts = np.cumsum([0] + sizes[:-1])
    grouped = entries[np.ix_(flat, flat)]
    # sums[v, j]: the row sum of vertex v (in block order) into block j
    sums = np.add.reduceat(grouped, starts, axis=1)
    q = np.add.reduceat(sums, starts, axis=0) / np.array(sizes)[:, None]
    dev = np.maximum.reduceat(sums, starts, axis=0) - np.minimum.reduceat(sums, starts, axis=0)
    if dev.max() > 1e-12:
        i, j = divmod(int(np.argmax(dev)), t)
        raise ValueError(
            f"partition is not equitable: block pair ({i}, {j}) has row sums "
            f"varying by {dev[i, j]:.3e} (> 1e-12)"
        )
    return QuotientMatrix(entries=q, partition=tuple(blocks))


def batch_cw_radius(
    mats: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Certified radii for a stack of nonnegative irreducible matrices.

    Runs the kernel of spectral_radius on every matrix of the (B, n, n)
    stack; each matrix leaves the batch at the first check whose enclosure
    is within tol.  Returns arrays (radius, lo, hi, iterations), empty for an
    empty stack.  A shape other than (B, n, n) with n >= 1, or a negative or
    non-finite entry, which no certificate covers, raises ValueError.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] < 1:
        raise ValueError(f"expected a (B, n, n) stack with n >= 1, got shape {mats.shape}")
    # min and max propagate NaN, so two reductions test every entry
    if mats.size and not (mats.min() >= 0.0 and mats.max() < np.inf):
        b, i, j = np.argwhere(~((mats >= 0.0) & (mats < np.inf)))[0]
        raise ValueError(
            f"matrix {b} of the stack has entry ({i}, {j}) = {float(mats[b, i, j])!r}; "
            "the kernel certifies nonnegative finite matrices only"
        )
    mid, lo, hi, _x, iters = _certify(mats, tol)
    return mid, lo, hi, iters
