"""Reference computations for the benchmark, sharing no code with alphaspec.

Everything here is built from the documented code layout (bit p of a code is
the p-th off-diagonal cell (i, j) in row-major order) and from arc lists, with
numpy's dense eigenvalues and exact rationals as the references.  The check
functions return a list of failure strings; an empty list means the outputs
passed.  selftest.py feeds each of them a doctored output to show they can
fail.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# codes, strong connectivity and invariants


def cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def decode(n: int, code: int) -> np.ndarray:
    """0/1 adjacency matrix of a labelled code."""
    adj = np.zeros((n, n), dtype=np.int64)
    for p, (i, j) in enumerate(cells(n)):
        if (code >> p) & 1:
            adj[i, j] = 1
    return adj


def _masks(n: int, codes: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    outm = [np.zeros(codes.size, dtype=np.int64) for _ in range(n)]
    inm = [np.zeros(codes.size, dtype=np.int64) for _ in range(n)]
    for p, (i, j) in enumerate(cells(n)):
        bit = (codes >> p) & 1
        outm[i] |= bit << j
        inm[j] |= bit << i
    return outm, inm


def _reach_all(n: int, masks: list[np.ndarray]) -> np.ndarray:
    """Vertex set reachable from vertex 0, for every code of a chunk at once."""
    reach = np.ones(masks[0].size, dtype=np.int64)
    for _ in range(n - 1):
        nxt = reach.copy()
        for v in range(n):
            nxt |= np.where((reach >> v) & 1 == 1, masks[v], 0)
        reach = nxt
    return reach


def strong_mask(n: int, codes: np.ndarray) -> np.ndarray:
    """Strong connectivity by forward and backward reachability from vertex 0."""
    outm, inm = _masks(n, codes)
    full = (1 << n) - 1
    return (_reach_all(n, outm) == full) & (_reach_all(n, inm) == full)


def strong_census(n: int, chunk_bits: int = 16) -> tuple[int, int]:
    """(strong labelled digraphs, (digraph, arc) pairs over strong non-cycles).

    The second count is the number of subdivided matrices an exhaustive
    subdivision sweep checks per alpha.  Done in chunks so that the
    benchmark's own memory stays well below the program's.
    """
    total = 1 << (n * (n - 1))
    strong = 0
    pairs = 0
    for lo in range(0, total, 1 << chunk_bits):
        codes = np.arange(lo, min(lo + (1 << chunk_bits), total), dtype=np.int64)
        codes = codes[strong_mask(n, codes)]
        strong += codes.size
        outm, _ = _masks(n, codes)
        outdeg = np.stack([_popcount(m) for m in outm])
        narcs = outdeg.sum(axis=0)
        cycle = (narcs == n) & (outdeg.max(axis=0) == 1)
        pairs += int(narcs[~cycle].sum())
    return strong, pairs


def _popcount(a: np.ndarray) -> np.ndarray:
    count = np.zeros_like(a)
    while a.any():
        count += a & 1
        a = a >> 1
    return count


def is_strong(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    if n == 1:
        return True
    for mat in (adj, adj.T):
        seen = {0}
        todo = [0]
        while todo:
            u = todo.pop()
            for v in np.flatnonzero(mat[u]).tolist():
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        if len(seen) != n:
            return False
    return True


def girth(adj: np.ndarray) -> int:
    """Shortest directed cycle: the least k with a nonzero trace of A^k."""
    n = adj.shape[0]
    power = adj.copy()
    for k in range(2, n + 1):
        power = np.minimum(power @ adj, 1)
        if np.trace(power) > 0:
            return k
    raise ValueError("acyclic digraph")


def clique(adj: np.ndarray) -> int:
    """Largest vertex set joined pairwise by digons."""
    n = adj.shape[0]
    mutual = adj & adj.T
    for size in range(n, 1, -1):
        for s in combinations(range(n), size):
            if all(mutual[u, v] for u, v in combinations(s, 2)):
                return size
    return 1


def vertex_conn(adj: np.ndarray) -> int:
    n = adj.shape[0]
    for size in range(0, n - 1):
        for gone in combinations(range(n), size):
            keep = [v for v in range(n) if v not in gone]
            if not is_strong(adj[np.ix_(keep, keep)]):
                return size
    return n - 1


def arc_conn(adj: np.ndarray) -> int:
    n = adj.shape[0]
    best = None
    for size in range(1, n):
        for s in combinations(range(n), size):
            rest = [v for v in range(n) if v not in s]
            cut = int(adj[np.ix_(list(s), rest)].sum())
            best = cut if best is None else min(best, cut)
    return best


def parameter_holds(adj: np.ndarray, parameter: str, value: int) -> bool:
    if parameter == "girth":
        return girth(adj) == value
    if parameter == "clique":
        return clique(adj) == value
    if parameter == "vertex_conn":
        return vertex_conn(adj) == value
    lam = arc_conn(adj)
    if parameter == "arc_conn":
        return lam == value
    if parameter == "arc_conn_tight":
        delta0 = min(adj.sum(axis=0).min(), adj.sum(axis=1).min())
        return lam == value == delta0
    raise ValueError(f"unknown parameter {parameter!r}")


# ---------------------------------------------------------------------------
# radii


def arcs_to_adj(n: int, arcs) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in arcs:
        adj[u, v] = 1
    return adj


def subdivided(adj: np.ndarray, arc: tuple[int, int]) -> np.ndarray:
    """Arc (u, v) replaced by u -> w -> v through a new last vertex w."""
    n = adj.shape[0]
    u, v = arc
    sub = np.zeros((n + 1, n + 1), dtype=np.int64)
    sub[:n, :n] = adj
    sub[u, v] = 0
    sub[u, n] = sub[n, v] = 1
    return sub


def alpha_mat(adj: np.ndarray, alpha: float, dtype=np.float64) -> np.ndarray:
    a = np.asarray(adj, dtype=dtype)
    m = (dtype(1) - dtype(alpha)) * a
    idx = np.arange(a.shape[-1])
    m[..., idx, idx] += dtype(alpha) * a.sum(axis=-1)
    return m


def eig_radius(adj: np.ndarray, alpha: float) -> np.ndarray | float:
    """Largest eigenvalue modulus by dense eigvals; works on stacks too."""
    rad = np.abs(np.linalg.eigvals(alpha_mat(adj, alpha))).max(axis=-1)
    return float(rad) if np.ndim(rad) == 0 else rad


def scc_radius(adj: np.ndarray, alpha: float) -> float:
    """Radius as the largest over the strongly connected blocks.

    On a digraph that is not strongly connected, two blocks with the same
    radius can make that eigenvalue defective, where eigvals of the whole
    matrix loses half its digits; the Perron root of each irreducible block
    is simple.
    """
    n = adj.shape[0]
    reach = (adj > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    m = alpha_mat(adj, alpha)
    best = 0.0
    for v in range(n):
        block = np.flatnonzero(reach[v] & reach[:, v])
        best = max(best, float(np.abs(np.linalg.eigvals(m[np.ix_(block, block)])).max()))
    return best


def _longdouble_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting, kept in numpy.longdouble."""
    a = a.copy()
    b = b.copy()
    n = b.size
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        f = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= f[:, None] * a[k, k:]
        b[k + 1:] -= f * b[k]
    x = np.zeros(n, dtype=a.dtype)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def refine_perron(adj: np.ndarray, alpha: float, perron, hi: float) -> np.ndarray:
    """Extended-precision Perron vector, from the returned one.

    Inverse iteration in numpy.longdouble with the shift mu = hi + 1e-9,
    above the spectral radius: (mu*I - M)^-1 is entrywise positive for an
    irreducible M, so every iterate stays positive, and each step shrinks
    the error by about (mu - rho) / (distance to the next eigenvalue).
    """
    ld = np.longdouble
    m = alpha_mat(adj, alpha, dtype=ld)
    shifted = ld(hi + 1e-9) * np.eye(adj.shape[0], dtype=ld) - m
    x = np.asarray(perron, dtype=ld)
    for _ in range(3):
        x = _longdouble_solve(shifted, x)
        x = x / x.sum()
    return x


def exact_cw(adj: np.ndarray, alpha: float, x) -> tuple[Fraction, Fraction]:
    """Exact Collatz-Wielandt interval of alpha*D + (1-alpha)*A at x.

    Rational throughout: Fraction(alpha) of the double alpha and the entries
    of x read exactly.  For a strongly connected digraph and a positive x
    the Perron root lies in [min, max] with no rounding at all.
    """
    a = Fraction(alpha)
    xs = [Fraction(*(int(t) for t in np.longdouble(v).as_integer_ratio())) for v in x]
    if not all(v > 0 for v in xs):
        raise ValueError("Collatz-Wielandt test vector is not positive")
    outs = [np.flatnonzero(row).tolist() for row in adj]
    q = [a * len(o) + (1 - a) * sum(xs[j] for j in o) / xs[i] for i, o in enumerate(outs)]
    return min(q), max(q)


def excludes(lo: float, hi: float, exact: tuple[Fraction, Fraction]) -> bool:
    """Does the float enclosure [lo, hi] miss the exact interval entirely?"""
    return Fraction(hi) < exact[0] or Fraction(lo) > exact[1]


# ---------------------------------------------------------------------------
# checks on workload outputs

STRONG_5 = 565_080  # OEIS A003030: strongly connected labelled digraphs on 5 nodes
CODES_5 = 1 << 20
# a code attains a group extreme when its certified radius lies within 1e-8
# of it; the exact radius is a further half certificate width away
ATTAIN = 1e-8 + 1e-9


def check_scan(scan, tol: float) -> list[str]:
    fails = []
    if scan.total_codes != CODES_5:
        fails.append(f"scan: total_codes {scan.total_codes} != {CODES_5}")
    if scan.strong_count != STRONG_5:
        fails.append(f"scan: strong_count {scan.strong_count} != {STRONG_5}")
    if scan.max_certificate_width > tol:
        fails.append(f"scan: max_certificate_width {scan.max_certificate_width!r} > tol {tol!r}")
    for alpha in scan.alphas:
        report = scan.bound_report(alpha)
        if report["violations"]:
            fails.append(f"scan: alpha={alpha}: bound violations {report['violations'][:3]}")
        if report["checked"] != STRONG_5:
            fails.append(f"scan: alpha={alpha}: bound checks ran on {report['checked']}")
    return fails


def check_extreme(n: int, parameter: str, value: int, alpha: float, ext, code: int) -> list[str]:
    """One attaining code: its radius by eigvals and its parameter by brute force."""
    adj = decode(n, code)
    where = f"{parameter}={value} alpha={alpha} code {code}"
    fails = []
    if not is_strong(adj):
        fails.append(f"extreme {where}: not strongly connected")
        return fails
    rad = eig_radius(adj, alpha)
    if abs(rad - ext.value) > ATTAIN:
        fails.append(f"extreme {where}: eigvals radius {rad!r} != reported {ext.value!r}")
    if not parameter_holds(adj, parameter, value):
        fails.append(f"extreme {where}: parameter does not hold")
    return fails


def check_verdicts(verdicts) -> list[str]:
    return [
        f"verdict {v.theorem} n={v.n}: {v.status}: {v.details[:2]}"
        for v in verdicts
        if v.status != "confirmed"
    ]


def check_subdivision(out: dict, expected_checked: int, sample_max_excess: float, tol: float) -> list[str]:
    fails = []
    if out["violations"]:
        fails.append(f"subdivision: violations {out['violations'][:3]}")
    if out["max_excess"] > 1e-9:
        fails.append(f"subdivision: max_excess {out['max_excess']!r} > 1e-9")
    if out["checked"] != expected_checked:
        fails.append(f"subdivision: checked {out['checked']} != {expected_checked}")
    # the sweep's excesses are certified midpoints, each within tol of the
    # exact radius, so the sweep may read up to 2*tol below an exact excess
    if out["max_excess"] < sample_max_excess - 2 * tol:
        fails.append(
            f"subdivision: max_excess {out['max_excess']!r} below the sampled "
            f"excess {sample_max_excess!r}"
        )
    return fails


def check_radius(tag: str, adj: np.ndarray, alpha: float, res, tol: float):
    """Width, eigvals agreement and the exact enclosure of one certified radius.

    Returns (failures, missed, exact interval); missed is True when [lo, hi]
    provably excludes the Perron root.  A miss is counted as a failed operation, not
    as a wrong output: it is the rounding fault of the float quotients.
    """
    fails = []
    width = res.certificate_hi - res.certificate_lo
    if not 0.0 <= width <= tol:
        fails.append(f"{tag}: certificate width {width!r} outside [0, {tol!r}]")
    rad = eig_radius(adj, alpha)
    if abs(rad - res.radius) > 1e-9:
        fails.append(f"{tag}: radius {res.radius!r} != eigvals {rad!r}")
    exact = exact_cw(adj, alpha, refine_perron(adj, alpha, res.perron, res.certificate_hi))
    missed = excludes(res.certificate_lo, res.certificate_hi, exact)
    return fails, missed, exact


def tournament_max(n: int, alpha: float) -> float:
    """Largest radius over all 2^(n(n-1)/2) labelled tournaments, by eigvals."""
    pairs = list(combinations(range(n), 2))
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    best = -np.inf
    total = 1 << len(pairs)
    for lo in range(0, total, 4096):
        codes = np.arange(lo, min(lo + 4096, total), dtype=np.int64)
        bits = (codes[:, None] >> np.arange(len(pairs))) & 1
        adj = np.zeros((codes.size, n, n), dtype=np.int64)
        adj[:, rows, cols] = bits
        adj[:, cols, rows] = 1 - bits
        best = max(best, float(eig_radius(adj, alpha).max()))
    return best


def check_tournament(n: int, alpha: float, arcs) -> list[str]:
    adj = arcs_to_adj(n, arcs)
    if not ((adj + adj.T) == 1 - np.eye(n, dtype=np.int64)).all():
        return [f"tournament search alpha={alpha}: result is not a tournament"]
    rad = eig_radius(adj, alpha)
    best = tournament_max(n, alpha)
    if rad < best - 1e-9:
        return [f"tournament search alpha={alpha}: radius {rad!r} below the maximum {best!r}"]
    return []


def check_surgery(tag, before_adj, after_adj, record, alpha, before, after, direction) -> list[str]:
    """Arc sets, radii by eigvals, and the direction the radius must move."""
    fails = []
    for which, adj, g, rad in (("before", before_adj, record.before, before),
                               ("after", after_adj, record.after, after)):
        if not np.array_equal(adj, arcs_to_adj(g.n, g.arcs)):
            fails.append(f"{tag}: wrong arc set {which}")
            continue
        ref = scc_radius(adj, alpha)
        if abs(ref - rad) > 1e-9:
            fails.append(f"{tag}: radius {which} {rad!r} != eigvals {ref!r}")
    if direction == "up" and after < before - 1e-9:
        fails.append(f"{tag}: radius fell from {before!r} to {after!r}")
    if direction == "down" and after > before + 1e-9:
        fails.append(f"{tag}: radius rose from {before!r} to {after!r}")
    return fails


if __name__ == "__main__":
    for order in range(2, 6):
        strong, pairs = strong_census(order)
        print(f"n={order}: {strong} strong labelled digraphs, "
              f"{pairs} (strong non-cycle digraph, arc) pairs")
