"""Exhaustive verification of the extremal statements at small order.

Every labeled digraph on n vertices is an integer code (digraph.code_of_digraph).
Codes are scanned in ascending order and filtered to the strongly connected
ones.  Each of those becomes one row of a columnar table: its code, girth,
clique number, vertex and arc connectivity, minimum degree and out-degree
range, and its certified radius for every alpha.  All statistics are numpy
queries on that table:

* for each parameter value (girth, clique number, vertex or arc connectivity)
  the minimum and maximum radius per alpha, all codes within 1e-8 of the
  extremum, and the runner-up value beyond that band;
* the global top radius buckets per alpha (for second-maximum statements);
* spectral bound violations (row-sum sandwich, cycle/complete equalities,
  strict alpha * max-out-degree lower bound).

The code space splits into contiguous chunks whose rows are concatenated in
code order, so multi-process scans build the same table as the serial one.

The seven enumeration statements are one table, _STATEMENTS: per statement
the scan columns it reads (R5.1 reads the top radius levels), min or max, the
parameter range, the stated radius and its tolerance, the digraphs that must
attain it and those that may.  verify_theorem checks every entry the same way;
L3.1/L4.1 compare certified enclosures of two family members instead.

Isomorphism classes are compared by canonical code (digraph.canonical_codes),
both in extremal_scan's class summary and in the statements' attaining sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import families, formulas
from .digraph import (
    Digraph,
    _arc_connectivity,
    _cells,
    _clique_number,
    _girth,
    _vertex_connectivity,
    canonical_codes,
    code_of_digraph,
    digraph_from_code,
    # unused here, kept because perfbench/tracing.py wraps oracle.is_isomorphic
    # by name: without it every traced benchmark run would fail
    is_isomorphic,  # noqa: F401
)
from .spectral import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    ConvergenceError,
    NotStronglyConnected,
    _alpha_entries,
    _check_alpha,
    batch_cw_radius,
    spectral_radius,
    spectral_radius_general,
)

__all__ = [
    "ENUM_CAP",
    "ATTAIN_TOL",
    "SCAN_PARAMETERS",
    "THEOREM_IDS",
    "GroupExtreme",
    "TopBucket",
    "ScanStats",
    "ExtremalGroup",
    "ExtremalReport",
    "VerificationVerdict",
    "Problem41Report",
    "digraph_from_code",
    "code_of_digraph",
    "run_scan",
    "extremal_scan",
    "verify_theorem",
    "explore_problem_4_1",
    "subdivision_sweep",
]

ENUM_CAP = 6
ATTAIN_TOL = 1e-8
VIOLATION_CAP = 50
CHUNK_BITS = 15
# 2^13 codes per subdivision-sweep chunk; larger chunks raise the n = 5 peak memory
SUBDIVISION_CHUNK_BITS = 13
# strongly connected labelled digraphs on 6 vertices (OEIS A003030)
_STRONG_COUNT_6 = 734_774_776

SCAN_PARAMETERS = ("girth", "clique", "vertex_conn", "arc_conn", "arc_conn_tight")
PUBLIC_PARAMETERS = ("girth", "clique", "vertex_conn", "arc_conn")


# ---------------------------------------------------------------------------
# decoding codes (the code format is defined in digraph.py)

@dataclass(frozen=True)
class _CellTables:
    """Per-n constant arrays used by the vectorized decoder."""

    nbits: int
    ci: np.ndarray
    cj: np.ndarray
    row_weights: np.ndarray  # (nbits, n) int64: 1 << j scattered to row i
    col_weights: np.ndarray
    squarings: int


_CELL_CACHE: dict[int, _CellTables] = {}


def _tables(n: int) -> _CellTables:
    if n not in _CELL_CACHE:
        cells = _cells(n)
        nb = len(cells)
        ci = np.array([c[0] for c in cells], dtype=np.int64)
        cj = np.array([c[1] for c in cells], dtype=np.int64)
        rw = np.zeros((nb, n), dtype=np.int64)
        cw = np.zeros((nb, n), dtype=np.int64)
        for p, (i, j) in enumerate(cells):
            rw[p, i] = 1 << j
            cw[p, j] = 1 << i
        sq = 1
        while (1 << sq) < n - 1:
            sq += 1
        _CELL_CACHE[n] = _CellTables(nb, ci, cj, rw, cw, max(sq, 1))
    return _CELL_CACHE[n]


def _decode_strong_chunk(n: int, lo: int, hi: int):
    """Strongly connected codes in [lo, hi) with adjacency and mask arrays.

    Strong connectivity is decided by boolean closure (repeated squaring of
    A + I), which doubles as an independent check on the BFS-based predicate
    used elsewhere.
    """
    t = _tables(n)
    codes = np.arange(lo, hi, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(t.nbits)) & 1).astype(np.uint8)
    # cheap necessary condition first: no vertex may have empty in or out set
    rowmask = bits @ t.row_weights
    colmask = bits @ t.col_weights
    keep = (rowmask > 0).all(axis=1) & (colmask > 0).all(axis=1)
    codes, bits = codes[keep], bits[keep]
    rowmask, colmask = rowmask[keep], colmask[keep]
    if codes.size == 0:
        empty = np.zeros((0, n, n), dtype=np.uint8)
        return codes, empty, rowmask, colmask
    adj = np.zeros((codes.size, n, n), dtype=np.uint8)
    adj[:, t.ci, t.cj] = bits
    reach = adj.copy()
    eye = np.arange(n)
    reach[:, eye, eye] = 1
    for _ in range(t.squarings):
        reach = (np.einsum("bij,bjk->bik", reach, reach) > 0).astype(np.uint8)
    strong = reach.reshape(codes.size, -1).all(axis=1)
    return codes[strong], adj[strong], rowmask[strong], colmask[strong]


# ---------------------------------------------------------------------------
# the scan table and the statistics derived from it

@dataclass(frozen=True)
class GroupExtreme:
    value: float
    codes: tuple[int, ...]
    count: int
    runner_up: float | None

    @property
    def gap(self) -> float | None:
        if self.runner_up is None:
            return None
        return abs(self.runner_up - self.value)


@dataclass(frozen=True)
class TopBucket:
    value: float
    codes: tuple[int, ...]
    count: int


# Invariant columns of the scan table.  In a strongly connected digraph every
# out-degree is at least 1, so "is a cycle" is max_out == 1 and "is complete"
# is min_out == n - 1.
_INVARIANTS = ("girth", "clique", "vertex_conn", "arc_conn", "delta0", "min_out", "max_out")


def _row_dtype(nalphas: int) -> np.dtype:
    """One packed record per strong code: 4 + 7 + 8 * nalphas bytes."""
    return np.dtype(
        [("code", np.int32)]
        + [(name, np.int8) for name in _INVARIANTS]
        + [("radius", np.float64, (nalphas,))]
    )


def _certified_radii(mats: np.ndarray, tol: float, max_iters: int, alpha: float, witness):
    """batch_cw_radius, naming the matrix that did not converge by witness(index)."""
    try:
        return batch_cw_radius(mats, tol=tol, max_iters=max_iters)
    except ConvergenceError as err:
        raise ConvergenceError(
            err.lo, err.hi, err.iterations, err.index,
            witness=f"{witness(err.index)} at alpha {alpha}",
        ) from err


def _scan_chunk(
    n: int, lo: int, hi: int, alphas: tuple[float, ...], parameters: tuple[str, ...],
    tol: float, max_iters: int,
) -> tuple[np.ndarray, float, int]:
    """Table rows of the strong codes in [lo, hi), the widest certificate and
    the most iterations among them.  Unrequested invariant columns stay 0."""
    codes, adj, rowmask, colmask = _decode_strong_chunk(n, lo, hi)
    rows = np.zeros(codes.size, dtype=_row_dtype(len(alphas)))
    if codes.size == 0:
        return rows, 0.0, 0
    rows["code"] = codes
    outdeg = adj.sum(axis=2)
    min_out = outdeg.min(axis=1)
    rows["min_out"] = min_out
    rows["max_out"] = outdeg.max(axis=1)
    rows["delta0"] = np.minimum(min_out, adj.sum(axis=1).min(axis=1))

    # combinatorial parameters, one python pass per column
    need_ac = {"arc_conn", "arc_conn_tight", "vertex_conn"} & set(parameters)
    masks = list(zip(rowmask.tolist(), colmask.tolist()))
    if "girth" in parameters:
        rows["girth"] = [_girth(r, c, n) for r, c in masks]
    if "clique" in parameters:
        rows["clique"] = [
            _clique_number([r[i] & c[i] for i in range(n)], n) for r, c in masks
        ]
    if need_ac:
        ac = [_arc_connectivity(r, c, n) for r, c in masks]
        rows["arc_conn"] = ac
        if "vertex_conn" in parameters:
            rows["vertex_conn"] = [
                _vertex_connectivity(r, c, n, upper=k) for (r, c), k in zip(masks, ac)
            ]

    # certified radii, batched per alpha
    width, iterations = 0.0, 0
    for ai, alpha in enumerate(alphas):
        lam, lo_c, hi_c, iters = _certified_radii(
            _alpha_entries(adj, alpha), tol, max_iters, alpha, lambda i: f"code {codes[i]}"
        )
        rows["radius"][:, ai] = lam
        width = max(width, float((hi_c - lo_c).max()))
        iterations = max(iterations, int(iters.max()))
    return rows, width, iterations


def _scan_table(
    n: int, alphas: tuple[float, ...], parameters: tuple[str, ...],
    tol: float, max_iters: int, workers: int,
) -> tuple[np.ndarray, float, int]:
    """The scan table in code order, the widest certificate and the most
    iterations.  With workers > 1 the chunks run in a process pool; either
    way their rows are concatenated in chunk order."""
    total = 1 << (n * (n - 1))
    step = 1 << CHUNK_BITS
    tasks = [
        (n, lo, min(lo + step, total), alphas, parameters, tol, max_iters)
        for lo in range(0, total, step)
    ]
    if workers <= 1:
        chunks = [_scan_chunk(*task) for task in tasks]
    else:
        import multiprocessing as mp

        with mp.Pool(processes=workers) as pool:
            chunks = pool.starmap(_scan_chunk, tasks)
    table = np.concatenate([rows for rows, _w, _i in chunks])
    return table, max(w for _r, w, _i in chunks), max(i for _r, _w, i in chunks)


def _extreme(vals: np.ndarray, codes: np.ndarray, mode: str) -> GroupExtreme:
    """Best value, the sorted codes within ATTAIN_TOL of it, and the best
    value outside that band.  Max mode is min mode on negated values."""
    sign = 1.0 if mode == "min" else -1.0
    signed = sign * vals
    best = signed.min()
    inside = signed <= best + ATTAIN_TOL
    outside = signed[~inside]
    attaining = np.sort(codes[inside])
    return GroupExtreme(
        value=sign * float(best),
        codes=tuple(attaining.tolist()),
        count=int(attaining.size),
        runner_up=sign * float(outside.min()) if outside.size else None,
    )


def _group_extremes(table: np.ndarray, nalphas: int, parameters: tuple[str, ...]) -> dict:
    """{(parameter, value): [{"min": GroupExtreme, "max": GroupExtreme}] per alpha}.

    arc_conn_tight groups the arc connectivity of the rows where it equals
    the minimum degree delta0."""
    groups = {}
    for param in parameters:
        if param == "arc_conn_tight":
            col = table["arc_conn"]
            rows = col == table["delta0"]
        else:
            col = table[param]
            rows = np.ones(col.size, dtype=bool)
        for value in np.unique(col[rows]).tolist():
            sel = rows & (col == value)
            codes, radius = table["code"][sel], table["radius"][sel]
            groups[(param, value)] = [
                {mode: _extreme(radius[:, ai], codes, mode) for mode in ("min", "max")}
                for ai in range(nalphas)
            ]
    return dict(sorted(groups.items()))


def _top_buckets(vals: np.ndarray, codes: np.ndarray, buckets: int = 3) -> list[TopBucket]:
    """The largest radius levels: each bucket holds every radius within
    ATTAIN_TOL below the largest radius not in an earlier bucket."""
    order = np.lexsort((codes, -vals))
    neg = -vals[order]  # ascending
    out: list[TopBucket] = []
    start = 0
    while start < neg.size and len(out) < buckets:
        stop = int(np.searchsorted(neg, neg[start] + ATTAIN_TOL, side="right"))
        members = np.sort(codes[order[start:stop]])
        out.append(TopBucket(float(-neg[start]), tuple(members.tolist()), int(members.size)))
        start = stop
    return out


def _bound_report(n: int, alpha: float, table: np.ndarray, lam: np.ndarray) -> dict:
    """Spectral bound checks on every row; at most VIOLATION_CAP violations
    are listed, check by check in code order."""
    min_out, max_out = table["min_out"], table["max_out"]
    is_cycle = max_out == 1
    is_complete = min_out == n - 1
    out_regular = min_out == max_out
    near_one = np.abs(lam - 1.0) <= 1e-9
    near_top = np.abs(lam - (n - 1.0)) <= 1e-9
    reg_eq = np.abs(lam - min_out) <= 1e-9
    strict_inside = (lam > min_out + 1e-9) & (lam < max_out - 1e-9)
    checks = [
        ("radius_below_one", lam < 1.0 - 1e-9),
        ("radius_above_n_minus_one", lam > n - 1.0 + 1e-9),
        ("radius_one_but_not_cycle", near_one & ~is_cycle),
        ("cycle_radius_not_one", is_cycle & ~near_one),
        ("top_radius_but_not_complete", near_top & ~is_complete),
        ("complete_radius_off", is_complete & ~near_top),
        ("regular_radius_off_degree", out_regular & ~reg_eq),
        ("irregular_radius_hits_degree", ~out_regular & ~strict_inside),
    ]
    if alpha > 0.0:
        checks.append(("radius_not_above_alpha_maxdeg", lam <= alpha * max_out + 1e-12))
    violations: list[dict] = []
    for name, bad in checks:
        for idx in np.flatnonzero(bad)[: VIOLATION_CAP - len(violations)]:
            violations.append(
                {"check": name, "code": int(table["code"][idx]), "radius": float(lam[idx])}
            )
    return {"checked": int(lam.size), "violations": violations}


@dataclass(frozen=True)
class ScanStats:
    n: int
    alphas: tuple[float, ...]
    parameters: tuple[str, ...]
    tol: float
    total_codes: int
    strong_count: int
    groups: dict
    top: dict
    bounds: dict
    max_certificate_width: float
    max_iterations: int

    def alpha_index(self, alpha: float) -> int:
        for i, a in enumerate(self.alphas):
            if abs(a - alpha) <= 1e-15:
                return i
        raise KeyError(f"alpha {alpha} was not part of this scan (have {self.alphas})")

    def group(self, parameter: str, value: int, alpha: float, mode: str) -> GroupExtreme | None:
        self.alpha_index(alpha)
        key = (parameter, int(value))
        if key not in self.groups:
            return None
        return self.groups[key][self.alpha_index(alpha)][mode]

    def group_values(self, parameter: str) -> list[int]:
        return sorted(v for (p, v) in self.groups if p == parameter)

    def top_buckets(self, alpha: float) -> list[TopBucket]:
        return self.top[self.alpha_index(alpha)]

    def bound_report(self, alpha: float) -> dict:
        return self.bounds[self.alpha_index(alpha)]


def run_scan(
    n: int,
    alphas: Sequence[float],
    parameters: Sequence[str] = SCAN_PARAMETERS,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    workers: int = 1,
) -> ScanStats:
    """Scan every strongly connected digraph on n vertices.

    Returns per-parameter extremal statistics for every requested alpha.
    With workers > 1 the code space is split into contiguous ranges handled
    by a process pool; the merged result is identical to the serial one.
    n = 6 is refused: its table would not fit in memory.
    """
    if n == ENUM_CAP:
        gb = _STRONG_COUNT_6 * _row_dtype(len(tuple(alphas))).itemsize / 1e9
        raise ValueError(
            f"n = {n} cannot be scanned, even with long runs enabled: the scan "
            f"table would hold {_STRONG_COUNT_6:,} rows, about {gb:.1f} GB, and "
            "twice that while its chunks are joined"
        )
    if not 2 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration supports 2 <= n <= {ENUM_CAP}, got {n}")
    alphas = tuple(_check_alpha(a) for a in alphas)
    if len(set(alphas)) != len(alphas):
        raise ValueError("duplicate alpha values")
    parameters = tuple(parameters)
    unknown = set(parameters) - set(SCAN_PARAMETERS)
    if unknown:
        raise ValueError(f"unknown scan parameters {sorted(unknown)}")
    table, width, iterations = _scan_table(n, alphas, parameters, tol, max_iters, workers)
    radius, codes = table["radius"], table["code"]
    return ScanStats(
        n=n,
        alphas=alphas,
        parameters=parameters,
        tol=tol,
        total_codes=1 << (n * (n - 1)),
        strong_count=int(table.size),
        groups=_group_extremes(table, len(alphas), parameters),
        top={ai: _top_buckets(radius[:, ai], codes) for ai in range(len(alphas))},
        bounds={
            ai: _bound_report(n, alpha, table, radius[:, ai])
            for ai, alpha in enumerate(alphas)
        },
        max_certificate_width=width,
        max_iterations=iterations,
    )


# ---------------------------------------------------------------------------
# isomorphism classes and reports

def _iso_classes(n: int, codes: Sequence[int]) -> list[Digraph]:
    """The first code of each isomorphism class, as a digraph, in order."""
    _canon, first = np.unique(canonical_codes(n, codes), return_index=True)
    return [digraph_from_code(n, codes[i]) for i in np.sort(first).tolist()]


@dataclass(frozen=True)
class ExtremalGroup:
    parameter_value: int
    radius: float
    attaining_count: int
    class_count: int
    representatives: tuple[Digraph, ...]
    runner_up: float | None


@dataclass(frozen=True)
class ExtremalReport:
    n: int
    alpha: float
    parameter: str
    mode: str
    entries: tuple[ExtremalGroup, ...]


def extremal_scan(
    n: int,
    alpha: float,
    parameter: str,
    mode: str = "max",
    scan: ScanStats | None = None,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> ExtremalReport:
    """Extremal radii per parameter value with isomorphism-class summary."""
    if parameter not in PUBLIC_PARAMETERS:
        raise ValueError(f"parameter must be one of {PUBLIC_PARAMETERS}, got {parameter!r}")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if scan is None:
        scan = run_scan(n, (alpha,), (parameter,), tol=tol, workers=workers)
    entries = []
    for value in scan.group_values(parameter):
        ext = scan.group(parameter, value, alpha, mode)
        classes = _iso_classes(n, ext.codes)
        entries.append(
            ExtremalGroup(
                parameter_value=value,
                radius=ext.value,
                attaining_count=ext.count,
                class_count=len(classes),
                representatives=tuple(classes),
                runner_up=ext.runner_up,
            )
        )
    return ExtremalReport(
        n=n, alpha=float(alpha), parameter=parameter, mode=mode, entries=tuple(entries)
    )


# ---------------------------------------------------------------------------
# theorem verification

@dataclass(frozen=True)
class VerificationVerdict:
    theorem: str
    n: int
    alphas: tuple[float, ...]
    status: str  # "confirmed" | "violated" | "vacuous"
    details: tuple[str, ...]
    witnesses: tuple[Digraph, ...]


# what a statement reads in place of a scan parameter: radius level v, 1 the top
_LEVEL = "level"


@dataclass(frozen=True)
class _Statement:
    """An enumeration statement.  For every alpha, every column in reads and
    every value v in values(n), the mode ("min" or "max") radius of the
    digraphs with that value is radius(n, v, alpha, tol) within tol; every
    digraph in stated(n, v, alpha) attains it; and every attaining digraph
    is isomorphic to one of them or, when allowed is set, passes
    allowed(G, v)."""

    reads: tuple[str, ...]
    mode: str
    values: Callable[[int], range]
    radius: Callable[[int, int, float, float], float]
    stated: Callable[[int, int, float], list[Digraph]]
    allowed: Callable[[Digraph, int], bool] | None = None
    tol: float = ATTAIN_TOL


def _cut_statement(read: str) -> _Statement:
    """For 1 <= k <= n-2 the maximum radius is the closed form, attained by
    K(n, k, n-k-1) and, at alpha = 0 only, also by K(n, k, 1)."""
    return _Statement(
        reads=(read,), mode="max", values=lambda n: range(1, n - 1),
        radius=lambda n, k, alpha, tol: formulas.max_vertex_conn_radius(n, k, alpha),
        stated=lambda n, k, alpha: [
            families.k_nkm(n, k, m) for m in ((1, n - k - 1) if alpha == 0.0 else (n - k - 1,))
        ],
    )


_STATEMENTS = {
    "T3.1": _Statement(
        reads=("girth",), mode="min", values=lambda n: range(2, n),
        radius=lambda n, g, alpha, tol: spectral_radius(families.c_ng(n, g), alpha, tol=tol).radius,
        stated=lambda n, g, alpha: [families.c_ng(n, g)],
    ),
    "T4.1": _Statement(
        reads=("clique",), mode="min", values=lambda n: range(2, n),
        radius=lambda n, d, alpha, tol: spectral_radius(families.b_nd(n, d), alpha, tol=tol).radius,
        stated=lambda n, d, alpha: [families.b_nd(n, d)],
    ),
    "T5.3": _cut_statement("vertex_conn"),
    # the second maximiser, K_n minus one arc, is strongly connected from n = 3 on
    "R5.1": _Statement(
        reads=(_LEVEL,), mode="max", values=lambda n: range(1, 3) if n >= 3 else range(0),
        radius=lambda n, level, alpha, tol: (
            n - 1.0 if level == 1 else formulas.second_max_radius(n, alpha)
        ),
        stated=lambda n, level, alpha: [
            families.complete(n) if level == 1 else families.k_nkm(n, n - 2, 1)
        ],
    ),
    "T6.3": _cut_statement("arc_conn_tight"),
    "T6.4": _cut_statement("arc_conn"),
    "T6.5": _Statement(
        reads=("vertex_conn", "arc_conn"), mode="min", values=lambda n: range(1, n - 1),
        radius=lambda n, k, alpha, tol: float(k),
        stated=lambda n, k, alpha: [families.circulant(n, range(1, k + 1))],
        allowed=lambda G, k: all(G.out_degree(v) == k == G.in_degree(v) for v in range(G.n)),
        tol=1e-9,
    ),
}
ENUM_THEOREMS = tuple(_STATEMENTS)
FORMULA_THEOREMS = ("L3.1", "L4.1")
THEOREM_IDS = ENUM_THEOREMS + FORMULA_THEOREMS


def _extreme_at(
    stats: ScanStats, read: str, value: int, alpha: float, mode: str
) -> GroupExtreme | None:
    """The extreme a statement reads: a scan group, or a top radius level
    whose runner-up is the next level down."""
    if read != _LEVEL:
        return stats.group(read, value, alpha, mode)
    levels = stats.top_buckets(alpha)
    if value > len(levels):
        return None
    level = levels[value - 1]
    below = levels[value].value if value < len(levels) else None
    return GroupExtreme(level.value, level.codes, level.count, below)


def _attainers_fault(
    n: int,
    codes: Sequence[int],
    stated: Sequence[Digraph],
    allowed: Callable[[Digraph, int], bool] | None = None,
    value: int | None = None,
) -> tuple[str, Digraph] | None:
    """Why the attaining codes break the statement, with the digraph at
    fault, or None.  Every stated digraph must attain; every attaining code
    must be isomorphic to a stated digraph (have its canonical code) or,
    with allowed, pass allowed(G, value)."""
    attaining = canonical_codes(n, codes)
    stated_codes = canonical_codes(n, [code_of_digraph(s) for s in stated])
    for code, canon in zip(codes, attaining):
        g = digraph_from_code(n, code)
        ok = canon in stated_codes if allowed is None else allowed(g, value)
        if not ok:
            return f"code {code} attains but is not a digraph the statement allows", g
    for i, (s, canon) in enumerate(zip(stated, stated_codes)):
        if canon not in attaining:
            return f"stated digraph {i + 1} of {len(stated)} does not attain", s
    return None


def _scan_for(
    n: int,
    alphas: tuple[float, ...],
    needed: tuple[str, ...],
    scan: ScanStats | None,
    tol: float,
    workers: int,
) -> ScanStats:
    if scan is not None:
        if scan.n != n:
            raise ValueError(f"scan was built for n={scan.n}, need n={n}")
        for a in alphas:
            scan.alpha_index(a)
        missing = set(needed) - set(scan.parameters)
        if missing:
            raise ValueError(f"scan lacks parameters {sorted(missing)}")
        return scan
    return run_scan(n, alphas, needed, tol=tol, workers=workers)


def _verify_primed(
    theorem: str, n: int, alphas: tuple[float, ...], tol: float
) -> VerificationVerdict:
    """L3.1/L4.1: the primed family member has the strictly larger radius."""
    if not 3 <= n <= 12:
        raise ValueError(f"{theorem} supports 3 <= n <= 12, got {n}")
    family = families.c_ng if theorem == "L3.1" else families.b_nd
    # Strictness is decided on certified enclosures: the inequality holds
    # when the primed interval lies entirely above the unprimed one.  The
    # true gaps shrink towards 1e-10 at n = 12, so the enclosures are
    # tightened well past the default certificate width.
    strict_tol = min(tol, 1e-13)
    details: list[str] = []
    witnesses: list[Digraph] = []
    for alpha in alphas:
        min_sep = None
        arg = None
        for p in range(2, n):
            base = spectral_radius(family(n, p), alpha, tol=strict_tol)
            primed = spectral_radius(family(n, p, primed=True), alpha, tol=strict_tol)
            sep = primed.certificate_lo - base.certificate_hi
            if min_sep is None or sep < min_sep:
                min_sep, arg = sep, p
            if sep <= 0.0:
                details.append(
                    f"alpha={alpha}: parameter {p}: certified enclosures overlap "
                    f"(separation {sep:.3e}); strict increase not established"
                )
                witnesses.append(family(n, p, primed=True))
        if not witnesses and min_sep is not None:
            details.append(
                f"alpha={alpha}: primed radius certified strictly larger for "
                f"every parameter; smallest separation {min_sep:.3e} at parameter {arg}"
            )
    return VerificationVerdict(
        theorem, n, alphas, "violated" if witnesses else "confirmed",
        tuple(details), tuple(witnesses),
    )


def verify_theorem(
    theorem: str,
    n: int,
    alphas: Sequence[float] = (0.0, 0.5),
    scan: ScanStats | None = None,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> VerificationVerdict:
    """Check one extremal statement exhaustively (or by formula for L-ids).

    An enumeration statement is violated when some checked point breaks it,
    vacuous when it has no point to check at this n, and confirmed otherwise.
    """
    alphas = tuple(float(a) for a in alphas)
    if theorem in FORMULA_THEOREMS:
        return _verify_primed(theorem, n, alphas, tol)
    if theorem not in _STATEMENTS:
        raise ValueError(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    st = _STATEMENTS[theorem]
    needed = tuple(read for read in st.reads if read != _LEVEL)
    stats = _scan_for(n, alphas, needed, scan, tol, workers)
    points = [(a, read, v) for a in alphas for read in st.reads for v in st.values(n)]
    details: list[str] = []
    witnesses: list[Digraph] = []
    violated = False
    for alpha, read, v in points:
        where = f"alpha={alpha}, {read}={v}"
        ext = _extreme_at(stats, read, v, alpha, st.mode)
        want = None if ext is None else st.radius(n, v, alpha, tol)
        if want is not None and abs(ext.value - want) > st.tol:
            # an extreme beyond the stated radius is a counterexample
            beyond = ext.value < want if st.mode == "min" else ext.value > want
            fault = (
                f"scan {st.mode} {ext.value!r} != stated radius {want!r}",
                digraph_from_code(n, ext.codes[0]) if beyond else None,
            )
        else:
            codes = () if ext is None else ext.codes
            fault = _attainers_fault(n, codes, st.stated(n, v, alpha), st.allowed, v)
        if fault is None:
            gap = "" if ext.gap is None else f"; runner-up gap {ext.gap:.3e}"
            details.append(
                f"{where}: radius {ext.value:.12g}, {ext.count} attaining code(s), "
                f"all as stated{gap}"
            )
            continue
        violated = True
        details.append(f"{where}: {fault[0]}")
        if fault[1] is not None:
            witnesses.append(fault[1])
    status = "violated" if violated else ("confirmed" if points else "vacuous")
    return VerificationVerdict(theorem, n, alphas, status, tuple(details), tuple(witnesses))


# ---------------------------------------------------------------------------
# open-problem exploration and the subdivision sweep

@dataclass(frozen=True)
class Problem41Report:
    n: int
    rows: tuple[dict, ...]
    note: str = (
        "exploratory report on an open problem: rows compare the block "
        "construction against the enumerated maximum and assert nothing"
    )


def explore_problem_4_1(
    n: int,
    d: int | None = None,
    alphas: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    scan: ScanStats | None = None,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> Problem41Report:
    """Gap table: block-construction radius vs. scanned maximum per clique number.

    With d=None every clique number 1..n-1 is tabulated.
    """
    alphas = tuple(float(a) for a in alphas)
    if d is not None and not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d} at n={n}")
    stats = _scan_for(n, alphas, ("clique",), scan, tol, workers)
    rows = []
    for d_val in ([d] if d is not None else range(1, n)):
        for alpha in alphas:
            cand = families.g0(n, d_val, alpha)
            try:
                g0_radius = spectral_radius(cand, alpha, tol=tol).radius
            except NotStronglyConnected:
                g0_radius = spectral_radius_general(cand, alpha, tol=tol)
            ext = stats.group("clique", d_val, alpha, "max")
            if ext is None:
                rows.append(
                    {
                        "n": n, "d": d_val, "alpha": alpha, "g0_radius": g0_radius,
                        "scan_max": None, "gap": None, "classes_match": None,
                        "status": "empty",
                    }
                )
                continue
            gap = ext.value - g0_radius
            match = _attainers_fault(n, ext.codes, [cand]) is None
            rows.append(
                {
                    "n": n,
                    "d": d_val,
                    "alpha": alpha,
                    "g0_radius": g0_radius,
                    "scan_max": ext.value,
                    "gap": gap,
                    "classes_match": match,
                    "status": "agrees" if abs(gap) <= ATTAIN_TOL and match else "differs",
                }
            )
    return Problem41Report(n=n, rows=tuple(rows))


def subdivision_sweep(
    n: int,
    alphas: Sequence[float] = (0.0, 0.5),
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> dict:
    """Subdivide every arc of every strongly connected non-cycle digraph on n
    vertices and check the radius never increases (within 1e-9).  At most
    VIOLATION_CAP violations are listed per alpha."""
    if not 2 <= n <= 5:
        raise ValueError(f"the exhaustive subdivision sweep supports 2 <= n <= 5, got {n}")
    alphas = tuple(_check_alpha(a) for a in alphas)
    if len(set(alphas)) != len(alphas):
        raise ValueError("duplicate alpha values")
    t = _tables(n)
    total = 1 << t.nbits
    step = 1 << SUBDIVISION_CHUNK_BITS
    checked = 0
    violations: list[dict] = []
    listed = dict.fromkeys(alphas, 0)
    max_excess = -math.inf
    for lo in range(0, total, step):
        codes, adj, _rm, _cm = _decode_strong_chunk(n, lo, min(lo + step, total))
        if codes.size == 0:
            continue
        outdeg = adj.sum(axis=2).astype(np.int64)
        narcs = outdeg.sum(axis=1)
        not_cycle = ~((narcs == n) & (outdeg.max(axis=1) == 1))
        codes, adj = codes[not_cycle], adj[not_cycle]
        if codes.size == 0:
            continue
        base = adj.astype(np.float64)
        # one subdivided matrix per (digraph, arc)
        srcrow, uarr, varr = np.nonzero(adj)
        m = srcrow.size
        big = np.zeros((m, n + 1, n + 1), dtype=np.float64)
        big[:, :n, :n] = base[srcrow]
        rows_idx = np.arange(m)
        big[rows_idx, uarr, varr] = 0.0
        big[rows_idx, uarr, n] = 1.0
        big[rows_idx, n, varr] = 1.0
        for alpha in alphas:
            lam_base, _, _, _ = _certified_radii(
                _alpha_entries(base, alpha), tol, max_iters, alpha, lambda i: f"code {codes[i]}"
            )
            lam_sub, _, _, _ = _certified_radii(
                _alpha_entries(big, alpha), tol, max_iters, alpha,
                lambda i: f"code {codes[srcrow[i]]} subdivided at arc ({uarr[i]}, {varr[i]})",
            )
            excess = lam_sub - lam_base[srcrow]
            checked += m
            worst = float(excess.max())
            if worst > max_excess:
                max_excess = worst
            bad = np.flatnonzero(excess > 1e-9)[: VIOLATION_CAP - listed[alpha]]
            listed[alpha] += bad.size
            for idx in bad:
                violations.append(
                    {
                        "code": int(codes[srcrow[idx]]),
                        "arc": (int(uarr[idx]), int(varr[idx])),
                        "alpha": alpha,
                        "base": float(lam_base[srcrow[idx]]),
                        "subdivided": float(lam_sub[idx]),
                    }
                )
    return {
        "n": n,
        "alphas": alphas,
        "checked": checked,
        "violations": violations,
        "max_excess": max_excess,
    }
