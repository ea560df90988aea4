"""Exhaustive verification of the extremal statements at small order.

Every labeled digraph on n vertices is an integer code (digraph.code_of_digraph),
and an isomorphism class is named by its canonical code, the smallest code of
its members (digraph.canonical_codes).  The classes are generated one vertex
at a time (_grow), and each strongly connected one becomes a row of a
columnar table: canonical code, weight (n!/|Aut|, the number of its labelled
codes), girth, clique number, vertex and arc connectivity, minimum degree and
out-degree range, and certified radius per alpha.  Isomorphic digraphs share
all of these, so they are computed once per class.  All statistics are numpy
queries on that table, counted by weight; the labelled codes they list are
the orbits of their classes:

* for each parameter value (girth, clique number, vertex or arc connectivity)
  the minimum and maximum radius per alpha, the classes within 1e-8 of the
  extremum, and the runner-up value beyond that band;
* the three largest radius levels per alpha (for second-maximum statements);
* spectral bound violations (row-sum sandwich, cycle/complete equalities,
  strict alpha * max-out-degree lower bound).

The subdivision sweep reads its classes, weights and base radii from the
same table, and certifies only its subdivided (representative, arc) stack.

The seven enumeration statements are one table, _STATEMENTS: per statement
the scan columns it reads (R5.1 reads the top radius levels), min or max, the
parameter range, the stated radius and its tolerance, the digraphs that must
attain it and those that may.  verify_theorem checks every entry the same way;
L3.1/L4.1 compare certified enclosures of two family members instead.

An attaining set is a set of isomorphism classes, and _extreme alone decides
which classes attain: a GroupExtreme lists their canonical codes; its labelled
codes are their orbits, expanded when read.  extremal_scan's representatives,
the statements' verdicts and explore_problem_4_1's class match read the classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import families, formulas
from .digraph import (
    Digraph,
    _decode,
    _grow,
    _reachability,
    _relabellings,
    _subset_invariants,
    canonical_codes,
    code_of_digraph,
    digraph_from_code,
    # unused here, kept because perfbench/tracing.py wraps oracle.is_isomorphic
    # by name: without it every traced benchmark run would fail
    is_isomorphic,  # noqa: F401
)
from .spectral import (
    DEFAULT_TOL,
    ConvergenceError,
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

ENUM_CAP = 5
ATTAIN_TOL = 1e-8
VIOLATION_CAP = 50

SCAN_PARAMETERS = ("girth", "clique", "vertex_conn", "arc_conn", "arc_conn_tight")
PUBLIC_PARAMETERS = ("girth", "clique", "vertex_conn", "arc_conn")


# ---------------------------------------------------------------------------
# the strongly connected classes (codes and the growth step are in digraph.py)

def _classes(n: int, workers: int) -> tuple[np.ndarray, np.ndarray]:
    """The strongly connected classes on n vertices: their canonical codes,
    ascending, and their weights n!/|Aut|, the number of labelled codes of
    each.  With workers > 1 the last growth step runs on blocks of the
    (n-1)-vertex classes in a process pool.  Strong connectivity is read
    from the batched reachability closure."""
    classes = np.zeros(1, dtype=np.int64)  # the one digraph on one vertex
    for m in range(2, n):
        classes = _grow(m, classes)
    if workers <= 1:
        classes = _grow(n, classes)
    else:
        import multiprocessing as mp

        with mp.Pool(processes=workers) as pool:
            blocks = pool.starmap(_grow, [(n, b) for b in np.array_split(classes, workers)])
        classes = np.unique(np.concatenate(blocks))
    reps = classes[_reachability(_decode(n, classes)).all(axis=(1, 2))]
    automorphisms = (_relabellings(n, reps) == reps[:, None]).sum(axis=1)
    return reps, math.factorial(n) // automorphisms


# ---------------------------------------------------------------------------
# the scan table and the statistics derived from it

@dataclass(frozen=True)
class GroupExtreme:
    n: int
    value: float
    classes: tuple[int, ...]  # the canonical codes of the attaining classes, ascending
    count: int
    runner_up: float | None

    # cached in __dict__ on first read; equality and hashing read the fields only
    @cached_property
    def codes(self) -> tuple[int, ...]:
        """The labelled codes of the attaining classes, ascending: the union
        of their orbits, expanded when first read."""
        return tuple(np.unique(_relabellings(self.n, self.classes)).tolist())

    @property
    def gap(self) -> float | None:
        if self.runner_up is None:
            return None
        return abs(self.runner_up - self.value)


# Invariant columns of the scan table.  In a strongly connected digraph every
# out-degree is at least 1, so "is a cycle" is max_out == 1 and "is complete"
# is min_out == n - 1.
_INVARIANTS = ("girth", "clique", "vertex_conn", "arc_conn", "delta0", "min_out", "max_out")


def _row_dtype(nalphas: int) -> np.dtype:
    """One packed record per isomorphism class: 8 + 7 + 8 * nalphas bytes."""
    return np.dtype(
        [("code", np.int32), ("weight", np.int32)]
        + [(name, np.int8) for name in _INVARIANTS]
        + [("radius", np.float64, (nalphas,))]
    )


def _certified_radii(mats: np.ndarray, tol: float, alpha: float, witness):
    """batch_cw_radius, naming the matrix that did not converge by witness(index)."""
    try:
        return batch_cw_radius(mats, tol=tol)
    except ConvergenceError as err:
        raise ConvergenceError(
            err.lo, err.hi, err.iterations, err.index,
            witness=f"{witness(err.index)} at alpha {alpha}", floor=err.floor, tol=err.tol,
        ) from err


def _scan_table(
    n: int, codes: np.ndarray, weights: np.ndarray, alphas: tuple[float, ...],
    parameters: tuple[str, ...], tol: float,
) -> tuple[np.ndarray, float, int]:
    """One table row per class, in class order: its canonical code, its
    weight, invariants and radii; the widest certificate and the most
    iterations among them.  The four parameter columns are filled together
    by one pass over vertex subsets (_subset_invariants) when any parameter
    is requested, and stay 0 when none is."""
    adj = _decode(n, codes)
    rows = np.zeros(codes.size, dtype=_row_dtype(len(alphas)))
    rows["code"] = codes
    rows["weight"] = weights
    outdeg = adj.sum(axis=2)
    min_out = outdeg.min(axis=1)
    rows["min_out"] = min_out
    rows["max_out"] = outdeg.max(axis=1)
    rows["delta0"] = np.minimum(min_out, adj.sum(axis=1).min(axis=1))
    if parameters:
        rows["girth"], rows["clique"], rows["vertex_conn"], rows["arc_conn"] = (
            _subset_invariants(adj)
        )

    # certified radii, batched per alpha
    width, iterations = 0.0, 0
    for ai, alpha in enumerate(alphas):
        lam, lo_c, hi_c, iters = _certified_radii(
            _alpha_entries(adj, alpha), tol, alpha, lambda i: f"code {codes[i]}"
        )
        rows["radius"][:, ai] = lam
        width = max(width, float((hi_c - lo_c).max()))
        iterations = max(iterations, int(iters.max()))
    return rows, width, iterations


def _extreme(
    n: int, vals: np.ndarray, sel: np.ndarray, table: np.ndarray, mode: str
) -> GroupExtreme:
    """Best value over the selected table rows, the classes within
    ATTAIN_TOL of it, and the best value outside that band.  Max mode is min
    mode on negated values."""
    sign = 1.0 if mode == "min" else -1.0
    signed = np.where(sel, sign * vals, np.inf)
    best = signed.min()
    inside = signed <= best + ATTAIN_TOL
    outside = signed[sel & ~inside]
    attaining = table[inside]
    return GroupExtreme(
        n=n,
        value=sign * float(best),
        classes=tuple(attaining["code"].tolist()),
        count=int(attaining["weight"].sum()),
        runner_up=sign * float(outside.min()) if outside.size else None,
    )


def _group_extremes(n: int, table: np.ndarray, nalphas: int, parameters: tuple[str, ...]) -> dict:
    """{(parameter, value): [{"min": GroupExtreme, "max": GroupExtreme}] per alpha}.

    arc_conn_tight groups the arc connectivity of the rows where it equals
    the minimum degree delta0."""
    radius = table["radius"]
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
            groups[(param, value)] = [
                {mode: _extreme(n, radius[:, ai], sel, table, mode) for mode in ("min", "max")}
                for ai in range(nalphas)
            ]
    return dict(sorted(groups.items()))


def _top_levels(n: int, vals: np.ndarray, table: np.ndarray) -> list[GroupExtreme]:
    """The three largest radius levels: each is the maximum over the classes
    not in an earlier level, so its runner-up is the next level down."""
    left = np.ones(vals.size, dtype=bool)
    levels: list[GroupExtreme] = []
    while left.any() and len(levels) < 3:
        levels.append(_extreme(n, vals, left, table, "max"))
        left &= ~np.isin(table["code"], levels[-1].classes)
    return levels


def _bound_report(n: int, alpha: float, table: np.ndarray, lam: np.ndarray) -> dict:
    """Spectral bound checks on every class; "checked" counts labelled codes.
    At most VIOLATION_CAP violations are listed, check by check, each check's
    labelled codes (the orbits of its violating classes) in code order."""
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
        bad_rows = np.flatnonzero(bad)
        if len(violations) == VIOLATION_CAP or not bad_rows.size:
            continue
        relabelled = _relabellings(n, table["code"][bad_rows])
        codes, first = np.unique(relabelled, return_index=True)
        keep = slice(VIOLATION_CAP - len(violations))
        # a listed code's class is the table row its relabelling came from
        rows = bad_rows[first[keep] // relabelled.shape[1]]
        violations += [
            {"check": name, "code": code, "radius": float(lam[row])}
            for code, row in zip(codes[keep].tolist(), rows)
        ]
    return {"checked": int(table["weight"].sum()), "violations": violations}


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
        if alpha in self.alphas:  # exact, as _distinct_alphas compares them
            return self.alphas.index(alpha)
        raise KeyError(f"alpha {alpha} was not part of this scan (have {self.alphas})")

    def group(self, parameter: str, value: int, alpha: float, mode: str) -> GroupExtreme | None:
        ai = self.alpha_index(alpha)
        per_alpha = self.groups.get((parameter, int(value)))
        return None if per_alpha is None else per_alpha[ai][mode]

    def group_values(self, parameter: str) -> list[int]:
        return sorted(v for (p, v) in self.groups if p == parameter)

    def top_buckets(self, alpha: float) -> list[GroupExtreme]:
        return self.top[self.alpha_index(alpha)]

    def bound_report(self, alpha: float) -> dict:
        return self.bounds[self.alpha_index(alpha)]


def _distinct_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    """alphas as a tuple, once every alpha is checked and none repeats."""
    alphas = tuple(_check_alpha(a) for a in alphas)
    if len(set(alphas)) != len(alphas):
        raise ValueError("duplicate alpha values")
    return alphas


def _scan_alphas(n: int, alphas: Sequence[float]) -> tuple[float, ...]:
    """alphas as a tuple, once n and every alpha are checked for a scan or sweep."""
    if n == ENUM_CAP + 1:
        raise ValueError(
            f"n = {n} cannot be scanned: the class generation runs unblocked, and "
            "weighing the 1,047,008 strong classes takes all 720 relabellings of "
            "each, 6 GB of codes"
        )
    if not 2 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration supports 2 <= n <= {ENUM_CAP}, got {n}")
    return _distinct_alphas(alphas)


def run_scan(
    n: int,
    alphas: Sequence[float],
    parameters: Sequence[str] = SCAN_PARAMETERS,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> ScanStats:
    """Scan every strongly connected digraph on n vertices.

    Returns per-parameter extremal statistics for every requested alpha.
    The isomorphism classes are generated (_classes), and invariants and
    radii are computed once per class; counts are weight sums, and listed
    labelled codes are expanded from the orbits of the classes they belong
    to.  With workers > 1 the last generation step runs in a process pool;
    the result is identical to the serial one.
    """
    alphas = _scan_alphas(n, alphas)
    parameters = tuple(parameters)
    unknown = set(parameters) - set(SCAN_PARAMETERS)
    if unknown:
        raise ValueError(f"unknown scan parameters {sorted(unknown)}")
    codes, weights = _classes(n, workers)
    table, width, iterations = _scan_table(n, codes, weights, alphas, parameters, tol)
    radius = table["radius"]
    return ScanStats(
        n=n,
        alphas=alphas,
        parameters=parameters,
        tol=tol,
        total_codes=1 << (n * (n - 1)),
        strong_count=int(table["weight"].sum()),
        groups=_group_extremes(n, table, len(alphas), parameters),
        top={ai: _top_levels(n, radius[:, ai], table) for ai in range(len(alphas))},
        bounds={
            ai: _bound_report(n, alpha, table, radius[:, ai])
            for ai, alpha in enumerate(alphas)
        },
        max_certificate_width=width,
        max_iterations=iterations,
    )


# ---------------------------------------------------------------------------
# extremal reports


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
    """Extremal radii per parameter value, with one representative per
    attaining isomorphism class, in its canonical labelling."""
    if parameter not in PUBLIC_PARAMETERS:
        raise ValueError(f"parameter must be one of {PUBLIC_PARAMETERS}, got {parameter!r}")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    scan = _scan_for(n, (alpha,), (parameter,), scan, tol, workers)
    entries = []
    for value in scan.group_values(parameter):
        ext = scan.group(parameter, value, alpha, mode)
        entries.append(
            ExtremalGroup(
                parameter_value=value,
                radius=ext.value,
                attaining_count=ext.count,
                class_count=len(ext.classes),
                representatives=tuple(digraph_from_code(n, c) for c in ext.classes),
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
    digraphs with that value is radius(n, v, alpha, certify) within tol,
    where certify(G, alpha) is G's certified radius; every digraph in
    stated(n, v, alpha) attains it; and every attaining digraph is
    isomorphic to one of them or, when allowed is set, passes
    allowed(G, v)."""

    reads: tuple[str, ...]
    mode: str
    values: Callable[[int], range]
    radius: Callable[[int, int, float, Callable[[Digraph, float], float]], float]
    stated: Callable[[int, int, float], list[Digraph]]
    allowed: Callable[[Digraph, int], bool] | None = None
    tol: float = ATTAIN_TOL


def _cut_statement(read: str) -> _Statement:
    """For 1 <= k <= n-2 the maximum radius is the closed form, attained by
    K(n, k, n-k-1) and, at alpha = 0 only, also by K(n, k, 1)."""
    return _Statement(
        reads=(read,), mode="max", values=lambda n: range(1, n - 1),
        radius=lambda n, k, alpha, certify: formulas.max_vertex_conn_radius(n, k, alpha),
        stated=lambda n, k, alpha: [
            families.k_nkm(n, k, m) for m in ((1, n - k - 1) if alpha == 0.0 else (n - k - 1,))
        ],
    )


_STATEMENTS = {
    "T3.1": _Statement(
        reads=("girth",), mode="min", values=lambda n: range(2, n),
        radius=lambda n, g, alpha, certify: certify(families.c_ng(n, g), alpha),
        stated=lambda n, g, alpha: [families.c_ng(n, g)],
    ),
    "T4.1": _Statement(
        reads=("clique",), mode="min", values=lambda n: range(2, n),
        radius=lambda n, d, alpha, certify: certify(families.b_nd(n, d), alpha),
        stated=lambda n, d, alpha: [families.b_nd(n, d)],
    ),
    "T5.3": _cut_statement("vertex_conn"),
    # the second maximiser, K_n minus one arc, is strongly connected from n = 3 on
    "R5.1": _Statement(
        reads=(_LEVEL,), mode="max", values=lambda n: range(1, 3) if n >= 3 else range(0),
        radius=lambda n, level, alpha, certify: (
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
        radius=lambda n, k, alpha, certify: float(k),
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
    """The extreme a statement reads: a scan group, or top radius level
    value (1 the top)."""
    if read != _LEVEL:
        return stats.group(read, value, alpha, mode)
    levels = stats.top_buckets(alpha)
    return levels[value - 1] if value <= len(levels) else None


def _attainers_fault(
    n: int,
    classes: Sequence[int],
    stated: Sequence[Digraph],
    allowed: Callable[[Digraph, int], bool] | None = None,
    value: int | None = None,
) -> tuple[str, Digraph] | None:
    """Why the attaining classes, given by ascending canonical codes, break
    the statement, with the digraph at fault, or None.  Every stated digraph
    must attain; every attaining class must be a stated digraph's or, with
    allowed, pass allowed(G, value), an isomorphism invariant that is tested
    on the class's canonical labelling.  A class's canonical code is its
    smallest labelled code, so the first class at fault holds the smallest
    labelled code at fault."""
    stated_codes = canonical_codes(n, [code_of_digraph(s) for s in stated]).tolist()
    for code in classes:
        g = digraph_from_code(n, code)
        ok = code in stated_codes if allowed is None else allowed(g, value)
        if not ok:
            return f"code {code} attains but is not a digraph the statement allows", g
    for i, (s, canon) in enumerate(zip(stated, stated_codes)):
        if canon not in classes:
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
    alphas = _distinct_alphas(alphas)
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
    theorem: str, n: int, alphas: Sequence[float], tol: float
) -> VerificationVerdict:
    """L3.1/L4.1: the primed family member has the strictly larger radius."""
    if not 3 <= n <= 12:
        raise ValueError(f"{theorem} supports 3 <= n <= 12, got {n}")
    alphas = _distinct_alphas(alphas)
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

    def certify(G: Digraph, alpha: float) -> float:
        return spectral_radius(G, alpha, tol=tol).radius

    points = [(a, read, v) for a in alphas for read in st.reads for v in st.values(n)]
    details: list[str] = []
    witnesses: list[Digraph] = []
    violated = False
    for alpha, read, v in points:
        where = f"alpha={alpha}, {read}={v}"
        ext = _extreme_at(stats, read, v, alpha, st.mode)
        want = None if ext is None else st.radius(n, v, alpha, certify)
        if want is not None and abs(ext.value - want) > st.tol:
            # an extreme beyond the stated radius is a counterexample
            beyond = ext.value < want if st.mode == "min" else ext.value > want
            fault = (
                f"scan {st.mode} {ext.value!r} != stated radius {want!r}",
                digraph_from_code(n, ext.classes[0]) if beyond else None,
            )
        else:
            classes = () if ext is None else ext.classes
            fault = _attainers_fault(n, classes, st.stated(n, v, alpha), st.allowed, v)
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
            # a strong g0 is its own one block, so this is its certified radius
            row = {
                "n": n, "d": d_val, "alpha": alpha,
                "g0_radius": spectral_radius_general(cand, alpha, tol=tol),
                "scan_max": None, "gap": None, "classes_match": None, "status": "empty",
            }
            ext = stats.group("clique", d_val, alpha, "max")
            if ext is not None:
                gap = ext.value - row["g0_radius"]
                match = _attainers_fault(n, ext.classes, [cand]) is None
                row.update(
                    scan_max=ext.value, gap=gap, classes_match=match,
                    status="agrees" if abs(gap) <= ATTAIN_TOL and match else "differs",
                )
            rows.append(row)
    return Problem41Report(n=n, rows=tuple(rows))


def subdivision_sweep(
    n: int,
    alphas: Sequence[float] = (0.0, 0.5),
    tol: float = DEFAULT_TOL,
) -> dict:
    """Subdivide every arc of every strongly connected non-cycle digraph on n
    vertices and check the radius never increases (within 1e-9).

    Every labelled (digraph, arc) pair is isomorphic to a pair of a class
    representative and one of its arcs, so the sweep runs on those pairs and
    stays exhaustive.  The classes, their weights and base radii are the scan
    table's rows (the cycle is the row with max_out == 1); "checked" counts
    the labelled pairs by class weight, and violations name the
    representative's code.  At most VIOLATION_CAP violations are listed per
    alpha."""
    alphas = _scan_alphas(n, alphas)
    table, _, _ = _scan_table(n, *_classes(n, workers=1), alphas, (), tol)
    table = table[table["max_out"] > 1]
    codes, weights, base = table["code"], table["weight"], table["radius"]
    # one subdivided matrix per (representative, arc)
    adj = _decode(n, codes)
    srcrow, uarr, varr = np.nonzero(adj)
    pairs = np.arange(srcrow.size)
    big = np.zeros((srcrow.size, n + 1, n + 1), dtype=np.uint8)
    big[:, :n, :n] = adj[srcrow]
    big[pairs, uarr, varr] = 0
    big[pairs, uarr, n] = 1
    big[pairs, n, varr] = 1
    checked = 0
    violations: list[dict] = []
    max_excess = -math.inf
    for ai, alpha in enumerate(alphas):
        lam_sub, _, _, _ = _certified_radii(
            _alpha_entries(big, alpha), tol, alpha,
            lambda i: f"code {codes[srcrow[i]]} subdivided at arc ({uarr[i]}, {varr[i]})",
        )
        lam_base = base[srcrow, ai]
        excess = lam_sub - lam_base
        checked += int(weights[srcrow].sum())
        max_excess = max(max_excess, float(excess.max(initial=-math.inf)))
        for idx in np.flatnonzero(excess > 1e-9)[:VIOLATION_CAP]:
            violations.append(
                {
                    "code": int(codes[srcrow[idx]]),
                    "arc": (int(uarr[idx]), int(varr[idx])),
                    "alpha": alpha,
                    "base": float(lam_base[idx]),
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
