"""Exhaustive verification of the extremal statements at small order.

Every labeled digraph on n vertices is an integer code (digraph.code_of_digraph),
and an isomorphism class is named by its canonical code, the smallest code of
its members (digraph.canonical_codes).  The classes are generated one vertex
at a time (_grow), whose last step labels only the strongly connected
candidates and counts |Aut| where it takes each canonical code, and each
class becomes a row of a columnar table, filled in blocks up to n = 6:
canonical code, weight (n!/|Aut|, the number of its labelled codes), girth,
clique number, vertex and arc connectivity, minimum degree and out-degree
range, and certified radius per alpha.  Isomorphic digraphs share
all of these, so they are computed once per class.  All statistics are numpy
queries on that table, counted by weight; the labelled codes they list are
the orbits of their classes (digraph._orbits):

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
    _orbits,
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
    _alpha_entries,
    _check_alpha,
    _solve_block,
    _witnessed,
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

ENUM_CAP = 6
SWEEP_CAP = 5
# classes per block of _scan_table, rounded down to whole solve blocks of
# the kernel (at least one): 43,686 at n = 6, and every order up to 5 in one
_TABLE_BLOCK = 50_000
ATTAIN_TOL = 1e-8
VIOLATION_CAP = 50

SCAN_PARAMETERS = ("girth", "clique", "vertex_conn", "arc_conn", "arc_conn_tight")
PUBLIC_PARAMETERS = ("girth", "clique", "vertex_conn", "arc_conn")


# ---------------------------------------------------------------------------
# the strongly connected classes (codes and the growth step are in digraph.py)

def _classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The strongly connected classes on n >= 2 vertices: their canonical
    codes, ascending, and their weights n!/|Aut|, the number of labelled
    codes of each.  The classes are grown one vertex at a time, in this
    process, and the last step labels only its strongly connected
    candidates and counts |Aut| where it takes each canonical code, so
    nothing is relabelled here."""
    classes = np.zeros(1, dtype=np.int64)  # the one digraph on one vertex
    for m in range(2, n + 1):
        classes, automorphisms = _grow(m, classes, strong=m == n)
    return classes, math.factorial(n) // automorphisms


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
        return tuple(_orbits(self.n, self.classes)[0].tolist())

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


def _scan_table(
    n: int, codes: np.ndarray, weights: np.ndarray, alphas: tuple[float, ...],
    parameters: tuple[str, ...], tol: float,
) -> tuple[np.ndarray, float, int]:
    """One table row per class, in class order: its canonical code, its
    weight, invariants and radii; the widest certificate and the most
    iterations among them.  The four parameter columns are filled together
    by one pass over vertex subsets (_subset_invariants) when any parameter
    is requested, and stay 0 when none is.

    The classes are decoded, measured and certified in blocks of a whole
    number of the kernel's solve blocks, about _TABLE_BLOCK classes, so
    every radius is bit for bit what one kernel call over all of them
    gives."""
    rows = np.zeros(codes.size, dtype=_row_dtype(len(alphas)))
    rows["code"] = codes
    rows["weight"] = weights
    solve_block = _solve_block(n)
    step = max(1, _TABLE_BLOCK // solve_block) * solve_block
    width, iterations = 0.0, 0
    for s in range(0, codes.size, step):
        block = rows[s:s + step]
        adj = _decode(n, codes[s:s + step])
        outdeg = adj.sum(axis=2)
        min_out = outdeg.min(axis=1)
        block["min_out"] = min_out
        block["max_out"] = outdeg.max(axis=1)
        block["delta0"] = np.minimum(min_out, adj.sum(axis=1).min(axis=1))
        if parameters:
            block["girth"], block["clique"], block["vertex_conn"], block["arc_conn"] = (
                _subset_invariants(n, codes[s:s + step])
            )
        # certified radii, batched per alpha; a failure names its code
        for ai, alpha in enumerate(alphas):
            with _witnessed(lambda i: f"code {codes[s + i]}", alpha):
                lam, lo_c, hi_c, iters = batch_cw_radius(_alpha_entries(adj, alpha), tol=tol)
            block["radius"][:, ai] = lam
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
        codes, classes = _orbits(n, table["code"][bad_rows])
        keep = slice(VIOLATION_CAP - len(violations))
        rows = bad_rows[classes[keep]]  # a listed code's radius is its class's
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
    """alphas as a tuple, once every alpha is checked, none repeats and
    there is at least one: a check over no alpha would confirm nothing."""
    alphas = tuple(_check_alpha(a) for a in alphas)
    if not alphas:
        raise ValueError("empty alpha grid")
    if len(set(alphas)) != len(alphas):
        raise ValueError("duplicate alpha values")
    return alphas


def _scan_alphas(n: int, alphas: Sequence[float]) -> tuple[float, ...]:
    """alphas as a tuple, once n and every alpha are checked for a scan or sweep."""
    if n == ENUM_CAP + 1:
        raise ValueError(
            f"n = {n} cannot be scanned: its last growth step would label the "
            "candidates of 1,540,944 six-vertex classes x 4,096 rows"
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
    to.  The scan runs in this process.  workers is kept only because
    perfbench/workloads.py passes workers=1 by name; any other value
    raises ValueError.
    """
    if workers != 1:
        raise ValueError(f"scans run in one process; workers must be 1, got {workers}")
    alphas = _scan_alphas(n, alphas)
    parameters = tuple(parameters)
    unknown = set(parameters) - set(SCAN_PARAMETERS)
    if unknown:
        raise ValueError(f"unknown scan parameters {sorted(unknown)}")
    codes, weights = _classes(n)
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
) -> ExtremalReport:
    """Extremal radii per parameter value, with one representative per
    attaining isomorphism class, in its canonical labelling."""
    if parameter not in PUBLIC_PARAMETERS:
        raise ValueError(f"parameter must be one of {PUBLIC_PARAMETERS}, got {parameter!r}")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    scan = _scan_for(n, (alpha,), (parameter,), scan, tol)
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
    where certify(family, n, v, alpha) is the certified radius of family(n, v),
    a failure named by that member and alpha; every digraph in
    stated(n, v, alpha) attains it; and every attaining digraph is
    isomorphic to one of them or, when allowed is set, passes
    allowed(G, v)."""

    reads: tuple[str, ...]
    mode: str
    values: Callable[[int], range]
    radius: Callable[[int, int, float, Callable[..., float]], float]
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
        radius=lambda n, g, alpha, certify: certify(families.c_ng, n, g, alpha),
        stated=lambda n, g, alpha: [families.c_ng(n, g)],
    ),
    "T4.1": _Statement(
        reads=("clique",), mode="min", values=lambda n: range(2, n),
        radius=lambda n, d, alpha, certify: certify(families.b_nd, n, d, alpha),
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
    stated: Sequence[tuple[Digraph, int]],
    allowed: Callable[[Digraph, int], bool] | None = None,
    value: int | None = None,
) -> tuple[str, Digraph] | None:
    """Why the attaining classes, given by ascending canonical codes, break
    the statement, with the digraph at fault, or None.  stated holds each
    stated digraph with its canonical code (_stated_codes).  Every stated
    digraph must attain; every attaining class must be a stated digraph's
    or, with allowed, pass allowed(G, value), an isomorphism invariant that
    is tested on the class's canonical labelling.  A class's canonical code
    is its smallest labelled code, so the first class at fault holds the
    smallest labelled code at fault."""
    stated_codes = [canon for _, canon in stated]
    for code in classes:
        g = digraph_from_code(n, code)
        ok = code in stated_codes if allowed is None else allowed(g, value)
        if not ok:
            return f"code {code} attains but is not a digraph the statement allows", g
    for i, (s, canon) in enumerate(stated):
        if canon not in classes:
            return f"stated digraph {i + 1} of {len(stated)} does not attain", s
    return None


def _stated_codes(
    n: int, groups: Sequence[Sequence[Digraph]]
) -> list[list[tuple[Digraph, int]]]:
    """Each group of digraphs on n vertices as (digraph, canonical code)
    pairs, the codes taken in one canonical_codes call for all groups."""
    flat = [g for group in groups for g in group]
    codes = iter(canonical_codes(n, [code_of_digraph(g) for g in flat]).tolist())
    return [[(g, next(codes)) for g in group] for group in groups]


def _scan_for(
    n: int,
    alphas: tuple[float, ...],
    needed: tuple[str, ...],
    scan: ScanStats | None,
    tol: float,
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
    return run_scan(n, alphas, needed, tol=tol)


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
            with _witnessed(f"{family.__name__}({n}, {p})", alpha):
                base = spectral_radius(family(n, p), alpha, tol=strict_tol)
            with _witnessed(f"{family.__name__}({n}, {p}, primed=True)", alpha):
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
) -> VerificationVerdict:
    """Check one extremal statement exhaustively (or by formula for L-ids).

    An enumeration statement is violated when some checked point breaks it,
    vacuous when it has no point to check at this n, and confirmed otherwise.
    """
    alphas = tuple(float(a) for a in alphas)
    if theorem in FORMULA_THEOREMS:
        if scan is not None:
            raise ValueError(f"{theorem} compares family members and reads no scan")
        return _verify_primed(theorem, n, alphas, tol)
    if theorem not in _STATEMENTS:
        raise ValueError(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    st = _STATEMENTS[theorem]
    needed = tuple(read for read in st.reads if read != _LEVEL)
    stats = _scan_for(n, alphas, needed, scan, tol)

    def certify(family: Callable[[int, int], Digraph], n: int, v: int, alpha: float) -> float:
        with _witnessed(f"{family.__name__}({n}, {v})", alpha):
            return spectral_radius(family(n, v), alpha, tol=tol).radius

    points = [(a, read, v) for a in alphas for read in st.reads for v in st.values(n)]
    stated = _stated_codes(n, [st.stated(n, v, alpha) for alpha, _, v in points])
    details: list[str] = []
    witnesses: list[Digraph] = []
    violated = False
    for (alpha, read, v), attainers in zip(points, stated):
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
            fault = _attainers_fault(n, classes, attainers, st.allowed, v)
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
) -> Problem41Report:
    """Gap table: block-construction radius vs. scanned maximum per clique number.

    With d=None every clique number 1..n-1 is tabulated.  A row's status is
    "agrees" (g0's class attains the scan maximum, perhaps tied with other
    classes; classes_match says whether it is the only one), "differs",
    "empty" (no scanned digraph has that clique number) or "not strong": g0
    is not strongly connected, while the scan maximum ranges over strong
    digraphs only.
    """
    alphas = tuple(float(a) for a in alphas)
    if d is not None and not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d} at n={n}")
    stats = _scan_for(n, alphas, ("clique",), scan, tol)
    values = [d] if d is not None else range(1, n)
    points = [(d_val, alpha) for d_val in values for alpha in alphas]
    stated = _stated_codes(n, [[families.g0(n, d_val, alpha)] for d_val, alpha in points])
    rows = []
    for (d_val, alpha), [(cand, canon)] in zip(points, stated):
        # g0 need not be strong (at d = 1 and alpha >= 1/2 it is the
        # transitive tournament), so its radius comes block by block
        with _witnessed(f"g0({n}, {d_val})", alpha):
            g0_radius = spectral_radius_general(cand, alpha, tol=tol)
        row = {
            "n": n, "d": d_val, "alpha": alpha, "g0_radius": g0_radius,
            "scan_max": None, "gap": None, "classes_match": None, "status": "empty",
        }
        ext = stats.group("clique", d_val, alpha, "max")
        if ext is not None:
            gap = ext.value - row["g0_radius"]
            match = ext.classes == (canon,)
            if not cand.strongly_connected:
                # the scan maximum ranges over strong digraphs only
                status = "not strong"
            elif abs(gap) <= ATTAIN_TOL and canon in ext.classes:
                status = "agrees"
            else:
                status = "differs"
            row.update(scan_max=ext.value, gap=gap, classes_match=match, status=status)
        rows.append(row)
    return Problem41Report(n=n, rows=tuple(rows))


def subdivision_sweep(
    n: int,
    alphas: Sequence[float] = (0.0, 0.5),
    tol: float = DEFAULT_TOL,
) -> dict:
    """Subdivide every arc of every strongly connected non-cycle digraph on n
    <= SWEEP_CAP vertices and check the radius never increases (within 1e-9).

    Every labelled (digraph, arc) pair is isomorphic to a pair of a class
    representative and one of its arcs, so the sweep runs on those pairs and
    stays exhaustive.  The classes, their weights and base radii are the scan
    table's rows (the cycle is the row with max_out == 1); "checked" counts
    the labelled pairs by class weight, and violations name the
    representative's code.  At most VIOLATION_CAP violations are listed per
    alpha."""
    if n == SWEEP_CAP + 1:
        raise ValueError(
            f"n = {n} cannot be swept: its 16,699,394 (representative, arc) pairs "
            "would be one 6.5 GB stack of subdivided matrices"
        )
    alphas = _scan_alphas(n, alphas)
    table, _, _ = _scan_table(n, *_classes(n), alphas, (), tol)
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
        with _witnessed(
            lambda i: f"code {codes[srcrow[i]]} subdivided at arc ({uarr[i]}, {varr[i]})", alpha
        ):
            lam_sub = batch_cw_radius(_alpha_entries(big, alpha), tol=tol)[0]
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
