"""Generators for the named digraph families.

All generators are deterministic and use fixed vertex numbering conventions:

* ``c_ng(n, g)``       -- cycle 0..g-1 plus a path through g..n-1 back to 0.
* ``b_nd(n, d)``       -- complete digraph on the last d vertices plus a
                          directed path through the n-d external vertices.
* ``k_nkm(n, k, m)``   -- blocks V1 = [0, m), S = [m, m+k), V2 = [m+k, n);
                          digons inside blocks and between S and the rest,
                          one-way arcs V1 -> V2.
* ``g0(n, d, alpha)``  -- d nearly equal parts, digons between parts,
                          an extremal tournament inside each part.
* ``h4(n, k, a)``      -- two complete blocks, all arcs from the second to the
                          first, and all arcs from a k-subset of the first to
                          a k-subset of the second.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable

import numpy as np

from .digraph import (
    CANON_CAP,
    Digraph,
    _bit_rows,
    _decode,
    _grow,
    digraph_from_code,
    from_arcs,
    join,
)
from .spectral import DEFAULT_TOL, _check_alpha, _component_enclosures

__all__ = [
    "path",
    "cycle",
    "complete",
    "c_ng",
    "b_nd",
    "k_nkm",
    "tournament",
    "g0",
    "h4",
    "circulant",
    "build_family",
]

FAMILIES = (
    "path", "cycle", "complete", "c_ng", "b_nd", "k_nkm", "tournament", "g0", "h4", "circulant",
)
TOURNAMENT_KINDS = ("transitive", "rotational", "brualdi_li", "extremal_bruteforce")
BRUTEFORCE_CAP = CANON_CAP  # n = 8: 6,880 classes, about 5 s and 100 MB


def path(n: int) -> Digraph:
    """Directed path 0 -> 1 -> ... -> n-1 (not strongly connected for n >= 2)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Digraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Digraph:
    if n < 2:
        raise ValueError(f"directed cycle needs n >= 2, got {n}")
    return Digraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Digraph:
    if n < 1:
        raise ValueError(f"complete digraph needs n >= 1, got {n}")
    return Digraph(n, frozenset((u, v) for u in range(n) for v in range(n) if u != v))


def c_ng(n: int, g: int, primed: bool = False) -> Digraph:
    """Cycle of length g with a path through the remaining vertices.

    Vertices 0..g-1 form the cycle; the path leaves the cycle at g-1, runs
    through g, g+1, ..., n-1 and re-enters at 0.  The primed variant re-enters
    at g-1 instead, closing a second short cycle.
    """
    if not 2 <= g <= n - 1:
        raise ValueError(f"need 2 <= g <= n-1, got g={g}, n={n}")
    arcs = [(i, i + 1) for i in range(g - 1)]
    arcs.append((g - 1, 0))
    arcs.extend((i, i + 1) for i in range(g - 1, n - 1))
    arcs.append((n - 1, g - 1) if primed else (n - 1, 0))
    return from_arcs(n, arcs)


def b_nd(n: int, d: int, primed: bool = False) -> Digraph:
    """Complete digraph on the last d vertices with an attached directed path.

    The path starts at clique vertex n-d, runs through the external vertices
    0..n-d-1 in order, and ends at clique vertex n-1.  The primed variant
    sends the last path arc back to the start vertex n-d instead.
    """
    if not 2 <= d <= n - 1:
        raise ValueError(f"need 2 <= d <= n-1, got d={d}, n={n}")
    start = n - d
    end = n - 1
    arcs = [
        (u, v)
        for u in range(n - d, n)
        for v in range(n - d, n)
        if u != v
    ]
    prev = start
    for x in range(n - d):
        arcs.append((prev, x))
        prev = x
    arcs.append((prev, start) if primed else (prev, end))
    return from_arcs(n, arcs)


def k_nkm(n: int, k: int, m: int) -> Digraph:
    """Complete split-like digraph with a k-vertex cut S.

    V1 (m vertices), S (k vertices) and V2 (n-k-m vertices) are each complete;
    S is joined by digons to everything; V1 sends one-way arcs to V2.
    """
    if k < 1 or m < 1 or n - k - m < 1:
        raise ValueError(f"need k >= 1, m >= 1 and n-k-m >= 1, got n={n}, k={k}, m={m}")
    v1 = range(0, m)
    s = range(m, m + k)
    v2 = range(m + k, n)
    arcs: list[tuple[int, int]] = []
    for block in (v1, s, v2):
        arcs.extend((u, v) for u in block for v in block if u != v)
    for u in s:
        for v in list(v1) + list(v2):
            arcs.append((u, v))
            arcs.append((v, u))
    arcs.extend((u, v) for u in v1 for v in v2)
    return from_arcs(n, arcs)


def _transitive(n: int) -> Digraph:
    return Digraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def _rotational(n: int) -> Digraph:
    if n % 2 == 0:
        raise ValueError(f"rotational tournament needs odd n, got {n}")
    half = (n - 1) // 2
    return Digraph(
        n, frozenset((i, (i + s) % n) for i in range(n) for s in range(1, half + 1))
    )


def _brualdi_li(n: int) -> Digraph:
    """Two transitive halves; upper-half vertex i beats lower-half vertex j iff i >= j."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"this tournament is defined for even n >= 2, got {n}")
    m = n // 2
    arcs = []
    for i in range(m):
        for j in range(i + 1, m):
            arcs.append((i, j))
            arcs.append((m + i, m + j))
    for i in range(m):
        for j in range(m):
            if i >= j:
                arcs.append((i, m + j))
            else:
                arcs.append((m + j, i))
    return from_arcs(n, arcs)


def _tournament_classes(n: int) -> np.ndarray:
    """Canonical codes, ascending, of the tournament classes on n vertices
    (OEIS A000568).  Each step adds a vertex that beats or loses to every
    old vertex; _grow keeps it only where it has least out-degree, since
    every vertex of a tournament has total degree n - 1."""
    classes = np.zeros(1, dtype=np.int64)  # the one tournament on one vertex
    for m in range(2, n + 1):
        beats = _bit_rows(m - 1)
        classes = _grow(m, classes, np.hstack([beats, 1 - beats]))
    return classes


def _extremal_tournament(n: int, alpha: float) -> Digraph:
    """The tournament class of largest A_alpha radius, reducible ones included.

    Every class's radius is enclosed from its strong components.  Of the
    classes whose enclosure reaches the largest lower end, the one of
    smallest canonical code, as that code's digraph."""
    alpha = _check_alpha(alpha)
    if n > BRUTEFORCE_CAP:
        raise ValueError(
            f"exhaustive tournament search is capped at n = {BRUTEFORCE_CAP} "
            f"(the largest order with canonical codes), got {n}"
        )
    classes = _tournament_classes(n)
    adj = _decode(n, classes)
    lo, hi = _component_enclosures(adj, alpha, DEFAULT_TOL)
    return digraph_from_code(n, int(classes[np.argmax(hi >= lo.max())]))


def tournament(kind: str, n: int, alpha: float | None = None) -> Digraph:
    """Named tournament generators plus the exhaustive extremal search."""
    if n < 1:
        raise ValueError(f"tournament needs n >= 1, got {n}")
    if kind == "transitive":
        return _transitive(n)
    if kind == "rotational":
        return _rotational(n)
    if kind == "brualdi_li":
        return _brualdi_li(n)
    if kind == "extremal_bruteforce":
        if alpha is None:
            alpha = 0.0
        return _extremal_tournament(n, float(alpha))
    raise ValueError(f"unknown tournament kind {kind!r}; expected one of {TOURNAMENT_KINDS}")


def g0(n: int, d: int, alpha: float) -> Digraph:
    """d nearly equal parts with all digons between parts and extremal
    tournaments inside parts.

    At alpha = 0 the inner tournament is rotational (odd part) or the
    two-transitive-halves tournament (even part); for alpha > 0 no closed-form
    winner is known, so each part runs the exhaustive search over tournament
    classes (part size <= 8; a part of 8 takes about 5 s), certified at
    the default tolerance and iteration cap.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    l, r = divmod(n, d)
    sizes = [l + 1] * r + [l] * (d - r)
    inner: dict[int, Digraph] = {}
    for size in set(sizes):
        if alpha == 0.0:
            inner[size] = _rotational(size) if size % 2 else _brualdi_li(size)
        else:
            inner[size] = _extremal_tournament(size, float(alpha))
    return reduce(join, (inner[size] for size in sizes))


def h4(n: int, k: int, a: int) -> Digraph:
    """Two complete blocks of sizes a and n-a; every arc from the second block
    back to the first; all k*k arcs from the first k vertices of block one to
    the first k vertices of block two."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not k + 2 <= a <= n - k - 2:
        raise ValueError(f"need k+2 <= a <= n-k-2, got n={n}, k={k}, a={a}")
    arcs = []
    for block in (range(0, a), range(a, n)):
        arcs.extend((u, v) for u in block for v in block if u != v)
    arcs.extend((y, x) for y in range(a, n) for x in range(0, a))
    arcs.extend((u, a + w) for u in range(k) for w in range(k))
    return from_arcs(n, arcs)


def circulant(n: int, steps: Iterable[int]) -> Digraph:
    """Arcs i -> i+s (mod n) for every step s; step 1 must be present."""
    steps = sorted(set(int(s) for s in steps))
    if n < 2:
        raise ValueError(f"circulant needs n >= 2, got {n}")
    if not steps:
        raise ValueError("steps must be nonempty")
    if any(not 1 <= s <= n - 1 for s in steps):
        raise ValueError(f"steps must lie in [1, n-1], got {steps}")
    if 1 not in steps:
        raise ValueError("step 1 is required so the digraph is strongly connected")
    return Digraph(n, frozenset((i, (i + s) % n) for i in range(n) for s in steps))


def build_family(name: str, **params) -> Digraph:
    """The family named in FAMILIES, built by the generator of that name."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    # looked up at call time, so a generator replaced on the module is the one called
    return globals()[name](**params)
