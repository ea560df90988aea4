"""Finite simple digraphs on vertex set {0, ..., n-1}.

Loops are forbidden, antiparallel pairs (digons) are allowed.  The adjacency
structure is kept both as a frozenset of arcs (the identity of the digraph)
and as per-vertex neighbour bitmasks, which the routines on one digraph run
on; routines on stacks of digraphs take 1-d arrays of integer codes, one
bit per off-diagonal cell.  A canonical code (n <= 8) is the identity of
an isomorphism class.  One closure on out-neighbour masks,
_strongly_connected, answers every strong-connectivity question.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Digraph",
    "DegreeProfile",
    "NotStronglyConnected",
    "from_arcs",
    "is_strongly_connected",
    "girth",
    "clique_number",
    "vertex_connectivity",
    "arc_connectivity",
    "degree_profile",
    "join",
    "union",
    "induced",
    "is_isomorphic",
    "digraph_from_code",
    "code_of_digraph",
    "canonical_codes",
    "from_text",
    "to_text",
]


class NotStronglyConnected(ValueError):
    """Raised when an operation needs strong connectivity and the input lacks it."""


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: frozenset[tuple[int, int]]

    # cached_property writes straight into __dict__, which a frozen dataclass allows
    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for u, v in self.arcs:
            rows[u] |= 1 << v
        return tuple(rows)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        cols = [0] * self.n
        for u, v in self.arcs:
            cols[v] |= 1 << u
        return tuple(cols)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The float adjacency matrix, built once and read-only;
        adjacency_matrix() returns a writable copy."""
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u, v in self.arcs:
            a[u, v] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def strongly_connected(self) -> bool:
        """True when every ordered vertex pair is joined by a directed path."""
        return _strongly_connected(dict(enumerate(self.out_masks)))

    @cached_property
    def sorted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.arcs))

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(_bits(self.out_masks[u]))

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.in_masks[v]))

    def out_degree(self, u: int) -> int:
        return self.out_masks[u].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_masks[v].bit_count()

    def adjacency_matrix(self) -> np.ndarray:
        return self.adjacency.copy()

    def add_arcs(self, new: Iterable[tuple[int, int]]) -> "Digraph":
        return from_arcs(self.n, self.arcs | set(new))

    def remove_arcs(self, gone: Iterable[tuple[int, int]]) -> "Digraph":
        gone = set(gone)
        missing = gone - self.arcs
        if missing:
            raise ValueError(f"cannot remove absent arc {sorted(missing)[0]}")
        return Digraph(self.n, self.arcs - gone)

    def relabel(self, perm: Sequence[int]) -> "Digraph":
        """Image under vertex map i -> perm[i]; perm must be a permutation of range(n)."""
        perm = [_integer(p, "perm entry") for p in perm]
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        return Digraph(self.n, frozenset((perm[u], perm[v]) for u, v in self.arcs))

    def reverse(self) -> "Digraph":
        return Digraph(self.n, frozenset((v, u) for u, v in self.arcs))

    def __reduce__(self):
        # rebuilt from its fields, so no cache (the read-only adjacency
        # included) crosses a pickle, where it would come back writable
        return type(self), (self.n, self.arcs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


@dataclass(frozen=True)
class DegreeProfile:
    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]
    min_out: int
    max_out: int
    min_in: int
    min_over_both: int


def _integer(value, what: str) -> int:
    """value by operator.index (numpy integers pass), else a ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _order(n) -> int:
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    return n


def from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Validating constructor: integer vertices in range, no loops, duplicates collapsed."""
    n = _order(n)
    arc_set = set()
    for arc in arcs:
        u, v = arc
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise ValueError(f"arc {arc!r} is not a pair of integer vertices") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc {(u, v)} out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        arc_set.add((u, v))
    return Digraph(n, frozenset(arc_set))


# ---------------------------------------------------------------------------
# bitmask internals of the public operations below

def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _strongly_connected(masks: dict):
    """Whether the digraph given as {vertex: bit mask of its out-neighbours}
    is strongly connected on those vertices: a bool for Python int masks
    (one digraph, any order), a bool array for equal-shaped unsigned arrays
    with a bit for every vertex (one digraph per entry).  Warshall's
    closure (J. ACM 1962), in place: vertex v at a time, every mask that
    holds v gains v's mask, so each mask ends holding what its vertex
    reaches."""
    for v in masks:
        for u in masks:
            masks[u] |= (masks[u] >> v & 1) * masks[v]
    full = sum(1 << v for v in masks)
    return reduce(operator.and_, [(m | 1 << v) == full for v, m in masks.items()])


def _girth(rows: Sequence[int], cols: Sequence[int], n: int) -> int | None:
    for i in range(n):
        if rows[i] & cols[i]:
            return 2
    best = None
    for v in range(n):
        bit_v = 1 << v
        seen = frontier = rows[v]
        depth = 1
        limit = (best or n + 1) - 1
        while frontier and depth < limit:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= rows[b.bit_length() - 1]
            depth += 1
            frontier = nxt & ~seen
            seen |= frontier
            if frontier & bit_v:
                best = depth
                break
        if best == 3:
            break
    return best


def _clique_number(und: Sequence[int], n: int) -> int:
    """Max clique of the undirected graph given by symmetric bitmask rows.

    Bron-Kerbosch with pivoting; the pivot is the vertex of P|X covering the
    most of P, and only non-covered candidates branch.
    """
    best = 1 if n >= 1 else 0

    def expand(size: int, p: int, x: int) -> None:
        nonlocal best
        if p == 0:
            if x == 0 and size > best:
                best = size
            return
        if size + p.bit_count() <= best:
            return
        pivot = -1
        cover = -1
        m = p | x
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            c = (p & und[u]).bit_count()
            if c > cover:
                cover = c
                pivot = u
        cand = p & ~und[pivot]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            expand(size + 1, p & und[v], x & und[v])
            p ^= b
            x |= b

    expand(0, (1 << n) - 1, 0)
    return best


def _unit_maxflow(radj: list[int], s: int, t: int, cap: int) -> int:
    """Max flow on a unit-capacity digraph given as residual bitmask rows.

    radj is mutated (arcs flip as paths are augmented).  Stops once the flow
    reaches cap, since callers only need min(flow, cap).
    """
    flow = 0
    bit_t = 1 << t
    while flow < cap:
        parent = {}
        seen = 1 << s
        frontier = seen
        while frontier and not (seen & bit_t):
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                u = b.bit_length() - 1
                new = radj[u] & ~seen & ~nxt
                mm = new
                while mm:
                    bb = mm & -mm
                    mm ^= bb
                    parent[bb.bit_length() - 1] = u
                nxt |= new
            frontier = nxt
            seen |= nxt
        if not (seen & bit_t):
            break
        v = t
        while v != s:
            u = parent[v]
            radj[u] &= ~(1 << v)
            radj[v] |= 1 << u
            v = u
        flow += 1
    return flow


def _arc_connectivity(rows: Sequence[int], cols: Sequence[int], n: int) -> int:
    douts = [rows[i].bit_count() for i in range(n)]
    dins = [cols[i].bit_count() for i in range(n)]
    best = min(min(douts), min(dins))
    # every arc cut separates vertex 0 from some vertex or vice versa
    order = sorted(range(1, n), key=lambda v: min(douts[v], dins[v]))
    for v in order:
        for s, t in ((0, v), (v, 0)):
            if best == 1:
                return 1
            f = _unit_maxflow(list(rows), s, t, best)
            if f < best:
                best = f
    return best


def _vertex_connectivity(rows: Sequence[int], cols: Sequence[int], n: int) -> int:
    full = (1 << n) - 1
    if all(rows[i] == full ^ (1 << i) for i in range(n)):
        return n - 1  # complete digraph: no cut set exists, n-1 by convention
    douts = [rows[i].bit_count() for i in range(n)]
    dins = [cols[i].bit_count() for i in range(n)]
    best = min(min(douts), min(dins))
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and not (rows[u] >> v) & 1
    ]
    pairs.sort(key=lambda p: douts[p[0]] + dins[p[1]])
    for u, v in pairs:
        if best == 1:
            return 1
        # split network: node i is "out(i)", node n+i is "in(i)", in->out cap 1
        radj = [rows[i] << n for i in range(n)]
        radj.extend(1 << i for i in range(n))
        f = _unit_maxflow(radj, u, n + v, best)
        if f < best:
            best = f
    return best


# ---------------------------------------------------------------------------
# public operations

def is_strongly_connected(G: Digraph) -> bool:
    """True when every ordered vertex pair is joined by a directed path."""
    return G.strongly_connected


def girth(G: Digraph) -> int | None:
    """Length of a shortest directed cycle, or None when the digraph is acyclic."""
    return _girth(G.out_masks, G.in_masks, G.n)


def clique_number(G: Digraph) -> int:
    """Largest vertex set inducing a complete subdigraph (all digons present)."""
    und = [G.out_masks[i] & G.in_masks[i] for i in range(G.n)]
    return _clique_number(und, G.n)


def _require_connectivity_input(G: Digraph) -> None:
    if G.n < 2:
        raise ValueError("connectivity is undefined on a single vertex")
    if not is_strongly_connected(G):
        raise NotStronglyConnected("connectivity requires a strongly connected digraph")


def vertex_connectivity(G: Digraph) -> int:
    """Minimum vertices whose deletion breaks strong connectivity (n-1 if complete)."""
    _require_connectivity_input(G)
    return _vertex_connectivity(G.out_masks, G.in_masks, G.n)


def arc_connectivity(G: Digraph) -> int:
    """Minimum arcs whose deletion breaks strong connectivity."""
    _require_connectivity_input(G)
    return _arc_connectivity(G.out_masks, G.in_masks, G.n)


def degree_profile(G: Digraph) -> DegreeProfile:
    outs = tuple(m.bit_count() for m in G.out_masks)
    ins = tuple(m.bit_count() for m in G.in_masks)
    return DegreeProfile(
        out_degrees=outs,
        in_degrees=ins,
        min_out=min(outs),
        max_out=max(outs),
        min_in=min(ins),
        min_over_both=min(min(outs), min(ins)),
    )


def union(G: Digraph, H: Digraph) -> Digraph:
    """Disjoint union; H's vertices are shifted up by G.n."""
    shifted = ((u + G.n, v + G.n) for u, v in H.arcs)
    return Digraph(G.n + H.n, G.arcs | frozenset(shifted))


def join(G: Digraph, H: Digraph) -> Digraph:
    """Disjoint union plus all digons between the two parts."""
    base = union(G, H)
    cross = set()
    for u in range(G.n):
        for v in range(G.n, G.n + H.n):
            cross.add((u, v))
            cross.add((v, u))
    return Digraph(base.n, base.arcs | frozenset(cross))


def induced(G: Digraph, vertices: Iterable[int]) -> Digraph:
    """Subdigraph induced by the given vertices, relabelled in sorted order."""
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("induced subdigraph needs at least one vertex")
    for v in keep:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range for n={G.n}")
    pos = {v: i for i, v in enumerate(keep)}
    arcs = frozenset(
        (pos[u], pos[v]) for u, v in G.arcs if u in pos and v in pos
    )
    return Digraph(len(keep), arcs)


def is_isomorphic(G: Digraph, H: Digraph) -> bool:
    """Equal order, arc count and canonical code; the code needs n <= 8
    (ValueError above) and is computed only when order and arc count agree."""
    if G.n != H.n or G.num_arcs != H.num_arcs:
        return False
    a, b = canonical_codes(G.n, [code_of_digraph(G), code_of_digraph(H)])
    return bool(a == b)


# ---------------------------------------------------------------------------
# integer codes: bit p of a code is arc cell p in the row-major list of
# off-diagonal cells (0,1), (0,2), ..., (n-1, n-2)

def _cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def digraph_from_code(n: int, code: int) -> Digraph:
    cells = _cells(_order(n))
    code = _integer(code, "code")
    if not 0 <= code < (1 << len(cells)):
        raise ValueError(f"code {code} out of range for n={n}")
    return Digraph(
        n, frozenset(cell for p, cell in enumerate(cells) if (code >> p) & 1)
    )


def code_of_digraph(G: Digraph) -> int:
    code = 0
    for p, (i, j) in enumerate(_cells(G.n)):
        if G.has_arc(i, j):
            code |= 1 << p
    return code


CANON_CAP = 8  # n(n-1) cell bits fit in an int64 code up to n = 8
_CANON_BLOCK = 1 << 20  # int64 elements (8 MB) per temporary of _canonical
_PIECE_BITS = 7  # code bits per table lookup in _relabel
# parent classes per block of _grow: at most 1,000 x 2^10 (parent, row)
# pairs at m = 6 (9,608 parents, 10 blocks); every order up to 5 (218
# parents) and every tournament order up to CANON_CAP (456) is one block
_GROW_BLOCK = 1000


@cache
def _cell_perms(n: int) -> np.ndarray:
    """(n!, n(n-1)) uint8: entry [r, p] is the cell that cell p moves to
    under the r-th vertex permutation."""
    ci, cj = np.array(_cells(n), dtype=np.int64).reshape(-1, 2).T
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    pi, pj = perms[:, ci], perms[:, cj]
    return (pi * (n - 1) + pj - (pj > pi)).astype(np.uint8)


def _piece_tables(dest: np.ndarray) -> list[np.ndarray]:
    """Per-permutation lookup tables for _relabel, one per 7-bit piece of a
    code: row v of the (2^b, perms) int64 table of a piece is the image of
    piece value v under each permutation (b = 7, or fewer for the last
    piece).  The images of distinct cells are distinct bits, so a relabelled
    code is the OR of its pieces' rows."""
    weights = np.left_shift(1, dest.T.astype(np.int64))  # (cells, perms)
    tables = []
    for k in range(0, len(weights), _PIECE_BITS):
        table = np.zeros((1, dest.shape[0]), dtype=np.int64)
        for w in weights[k:k + _PIECE_BITS]:
            table = np.concatenate([table, table | w])
        tables.append(table)
    return tables


def _relabel(tables: list[np.ndarray], codes: np.ndarray) -> np.ndarray:
    """(codes, perms) int64: each of a 1-d int64 array of codes under every
    permutation of the piece tables, the OR of its pieces' rows."""
    mask = (1 << _PIECE_BITS) - 1
    first, *rest = tables
    out = first[codes & mask]
    for k, table in enumerate(rest, 1):
        out |= table[(codes >> (k * _PIECE_BITS)) & mask]
    return out


def _canonical(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest of the n! relabellings of each of a 1-d int64 array of
    codes (n >= 2), and how many attain it: |Aut|, as they are one coset of
    the automorphism group.  Codes and permutations go in blocks of at most
    about 8 MB; a block counts only on the codes whose block minimum is at
    most the minimum so far, a smaller one restarting the count."""
    dest = _cell_perms(n)
    best = np.full(codes.size, np.iinfo(np.int64).max)
    count = np.zeros(codes.size, dtype=np.int64)
    pieces = -(-n * (n - 1) // _PIECE_BITS)
    perm_step = max(1, _CANON_BLOCK // (pieces << _PIECE_BITS))
    for p0 in range(0, len(dest), perm_step):
        tables = _piece_tables(dest[p0:p0 + perm_step])
        code_step = max(1, _CANON_BLOCK // tables[0].shape[1])
        for c0 in range(0, codes.size, code_step):
            relabelled = _relabel(tables, codes[c0:c0 + code_step])
            low = relabelled.min(axis=1)
            rows = np.flatnonzero(low <= best[c0:c0 + code_step])
            low, at = low[rows], c0 + rows
            ties = (relabelled[rows] == low[:, None]).sum(axis=1)
            count[at] = np.where(low < best[at], 0, count[at]) + ties
            best[at] = low
    return best, count


def canonical_codes(n: int, codes) -> np.ndarray:
    """The smallest code over all n! vertex relabelings of each code, which
    is the smallest labelled code of its isomorphism class (_canonical).
    n must be in 1..CANON_CAP, and codes a 1-d integer array of codes on n
    vertices."""
    if not 1 <= n <= CANON_CAP:
        raise ValueError(f"canonical codes need 1 <= n <= {CANON_CAP}, got n={n}")
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size and not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"codes must be a 1-d integer array, got {codes.dtype} {codes.shape}")
    codes = codes.astype(np.int64)
    if codes.size and not (codes.min() >= 0 and codes.max() < 1 << n * (n - 1)):
        raise ValueError(f"codes out of range for n={n}")
    return codes if n == 1 else _canonical(n, codes)[0]


def _orbits(n: int, classes) -> tuple[np.ndarray, np.ndarray]:
    """The labelled codes of the given classes on n >= 2 vertices, ascending,
    and for each the index in classes of the class it belongs to: every
    relabelling of each class, unblocked."""
    classes = np.asarray(classes, dtype=np.int64)
    relabelled = _relabel(_piece_tables(_cell_perms(n)), classes)
    codes, first = np.unique(relabelled, return_index=True)
    return codes, first // relabelled.shape[1]


# ---------------------------------------------------------------------------
# stacks of codes: decoding, strong connectivity, invariants by vertex
# subsets, and growing classes by a vertex

def _decode(n: int, codes: np.ndarray) -> np.ndarray:
    """(codes, n, n) uint8 adjacency stack of a 1-d integer array of codes:
    bit p of a code is entry _cells(n)[p].  The bits are unpacked from the
    codes' little-endian bytes into uint8 planes, and the n(n - 1) cells
    of each row-major matrix are its entries after the first with every
    (n + 1)-th, a diagonal one, left out."""
    k = len(codes)
    bits = np.unpackbits(
        np.ascontiguousarray(codes, dtype="<i8").view(np.uint8).reshape(k, 8),
        axis=1, count=n * (n - 1), bitorder="little",
    )
    adj = np.zeros((k, n * n), dtype=np.uint8)
    adj[:, 1:].reshape(k, n - 1, n + 1)[:, :, :n] = bits.reshape(k, n - 1, n)
    return adj.reshape(k, n, n)


def _masks(n: int, codes: np.ndarray) -> dict:
    """{vertex: uint8 array of its out-neighbour masks} over a 1-d int64
    array of codes (n <= CANON_CAP): each mask is read off the code's row
    of n - 1 cells with a 0 put in at the diagonal."""
    width = n - 1
    masks = {}
    for i in range(n):
        row = ((codes >> (i * width)) & ((1 << width) - 1)).astype(np.uint8)
        masks[i] = (row & ((1 << i) - 1)) | ((row >> i) << (i + 1))
    return masks


def _strong(n: int, codes: np.ndarray) -> np.ndarray:
    """Whether the digraph of each of a 1-d int64 array of codes is strongly
    connected (n <= CANON_CAP), by one closure over the whole array."""
    return _strongly_connected(_masks(n, codes))


# set bits of each byte value
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _subset_invariants(n: int, codes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Girth, clique number, vertex connectivity and arc connectivity of the
    strongly connected digraph D of each of a 1-d int64 array of codes on
    2 <= n <= CANON_CAP vertices, as four (k,) arrays.  One pass over the
    vertex subsets W, each read on every code's out-neighbour masks at once
    (_masks); D[W] is strongly connected when the closure of the masks of
    W's vertices, cut down to W, says so (_strongly_connected), and arcs
    are counted by a byte popcount table:

    * girth is the least |W| >= 2 with D[W] strong: a shortest cycle's
      vertices induce a strong subdigraph, and a strong one on s vertices
      has a cycle of length at most s;
    * the clique number is the largest |W| with D[W] complete, else 1;
    * vertex connectivity is n minus the largest |W| >= 2 with D[W] not
      strong (Menger), or n - 1 when there is none, the complete digraph;
    * arc connectivity is the fewest arcs leaving a nonempty proper W.

    The 2^n subsets suit the scan's orders; girth, clique_number,
    vertex_connectivity and arc_connectivity serve digraphs of any order."""
    masks = _masks(n, codes)
    k = codes.size
    girth = np.full(k, n)  # D itself is strong
    clique = np.ones(k, dtype=np.int64)
    weak = np.zeros(k, dtype=np.int64)  # largest |W| >= 2 with D[W] not strong
    arc = np.full(k, n * (n - 1))
    full = (1 << n) - 1
    for size in range(1, n):
        for w in itertools.combinations(range(n), size):
            inside = sum(1 << v for v in w)
            leaving = sum(_POPCOUNT[masks[v] & (full ^ inside)] for v in w)
            np.minimum(arc, leaving, out=arc)
            if size == 1:
                continue
            sub = {v: masks[v] & inside for v in w}
            arcs = sum(_POPCOUNT[m] for m in sub.values())  # before the closure fills sub
            clique[arcs == size * (size - 1)] = size
            strong = _strongly_connected(sub)
            np.minimum(girth, np.where(strong, size, n), out=girth)
            weak[~strong] = size
    arcs = sum(_POPCOUNT[m] for m in masks.values())
    clique[arcs == n * (n - 1)] = n
    return girth, clique, np.where(weak > 0, n - weak, n - 1), arc


def _bit_rows(k: int) -> np.ndarray:
    """(2^k, k) table of every 0/1 row of length k; row r holds the bits of r."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _grow(
    m: int, classes: np.ndarray, sets: np.ndarray | None = None, strong: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The classes on m vertices, by canonical code, ascending, that extend
    one of the given (m-1)-vertex classes, and the |Aut| of each, counted
    where _canonical takes the code.  The new vertex m-1 has as its arcs a
    row of sets: m-1 columns of out-arcs to vertices 0..m-2, then m-1 of
    in-arcs from them (default: all 2^(2m-2) rows, which grows all
    digraphs).  A candidate is kept only if its new vertex is least in
    (total degree, out-degree).  Every m-vertex digraph is reached if its
    vertex-deleted subdigraphs are among the classes and sets holds the
    arcs of every vertex: deleting a least vertex leaves one of the classes,
    and adding it back is a kept candidate.  With strong, only the strongly
    connected candidates are labelled, which keeps exactly the strongly
    connected classes, as strong connectivity is an isomorphism invariant.

    A candidate is a (parent, row) pair, never a matrix: its degree key
    comes from the parent's degrees and the row's bits, and its code is the
    parent's code moved to the m-vertex cells, ORed with the row's code.
    The pairs come parent-major, as (parent, row) rows of a stack would.
    The parents go in blocks of _GROW_BLOCK; the blocks' classes are merged
    with np.unique, |Aut| taken at the first index, as every member of a
    class has the same |Aut|."""
    if sets is None:
        sets = _bit_rows(2 * m - 2)
    k = m - 1
    outs, ins = sets[:, :k].astype(np.uint8), sets[:, k:].astype(np.uint8)
    # total degree * m + out-degree orders (total, out) since out-degree < m;
    # it stays below 2m^2 <= 128 for m <= CANON_CAP, so bytes hold it.  An
    # old vertex j gains an out-arc from in-bit j and an in-arc from out-bit j.
    new_key = outs.sum(axis=1, dtype=np.uint8) * (m + 1) + ins.sum(axis=1, dtype=np.uint8) * m
    row_key = ins * (m + 1) + outs * m
    # out-arcs of the new vertex are cells (k, j), in-arcs cells (j, k)
    cells = np.concatenate([k * k + np.arange(k), np.arange(k) * k + k - 1])
    row_codes = sets.astype(np.int64) @ (1 << cells)
    merged, counts = [], []
    for p0 in range(0, classes.size, _GROW_BLOCK):
        parents = classes[p0:p0 + _GROW_BLOCK]
        old = _decode(k, parents)
        key = old.sum(axis=2, dtype=np.uint8) * (m + 1) + old.sum(axis=1, dtype=np.uint8) * m
        least = new_key <= (key[:, None, :] + row_key).min(axis=2)
        moved = np.zeros_like(parents)
        for i in range(k):  # row i of the parent's cells is k - 1 bits wide, k in the child
            moved |= ((parents >> (i * (k - 1))) & ((1 << (k - 1)) - 1)) << (i * k)
        p, r = np.nonzero(least)
        codes = moved[p] | row_codes[r]
        if strong:
            codes = codes[_strong(m, codes)]
        canon, automorphisms = _canonical(m, codes)
        canon, first = np.unique(canon, return_index=True)
        merged.append(canon)
        counts.append(automorphisms[first])
    classes, first = np.unique(np.concatenate(merged), return_index=True)
    return classes, np.concatenate(counts)[first]


# ---------------------------------------------------------------------------
# text format:  "n <N>" header, one "u v" line per arc, '#' comments

def to_text(G: Digraph) -> str:
    lines = [f"n {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.sorted_arcs)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Digraph:
    n = None
    arcs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate vertex-count line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"line {lineno}: expected 'n <count>'")
            n = int(parts[1])
            continue
        if n is None:
            raise ValueError(f"line {lineno}: arc before the 'n <count>' header")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer arc endpoint") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: arc {(u, v)} out of range for n={n}")
        if u == v:
            raise ValueError(f"line {lineno}: loop at vertex {u} is not allowed")
        arcs.append((u, v))
    if n is None:
        raise ValueError("missing 'n <count>' header line")
    try:
        return from_arcs(n, arcs)
    except ValueError as exc:
        raise ValueError(str(exc)) from None
