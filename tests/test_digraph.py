"""Digraph core checked against independent set-based brute-force oracles.

The production code works on bit masks; every oracle here uses plain dicts,
sets and itertools so the two implementations share nothing but the
definitions.
"""
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspec import (
    Digraph,
    NotStronglyConnected,
    arc_connectivity,
    b_nd,
    c_ng,
    circulant,
    clique_number,
    complete,
    cycle,
    degree_profile,
    from_arcs,
    from_text,
    girth,
    induced,
    is_isomorphic,
    is_strongly_connected,
    join,
    k_nkm,
    path,
    to_text,
    tournament,
    union,
    vertex_connectivity,
)
from alphaspec.digraph import (
    _bit_rows,
    _canonical,
    _cell_perms,
    _decode,
    _grow,
    _piece_tables,
    _relabel,
    _strong,
    _subset_invariants,
    canonical_codes,
    code_of_digraph,
    digraph_from_code,
)
from alphaspec.oracle import _classes


# ---------------------------------------------------------------------------
# oracles

def oracle_reach(n, arcs, start):
    adj = {v: set() for v in range(n)}
    for u, v in arcs:
        adj[u].add(v)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def oracle_strong(G):
    return all(len(oracle_reach(G.n, G.arcs, s)) == G.n for s in range(G.n))


def oracle_girth(G):
    adj = {v: set() for v in range(G.n)}
    for u, v in G.arcs:
        adj[u].add(v)
    best = None
    for s in range(G.n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for u in range(G.n):
            if s in adj[u] and u in dist:
                length = dist[u] + 1
                if best is None or length < best:
                    best = length
    return best


def oracle_clique(G):
    digons = {(u, v) for (u, v) in G.arcs if (v, u) in G.arcs}
    best = 1 if G.n else 0
    for size in range(2, G.n + 1):
        for S in itertools.combinations(range(G.n), size):
            if all((a, b) in digons for a, b in itertools.permutations(S, 2)):
                best = size
    return best


def oracle_vertex_conn(G):
    n = G.n
    if all(G.has_arc(u, v) for u in range(n) for v in range(n) if u != v):
        return n - 1
    for size in range(0, n - 1):
        for S in itertools.combinations(range(n), size):
            rest = [v for v in range(n) if v not in S]
            if len(rest) >= 2 and not oracle_strong(induced(G, rest)):
                return size
    return n - 1


def oracle_arc_conn(G):
    arcs = sorted(G.arcs)
    # kappa' is at most the minimum degree; capping the cut size keeps the
    # subset search tractable on dense instances
    cap = min(
        min(G.out_degree(v) for v in range(G.n)),
        min(G.in_degree(v) for v in range(G.n)),
    )
    for size in range(0, cap + 1):
        for cut in itertools.combinations(arcs, size):
            if not oracle_strong(G.remove_arcs(cut)):
                return size
    return cap


def all_codes(n):
    return [digraph_from_code(n, c) for c in range(1 << (n * (n - 1)))]


# ---------------------------------------------------------------------------
# construction and accessors

def test_from_arcs_validates():
    with pytest.raises(ValueError):
        from_arcs(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_arcs(3, [(-1, 0)])
    with pytest.raises(ValueError):
        from_arcs(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_arcs(0, [])


@pytest.mark.parametrize("build, args, match", [
    (from_arcs, (2.5, [(0, 1)]), "n must be an integer, got 2.5"),
    (from_arcs, (3, [(0, 1.5)]), r"arc \(0, 1\.5\) is not a pair of integer vertices"),
    (from_arcs, (3, [(0, 1.0), (1, 2), (2, 0)]), r"arc \(0, 1\.0\)"),
    (cycle(3).relabel, ([0, 1.0, 2],), "perm entry must be an integer, got 1.0"),
    (circulant, (5, [1, 2.7]), "circulant step must be an integer, got 2.7"),
    (digraph_from_code, (0, 0), "need at least one vertex, got n=0"),
    (digraph_from_code, (-1, 0), "need at least one vertex, got n=-1"),
    (digraph_from_code, (3, 2.5), "code must be an integer, got 2.5"),
], ids=["from_arcs-n", "from_arcs-arc", "from_arcs-float-equal-to-int", "relabel",
        "circulant-step", "code-n-0", "code-n-negative", "code-float"])
def test_constructors_refuse_non_integer_or_empty_vertex_data(build, args, match):
    with pytest.raises(ValueError, match=match):
        build(*args)


def test_constructors_take_numpy_integers():
    three, one = np.int64(3), np.int32(1)
    assert from_arcs(three, [(np.int64(0), one), (one, 2), (2, 0)]) == cycle(3)
    assert cycle(3).relabel(np.array([1, 2, 0])) == cycle(3)
    assert circulant(np.int64(4), np.array([1, 3])) == circulant(4, [1, 3])
    assert digraph_from_code(three, np.int64(5)) == digraph_from_code(3, 5)


def test_accessors_on_b53():
    G = b_nd(5, 3)
    prof = degree_profile(G)
    assert list(prof.out_degrees) == [1, 1, 3, 2, 2]
    assert list(prof.in_degrees) == [1, 1, 2, 2, 3]
    assert prof.min_out == 1 and prof.max_out == 3
    assert prof.min_over_both == 1
    assert G.num_arcs == 9
    A = G.adjacency_matrix()
    assert A.shape == (5, 5) and A.sum() == 9
    assert sorted(G.out_neighbors(2)) == [0, 3, 4]
    assert sorted(G.in_neighbors(4)) == [1, 2, 3]


def test_cached_adjacency_is_read_only_and_copies_are_not():
    G = b_nd(5, 3)
    cached = G.adjacency
    assert G.adjacency is cached and not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0
    A = G.adjacency_matrix()
    assert A is not cached and A.flags.writeable and np.array_equal(A, cached)
    A[0, 0] = 7.0
    assert G.adjacency_matrix()[0, 0] == 0.0
    assert [[float(G.has_arc(u, v)) for v in range(5)] for u in range(5)] == cached.tolist()
    # the strong-connectivity answer is cached beside it; equality and
    # hashing still see only n and the arcs
    assert G.strongly_connected is True and "strongly_connected" in G.__dict__
    assert not cycle(4).add_arcs([(0, 2)]).remove_arcs([(3, 0)]).strongly_connected
    assert G == b_nd(5, 3) and hash(G) == hash(b_nd(5, 3))
    back = pickle.loads(pickle.dumps(G))
    assert back == G and "adjacency" not in back.__dict__
    assert not back.adjacency.flags.writeable


def test_add_remove_relabel_reverse():
    G = cycle(4)
    H = G.add_arcs([(0, 2)])
    assert H.has_arc(0, 2) and not G.has_arc(0, 2)
    assert H.remove_arcs([(0, 2)]) == G
    R = G.reverse()
    assert R.has_arc(1, 0) and not R.has_arc(0, 1)
    P = G.relabel([1, 2, 3, 0])
    assert P.has_arc(1, 2)
    assert is_isomorphic(P, G)


# ---------------------------------------------------------------------------
# strong connectivity: dual implementations over every small code

def test_strong_connectivity_all_n3_codes():
    graphs = all_codes(3)
    flags = [is_strongly_connected(g) for g in graphs]
    assert flags == [oracle_strong(g) for g in graphs]
    assert sum(flags) == 18


def test_strong_connectivity_all_n2_codes():
    graphs = all_codes(2)
    assert [is_strongly_connected(g) for g in graphs] == [False, False, False, True]


def test_strong_connectivity_n4_seeded_codes():
    import random

    rng = random.Random(411)
    for _ in range(400):
        g = digraph_from_code(4, rng.randrange(1 << 12))
        assert is_strongly_connected(g) == oracle_strong(g)


@pytest.mark.parametrize("n", [9, 16, 63, 64, 70])
def test_strong_connectivity_past_one_byte_and_64_bits(n):
    # the closure on Python int masks, at orders its uint8 stacks never
    # reach, and across the int64 boundary; arc probabilities around
    # log(n)/n give both answers
    rng = np.random.default_rng(1700 + n)
    flags = []
    for scale in (0.5, 1.0, 1.5, 2.5):
        for _ in range(6):
            m = rng.random((n, n)) < scale * math.log(n) / n
            g = from_arcs(n, [tuple(a) for a in np.argwhere(m).tolist() if a[0] != a[1]])
            flags.append(is_strongly_connected(g))
            assert flags[-1] == oracle_strong(g)
    assert True in flags and False in flags


def test_single_vertex_is_strong():
    g = from_arcs(1, [])
    assert is_strongly_connected(g)
    assert girth(g) is None
    assert clique_number(g) == 1
    with pytest.raises(ValueError):
        vertex_connectivity(g)
    with pytest.raises(ValueError):
        arc_connectivity(g)


# ---------------------------------------------------------------------------
# girth and clique number

def test_girth_matches_oracle_all_n3():
    for g in all_codes(3):
        assert girth(g) == oracle_girth(g)


def test_girth_matches_oracle_seeded_n4_n5():
    import random

    rng = random.Random(802)
    for n, trials in ((4, 300), (5, 200)):
        for _ in range(trials):
            g = digraph_from_code(n, rng.randrange(1 << (n * (n - 1))))
            assert girth(g) == oracle_girth(g)


def test_girth_examples():
    assert girth(tournament("transitive", 5)) is None
    assert girth(cycle(7)) == 7
    assert girth(complete(4)) == 2
    assert girth(path(4)) is None


def test_clique_matches_oracle_all_n3():
    for g in all_codes(3):
        assert clique_number(g) == oracle_clique(g)


def test_clique_matches_oracle_seeded_n4_n5():
    import random

    rng = random.Random(803)
    for n, trials in ((4, 300), (5, 150)):
        for _ in range(trials):
            g = digraph_from_code(n, rng.randrange(1 << (n * (n - 1))))
            assert clique_number(g) == oracle_clique(g)


def test_digon_girth_clique_consistency():
    # girth 2, containing a digon, and clique >= 2 are the same property
    for g in all_codes(3):
        has_digon = any((v, u) in g.arcs for (u, v) in g.arcs)
        assert (girth(g) == 2) == has_digon
        assert (clique_number(g) >= 2) == has_digon


def test_clique_examples():
    assert clique_number(complete(6)) == 6
    assert clique_number(cycle(5)) == 1
    assert clique_number(b_nd(7, 4)) == 4


# ---------------------------------------------------------------------------
# connectivity

def test_connectivity_requires_strong_and_order():
    with pytest.raises(NotStronglyConnected):
        vertex_connectivity(path(4))
    with pytest.raises(NotStronglyConnected):
        arc_connectivity(path(4))


def test_connectivity_matches_oracle_all_strong_n4():
    for g in all_codes(4):
        if not oracle_strong(g):
            continue
        assert vertex_connectivity(g) == oracle_vertex_conn(g)
        assert arc_connectivity(g) == oracle_arc_conn(g)


def test_connectivity_matches_oracle_seeded_strong_n5():
    import random

    rng = random.Random(804)
    seen = 0
    while seen < 80:
        g = digraph_from_code(5, rng.randrange(1 << 20))
        if not oracle_strong(g):
            continue
        seen += 1
        assert vertex_connectivity(g) == oracle_vertex_conn(g)
        assert arc_connectivity(g) == oracle_arc_conn(g)


def test_connectivity_on_families():
    assert vertex_connectivity(complete(5)) == 4
    assert arc_connectivity(complete(5)) == 4
    assert vertex_connectivity(cycle(6)) == 1
    assert arc_connectivity(cycle(6)) == 1
    assert vertex_connectivity(k_nkm(7, 3, 2)) == 3
    assert arc_connectivity(k_nkm(7, 3, 3)) == 3


def subset_invariants(graphs):
    """[girth, clique, kappa, lambda] per digraph of one order, from the
    batched pass over vertex subsets."""
    codes = np.array([code_of_digraph(g) for g in graphs], dtype=np.int64)
    return np.column_stack(_subset_invariants(graphs[0].n, codes)).tolist()


def test_subset_invariants_on_cycles_and_complete_digraphs():
    # the directed cycle: girth n, no digon beyond n = 2, one vertex or arc
    # cuts it; the complete digraph: kappa = lambda = n - 1, the convention
    for n in range(2, 8):
        cases = [(cycle(n), [n, 2 if n == 2 else 1, 1, 1]), (complete(n), [2, n, n - 1, n - 1])]
        assert subset_invariants([g for g, _ in cases]) == [want for _, want in cases], n


def test_subset_invariants_match_the_public_functions_on_every_strong_5_class():
    # exhaustive at the largest order the tier-1 scans reach: the closure
    # over every subset against BFS, Bron-Kerbosch and unit max-flow
    classes, _ = _classes(5)
    assert classes.size == 5048
    graphs = [digraph_from_code(5, c) for c in classes.tolist()]
    want = [
        [girth(g), clique_number(g), vertex_connectivity(g), arc_connectivity(g)]
        for g in graphs
    ]
    assert subset_invariants(graphs) == want


@pytest.mark.parametrize("n", [6, 7])
def test_subset_invariants_match_the_public_functions_seeded(n):
    # past the scan's orders: random strong digraphs, dense and oriented
    # (girth >= 3), and the families that attain each girth, clique number
    # and vertex cut, against BFS, Bron-Kerbosch and unit max-flow
    rng = np.random.default_rng(1400 + n)
    mats = []
    for p in (0.3, 0.5, 0.8):
        mats += [rng.random((n, n)) < p for _ in range(100)]
    for q in (0.5, 0.8, 1.0):
        for _ in range(100):
            pairs = np.triu(rng.random((n, n)) < q, 1)
            flip = np.triu(rng.random((n, n)) < 0.5, 1)
            mats.append((pairs & ~flip) | (pairs & flip).T)
    graphs = [
        from_arcs(n, [tuple(a) for a in np.argwhere(m).tolist() if a[0] != a[1]])
        for m in mats
    ]
    graphs += [c_ng(n, g) for g in range(2, n)] + [b_nd(n, d) for d in range(2, n)]
    graphs += [k_nkm(n, k, m) for k in range(1, n - 1) for m in range(1, n - k)]
    graphs = [g for g in graphs if is_strongly_connected(g)]
    want = [
        [girth(g), clique_number(g), vertex_connectivity(g), arc_connectivity(g)]
        for g in graphs
    ]
    assert subset_invariants(graphs) == want
    assert {row[0] for row in want} == set(range(2, n))
    assert {row[2] for row in want} >= set(range(1, n - 1))


# ---------------------------------------------------------------------------
# combinators and isomorphism

def test_union_and_join():
    u = union(cycle(3), cycle(2))
    assert u.n == 5 and u.num_arcs == 5
    assert not is_strongly_connected(u)
    j = join(cycle(3), cycle(2))
    assert j.n == 5
    # join adds all digons across the parts
    assert j.num_arcs == 5 + 2 * 3 * 2
    assert is_strongly_connected(j)
    assert clique_number(j) >= 2


def test_induced():
    g = b_nd(6, 3)
    h = induced(g, [3, 4, 5])
    assert h.n == 3 and h.num_arcs == 6  # the clique block
    assert clique_number(h) == 3


def test_is_isomorphic_positive_and_negative():
    g = k_nkm(6, 2, 3)
    perm = [3, 0, 5, 1, 4, 2]
    assert is_isomorphic(g, g.relabel(perm))
    assert not is_isomorphic(g, k_nkm(6, 2, 1))
    assert not is_isomorphic(cycle(4), complete(4))
    # same degree sequence, different structure: C6 vs two disjoint C3
    c33 = union(cycle(3), cycle(3))
    assert not is_isomorphic(cycle(6), c33)
    assert not is_isomorphic(cycle(3), cycle(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_canonical_code_is_smallest_relabelled_code(n, data):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    g = from_arcs(n, data.draw(st.sets(st.sampled_from(cells)) if cells else st.just(set())))
    h = g.relabel(data.draw(st.permutations(range(n))))
    canon = canonical_codes(n, [code_of_digraph(g), code_of_digraph(h)])
    # brute force over every relabelling, with python ints
    smallest = min(code_of_digraph(g.relabel(p)) for p in itertools.permutations(range(n)))
    assert canon.tolist() == [smallest, smallest]


def test_canonical_code_class_counts():
    # isomorphism classes of strongly connected digraphs (OEIS A035512)
    for n, classes in ((2, 1), (3, 5), (4, 83)):
        codes = range(1 << (n * (n - 1)))
        strong = [c for c in codes if is_strongly_connected(digraph_from_code(n, c))]
        assert np.unique(canonical_codes(n, strong)).size == classes


def test_decode_matches_the_adjacency_matrix_of_each_code():
    # every code at n = 1..3, seeded codes up to CANON_CAP, and no codes
    rng = np.random.default_rng(1600)
    for n in range(1, 9):
        bits = n * (n - 1)
        if n <= 3:
            codes = np.arange(1 << bits)
        else:
            codes = rng.integers(0, 1 << bits, size=200, dtype=np.int64)
        adj = _decode(n, codes)
        assert adj.shape == (codes.size, n, n) and adj.dtype == np.uint8
        for a, code in zip(adj, codes.tolist()):
            assert np.array_equal(a, digraph_from_code(n, code).adjacency_matrix())
        assert _decode(n, np.zeros(0, dtype=np.int64)).shape == (0, n, n)


def test_strong_matches_the_oracle_on_each_code():
    # every code at n = 1..3, seeded codes up to CANON_CAP (dense ones and
    # sparse ones, an AND of two, so both answers occur), and no codes
    rng = np.random.default_rng(1601)
    for n in range(1, 9):
        bits = n * (n - 1)
        if n <= 3:
            codes = np.arange(1 << bits)
        else:
            dense = rng.integers(0, 1 << bits, size=(2, 200), dtype=np.int64)
            codes = np.concatenate([dense[0], dense[0] & dense[1]])
        want = [oracle_strong(digraph_from_code(n, c)) for c in codes.tolist()]
        got = _strong(n, codes)
        assert got.dtype == bool and got.tolist() == want
        if n >= 3:
            assert 0 < sum(want) < len(want)
        assert _strong(n, np.zeros(0, dtype=np.int64)).shape == (0,)


def test_canonical_code_order_cap():
    assert is_isomorphic(k_nkm(8, 2, 3), k_nkm(8, 2, 3).relabel([7, 6, 5, 4, 3, 2, 1, 0]))
    # orders that differ answer False before any canonical code is computed
    assert not is_isomorphic(cycle(3), cycle(9))
    with pytest.raises(ValueError, match="n <= 8"):
        is_isomorphic(cycle(9), cycle(9))
    with pytest.raises(ValueError, match="out of range"):
        canonical_codes(3, [1 << 6])
    empty = canonical_codes(3, [])
    assert empty.shape == (0,) and empty.dtype == np.int64


@pytest.mark.parametrize("n, codes, match", [
    (3, [1.7], "float64"),
    (3, [[1, 2], [3, 4]], r"\(2, 2\)"),
    (3, 5, r"\(\)"),
    (0, [0], "n=0"),
    (9, [0], "n=9"),
])
def test_canonical_codes_refuse_malformed_input(n, codes, match):
    with pytest.raises(ValueError, match=match):
        canonical_codes(n, codes)


def test_tournament_growth_weights_sum_to_the_labelled_tournaments():
    # at n = 7 the 5040 relabellings take four blocks of _canonical, so each
    # |Aut| adds up across blocks; n!/|Aut| over the tournament classes is
    # the number of labelled tournaments, 2^(n(n-1)/2)
    classes = np.zeros(1, dtype=np.int64)
    for m in range(2, 8):
        beats = _bit_rows(m - 1)
        classes, automorphisms = _grow(m, classes, np.hstack([beats, 1 - beats]))
        if m >= 6:
            assert int((math.factorial(m) // automorphisms).sum()) == 2 ** (m * (m - 1) // 2)


@pytest.mark.parametrize("n, want", [(7, [5040, 7, 1]), (8, [40320, 8, 1])])
def test_automorphism_counts_add_across_permutation_blocks(n, want):
    # the complete digraph, the directed cycle and the transitive tournament
    transitive = from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    codes = np.array([code_of_digraph(g) for g in (complete(n), cycle(n), transitive)])
    canon, count = _canonical(n, codes)
    assert np.array_equal(canon, canonical_codes(n, codes))
    assert count.tolist() == want


def test_automorphism_count_matches_the_unblocked_lookup():
    # ten dense codes and ten sparse ones (a cell in 8), which have
    # isolated vertices and so automorphisms
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 1 << 42, size=(3, 20), dtype=np.int64)
    codes = np.concatenate([bits[0, :10], (bits[0] & bits[1] & bits[2])[10:]])
    canon, count = _canonical(7, codes)
    relabelled = _relabel(_piece_tables(_cell_perms(7)), codes)  # 31 MB of tables
    assert np.array_equal(canon, relabelled.min(axis=1))
    assert np.array_equal(count, (relabelled == canon[:, None]).sum(axis=1))
    assert count.max() > 1


def test_isomorphism_invariance_of_parameters():
    import random

    rng = random.Random(99)
    g = b_nd(6, 3)
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert girth(h) == girth(g)
        assert clique_number(h) == clique_number(g)
        assert vertex_connectivity(h) == vertex_connectivity(g)
        assert arc_connectivity(h) == arc_connectivity(g)


# ---------------------------------------------------------------------------
# text format

def test_text_roundtrip_simple():
    g = b_nd(5, 2)
    assert from_text(to_text(g)) == g


def test_text_format_shape():
    text = to_text(cycle(3))
    lines = text.strip().split("\n")
    assert lines[0] == "n 3"
    assert lines[1:] == ["0 1", "1 2", "2 0"]


def test_text_comments_and_blanks():
    text = "# a comment\nn 3\n\n0 1\n# more\n1 2\n2 0\n"
    assert from_text(text) == cycle(3)


def test_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        from_text("n 3\n0 x\n")
    with pytest.raises(ValueError, match="header"):
        from_text("0 1\n")
    with pytest.raises(ValueError, match="line 3"):
        from_text("n 2\n0 1\n0 5\n")
    with pytest.raises(ValueError):
        from_text("n 2\nn 2\n0 1\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_text_roundtrip_random(n, data):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    picked = data.draw(st.sets(st.sampled_from(cells)) if cells else st.just(set()))
    g = from_arcs(n, picked)
    assert from_text(to_text(g)) == g
