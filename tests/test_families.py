"""Family generators: shapes, invariants, and a few frozen radii.

Golden values were computed once from the defining polynomials (for example
the order-4 girth-2 minimizer satisfies x^4 = x^2 + 1, so its radius is the
square root of the golden ratio) and are asserted to 1e-9.
"""
import itertools
import math

import numpy as np
import pytest

from alphaspec import (
    arc_connectivity,
    b_nd,
    build_family,
    c_ng,
    circulant,
    clique_number,
    complete,
    cycle,
    degree_profile,
    g0,
    girth,
    h4,
    is_isomorphic,
    is_strongly_connected,
    k_nkm,
    path,
    spectral_radius,
    spectral_radius_general,
    tournament,
    vertex_connectivity,
)
from alphaspec import families, spectral
from alphaspec.digraph import (
    _decode,
    canonical_codes,
    code_of_digraph,
    digraph_from_code,
)
from alphaspec.spectral import DEFAULT_TOL, ConvergenceError, _component_enclosures

SQRT_GOLDEN = math.sqrt((1 + math.sqrt(5)) / 2)


# ---------------------------------------------------------------------------
# basic families

def test_path_cycle_complete_shapes():
    assert path(4).num_arcs == 3 and not is_strongly_connected(path(4))
    assert path(1).n == 1
    assert cycle(5).num_arcs == 5 and girth(cycle(5)) == 5
    assert complete(5).num_arcs == 20 and clique_number(complete(5)) == 5


def test_basic_validation():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(1)
    with pytest.raises(ValueError):
        complete(0)


# ---------------------------------------------------------------------------
# cycle-with-tail minimizers

def test_c_ng_structure():
    for n, g in ((5, 2), (6, 3), (7, 6), (4, 2), (9, 4)):
        G = c_ng(n, g)
        assert G.num_arcs == n + 1
        assert is_strongly_connected(G)
        assert girth(G) == g


def test_c_ng_primed_closes_shorter_cycle():
    G = c_ng(7, 3, primed=True)
    assert is_strongly_connected(G)
    # the primed re-entry closes a cycle of length n - g + 1 = 5
    assert girth(G) == 3
    assert G.has_arc(6, 2) and not G.has_arc(6, 0)


def test_c_ng_validation():
    with pytest.raises(ValueError):
        c_ng(5, 1)
    with pytest.raises(ValueError):
        c_ng(5, 5)


def test_c_ng_frozen_radius():
    assert spectral_radius(c_ng(4, 2), 0.0).radius == pytest.approx(
        SQRT_GOLDEN, abs=1e-9
    )
    # pure cycle limit: g = n - 1 keeps the radius just above 1
    r = spectral_radius(c_ng(8, 7), 0.0).radius
    assert 1.0 < r < 1.1


def test_c_ng_radius_decreases_in_g():
    radii = [spectral_radius(c_ng(7, g), 0.3).radius for g in range(2, 7)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


# ---------------------------------------------------------------------------
# clique-with-tail minimizers

def test_b_nd_structure():
    for n, d in ((5, 3), (6, 2), (7, 5), (8, 4)):
        G = b_nd(n, d)
        assert G.num_arcs == d * (d - 1) + (n - d) + 1
        assert is_strongly_connected(G)
        assert clique_number(G) == d


def test_b_nd_primed_structure():
    G = b_nd(6, 3, primed=True)
    assert is_strongly_connected(G)
    assert clique_number(G) == 3
    # path returns to its start instead of a fresh clique vertex
    assert G.has_arc(2, 3) and not G.has_arc(2, 5)


def test_b_nd_validation():
    with pytest.raises(ValueError):
        b_nd(5, 1)
    with pytest.raises(ValueError):
        b_nd(5, 5)


def test_b_nd_radius_increases_in_d():
    radii = [spectral_radius(b_nd(7, d), 0.5).radius for d in range(2, 7)]
    assert all(a < b for a, b in zip(radii, radii[1:]))
    # a clique on d vertices inside forces radius > d - 1
    assert radii[-1] > 5.0


# ---------------------------------------------------------------------------
# split-like maximizers

def test_k_nkm_structure():
    G = k_nkm(7, 3, 2)
    assert is_strongly_connected(G)
    assert vertex_connectivity(G) == 3
    # largest clique: the cut plus the bigger side
    assert clique_number(G) == 3 + max(2, 7 - 3 - 2)
    prof = degree_profile(G)
    assert prof.max_out == 6  # cut vertices reach everything


def test_k_nkm_one_way_arcs():
    G = k_nkm(6, 2, 1)
    # V1 = {0}, S = {1, 2}, V2 = {3, 4, 5}
    assert G.has_arc(0, 3) and not G.has_arc(3, 0)
    assert G.has_arc(1, 0) and G.has_arc(0, 1)


def test_k_nkm_validation():
    for bad in ((5, 0, 1), (5, 1, 0), (5, 4, 1), (5, 1, 4)):
        with pytest.raises(ValueError):
            k_nkm(*bad)


# ---------------------------------------------------------------------------
# tournaments

def test_tournament_arc_counts():
    for kind, n in (("transitive", 6), ("rotational", 5), ("brualdi_li", 6)):
        assert tournament(kind, n).num_arcs == n * (n - 1) // 2


def test_transitive_is_acyclic():
    assert girth(tournament("transitive", 5)) is None


def test_rotational_is_regular():
    prof = degree_profile(tournament("rotational", 7))
    assert set(prof.out_degrees) == {3}
    with pytest.raises(ValueError):
        tournament("rotational", 6)


def test_rotational_radius_is_half_degree():
    assert spectral_radius(tournament("rotational", 5), 0.0).radius == pytest.approx(
        2.0, abs=1e-10
    )


def test_brualdi_li_even_only():
    with pytest.raises(ValueError):
        tournament("brualdi_li", 5)
    assert is_strongly_connected(tournament("brualdi_li", 6))


def test_bruteforce_recovers_known_maximizers():
    # order 4: the exhaustive search ties the two-transitive-halves value
    bf = spectral_radius_general(tournament("extremal_bruteforce", 4, 0.0), 0.0)
    bl = spectral_radius_general(tournament("brualdi_li", 4), 0.0)
    assert bf == pytest.approx(bl, abs=1e-10)
    # order 5 at alpha > 0: nothing beats the regular tournament
    bf = spectral_radius_general(tournament("extremal_bruteforce", 5, 0.5), 0.5)
    assert bf == pytest.approx(2.0, abs=1e-10)


def test_bruteforce_runs_at_eight_without_a_flag(monkeypatch):
    # a few classes stand in for the 6,880 at n = 8, which take seconds
    codes = sorted(code_of_digraph(t) for t in (tournament("transitive", 8),
                                                tournament("brualdi_li", 8)))
    monkeypatch.setattr(families, "_tournament_classes", lambda n: np.array(codes))
    assert tournament("extremal_bruteforce", 8, 0.0) == tournament("brualdi_li", 8)
    # every tournament has radius 7/2 at alpha = 1/2: the smallest code wins
    assert tournament("extremal_bruteforce", 8, 0.5) == digraph_from_code(8, codes[0])
    # g0 with parts of 8 searches too: two such tournaments, all digons between
    G = g0(16, 2, 0.5)
    assert frozenset(a for a in G.arcs if max(a) < 8) == digraph_from_code(8, codes[0]).arcs
    assert G.num_arcs == 2 * 28 + 2 * 8 * 8


def test_bruteforce_guard_rails():
    assert _is_tournament(tournament("extremal_bruteforce", 7, 0.0))
    with pytest.raises(ValueError):
        tournament("extremal_bruteforce", 9, 0.0)
    with pytest.raises(ValueError):
        tournament("round_robin", 4)
    # the search ranks alpha matrices, which exist only for 0 <= alpha < 1
    for search in (
        lambda: tournament("extremal_bruteforce", 4, alpha=1.5),
        lambda: tournament("extremal_bruteforce", 1, alpha=-0.5),
        lambda: g0(6, 2, 2.0),
    ):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
            search()


def _is_tournament(T) -> bool:
    """Exactly one arc between every two vertices (loops cannot occur)."""
    return all(
        T.has_arc(i, j) != T.has_arc(j, i) for i in range(T.n) for j in range(i + 1, T.n)
    )


def _eig_radius(adj: np.ndarray, alpha: float) -> np.ndarray:
    """Spectral radii of alpha*D + (1-alpha)*A by dense eigenvalues, for an
    adjacency matrix or a stack of them."""
    n = adj.shape[-1]
    mats = (1.0 - alpha) * adj + alpha * adj.sum(axis=-1)[..., None] * np.eye(n)
    return np.abs(np.linalg.eigvals(mats)).max(axis=-1)


def _labelled_tournament_max(n: int, alpha: float) -> float:
    """Largest radius over all 2^(n(n-1)/2) labelled tournaments: the
    exhaustive search over orientations, kept here as the reference."""
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
    bits = (np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1
    adj = np.zeros((len(bits), n, n))
    adj[:, pairs[:, 0], pairs[:, 1]] = bits
    adj[:, pairs[:, 1], pairs[:, 0]] = 1 - bits
    return float(_eig_radius(adj, alpha).max())


def _class_enclosures(n: int, alpha: float):
    """The classes of tournaments on n vertices and the certified enclosures
    of their radii, as the search computes them."""
    classes = families._tournament_classes(n)
    adj = _decode(n, classes)
    return classes, *_component_enclosures(adj, alpha, DEFAULT_TOL)


def test_tournament_class_counts():
    # tournaments up to isomorphism, OEIS A000568
    counts = []
    for n in range(2, 8):
        classes = families._tournament_classes(n)
        assert np.all(np.diff(classes) > 0)
        assert np.array_equal(canonical_codes(n, classes), classes)
        assert all(_is_tournament(digraph_from_code(n, c)) for c in classes.tolist())
        counts.append(classes.size)
    assert counts == [1, 2, 4, 12, 56, 456]


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_tournament_search_attains_labelled_maximum(alpha):
    for n in range(1, 6):
        T = tournament("extremal_bruteforce", n, alpha)
        assert _is_tournament(T)
        best = _labelled_tournament_max(n, alpha)
        assert float(_eig_radius(T.adjacency_matrix(), alpha)) == pytest.approx(best, abs=1e-9)


def test_tournament_search_returns_least_overlapping_class():
    for n in (3, 4, 5, 6):
        for alpha in (0.0, 0.01, 0.1, 0.25, 0.5, 0.9):
            classes, lo, hi = _class_enclosures(n, alpha)
            assert np.all(lo <= hi)
            overlapping = classes[hi >= lo.max()]
            T = tournament("extremal_bruteforce", n, alpha)
            assert canonical_codes(n, [code_of_digraph(T)])[0] == overlapping.min()


def test_tournament_enclosures_hold_half_degree_at_alpha_half():
    # the columns of D + A sum to n - 1 in every tournament, so at alpha = 1/2
    # every class, reducible or not, has radius (n - 1) / 2 exactly
    for n in range(2, 8):
        _, lo, hi = _class_enclosures(n, 0.5)
        assert np.all(lo <= (n - 1) / 2) and np.all((n - 1) / 2 <= hi)


def test_tournament_search_order_7_is_rotational():
    assert is_isomorphic(tournament("extremal_bruteforce", 7, 0.0), tournament("rotational", 7))


# ---------------------------------------------------------------------------
# partitioned maximizer candidates

def test_g0_partition_and_digons():
    G = g0(6, 2, 0.0)
    assert is_strongly_connected(G)
    assert girth(G) == 2
    # each vertex: 2 arcs inside its 3-part tournament shape (1 out) plus
    # digons to the 3 vertices of the other part
    assert set(degree_profile(G).out_degrees) == {4}


def test_g0_single_part_is_a_tournament():
    assert g0(6, 1, 0.0) == tournament("brualdi_li", 6)
    assert g0(5, 1, 0.0) == tournament("rotational", 5)


def test_g0_d_equals_n_is_complete():
    assert g0(5, 5, 0.0) == complete(5)


def test_g0_alpha_positive_uses_search():
    G = g0(5, 2, 0.25)
    assert is_strongly_connected(G)
    assert G.num_arcs == 2 * 2 * 3 + 1 + 3  # cross digons + inner orientations


def test_g0_validation():
    with pytest.raises(ValueError):
        g0(5, 0, 0.0)
    with pytest.raises(ValueError):
        g0(5, 6, 0.0)


def test_h4_structure():
    G = h4(8, 1, 3)
    assert G.num_arcs == 3 * 2 + 5 * 4 + 5 * 3 + 1
    assert is_strongly_connected(G)
    assert clique_number(G) == 5
    with pytest.raises(ValueError):
        h4(8, 2, 3)  # needs a >= k + 2
    with pytest.raises(ValueError):
        h4(8, 0, 4)


# ---------------------------------------------------------------------------
# circulants

def test_circulant_matches_cycle():
    assert circulant(6, [1]) == cycle(6)


def test_circulant_regular_connectivity():
    G = circulant(5, [1, 2])
    assert set(degree_profile(G).out_degrees) == {2}
    assert vertex_connectivity(G) == 2
    assert arc_connectivity(G) == 2
    r = spectral_radius(G, 0.4)
    assert r.radius == pytest.approx(2.0, abs=1e-10)


def test_circulant_validation():
    with pytest.raises(ValueError):
        circulant(5, [])
    with pytest.raises(ValueError):
        circulant(5, [2])  # step 1 missing
    with pytest.raises(ValueError):
        circulant(5, [1, 5])
    with pytest.raises(ValueError):
        circulant(1, [1])


# ---------------------------------------------------------------------------
# dispatch

def test_build_family_dispatch():
    assert build_family("c_ng", n=6, g=3) == c_ng(6, 3)
    assert build_family("k_nkm", n=6, k=2, m=1) == k_nkm(6, 2, 1)
    assert build_family("circulant", n=5, steps=[1, 2]) == circulant(5, [1, 2])
    with pytest.raises(ValueError):
        build_family("noname", n=3)


# one valid set of parameters per family, at an order that is a float
_FLOAT_ORDER = {
    "path": {"n": 5.0},
    "cycle": {"n": 5.0},
    "complete": {"n": 5.0},
    "c_ng": {"n": 5.0, "g": 3},
    "b_nd": {"n": 5.0, "d": 3},
    "k_nkm": {"n": 5.0, "k": 2, "m": 1},
    "tournament": {"kind": "transitive", "n": 5.0},
    "g0": {"n": 5.0, "d": 2, "alpha": 0.0},
    "h4": {"n": 8.0, "k": 1, "a": 3},
    "circulant": {"n": 5.0, "steps": [1, 2]},
}


@pytest.mark.parametrize("name", families.FAMILIES)
def test_generators_refuse_a_non_integer_order(name):
    params = _FLOAT_ORDER[name]
    with pytest.raises(ValueError, match=rf"^n must be an integer, got {params['n']}$"):
        build_family(name, **params)
    # numpy integers stay accepted, and build the same digraph as ints
    as_int = {**params, "n": int(params["n"])}
    as_numpy = {**params, "n": np.int64(params["n"])}
    assert build_family(name, **as_numpy) == build_family(name, **as_int)


def test_tournament_search_failure_names_its_class(monkeypatch):
    # the one strong tournament class at n = 4 is a block of size 4; a
    # kernel that stalls on it names that class, not the block's place
    classes = families._tournament_classes(4)
    strong = [c for c in classes.tolist() if is_strongly_connected(digraph_from_code(4, c))]
    assert len(strong) == 1 and strong[0] != classes[0]
    real = spectral._certify

    def stalls_on_four(mats, tol):
        if mats.shape[-1] == 4:
            raise ConvergenceError(0.0, 1.0, 1, index=0)
        return real(mats, tol)

    monkeypatch.setattr(spectral, "_certify", stalls_on_four)
    with pytest.raises(
        ConvergenceError, match=rf"^tournament class {strong[0]} at alpha 0\.5: no certificate"
    ):
        tournament("extremal_bruteforce", 4, 0.5)


def test_generators_are_deterministic():
    assert g0(7, 2, 0.3) == g0(7, 2, 0.3)
    assert tournament("extremal_bruteforce", 5, 0.3) == tournament(
        "extremal_bruteforce", 5, 0.3
    )


def test_relabel_invariance_of_radius():
    G = k_nkm(6, 2, 1)
    H = G.relabel([5, 4, 3, 2, 1, 0])
    assert is_isomorphic(G, H)
    assert spectral_radius(H, 0.5).radius == pytest.approx(
        spectral_radius(G, 0.5).radius, abs=2e-10
    )
