"""The certified radius kernel checked against dense eigensolves and exact
rational Collatz-Wielandt intervals.

numpy.linalg.eigvals is the oracle: it shares no code with the kernel's
inverse iteration and is accurate to ~1e-13 on these tiny matrices, far
below the 1e-10 certificates under test.  Where a certificate must hold to
the last bit, _exact_cw_interval re-evaluates it in Fraction arithmetic.
"""
import pickle
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from alphaspec import (
    AlphaMatrix,
    ConvergenceError,
    NotStronglyConnected,
    alpha_matrix,
    b_nd,
    batch_cw_radius,
    c_ng,
    circulant,
    collatz_wielandt_bounds,
    complete,
    cycle,
    from_arcs,
    k_nkm,
    path,
    quotient_matrix,
    spectral_radius,
    spectral_radius_general,
    tournament,
)
from alphaspec import spectral
from alphaspec.oracle import digraph_from_code
from alphaspec.spectral import _widening

TOL = 1e-10
GRID5 = (0.0, 0.3, 0.5, 0.7, 0.9)
# a matrix that needs more than three checks alone: at alpha 0.99 LAPACK's
# eigenvector loses the tiny entries of its Perron vector
SLOW = (c_ng(8, 3), 0.99)


def eig_radius(entries):
    return float(np.abs(np.linalg.eigvals(entries)).max())


def random_strong(rng, n):
    # a random hamiltonian cycle plus random extra arcs is always strong
    perm = rng.permutation(n)
    arcs = {(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.35:
                arcs.add((u, v))
    return from_arcs(n, arcs)


# ---------------------------------------------------------------------------
# alpha matrix

def test_alpha_matrix_entries():
    m = alpha_matrix(cycle(3), 0.25)
    assert isinstance(m, AlphaMatrix)
    assert m.n == 3 and m.alpha == 0.25
    expect = np.array([[0.25, 0.75, 0.0], [0.0, 0.25, 0.75], [0.75, 0.0, 0.25]])
    assert np.array_equal(m.entries, expect)


def test_alpha_matrix_alpha_zero_is_adjacency():
    g = b_nd(5, 3)
    assert np.array_equal(alpha_matrix(g, 0.0).entries, g.adjacency_matrix())


@pytest.mark.parametrize(
    "shape, dtype",
    [((7, 7), np.float64), ((40, 6, 6), np.float64), ((40, 6, 6), np.uint8)],
    ids=["matrix", "float-stack", "uint8-stack"],
)
def test_alpha_entries_match_the_fancy_index_form(shape, dtype):
    # the degrees go onto a strided view of the diagonal; the subdivision
    # sweep builds its stacks in uint8
    rng = np.random.default_rng(8)
    adj = (rng.random(shape) < 0.4).astype(dtype)
    for alpha in (0.0, 0.3, 1 / 3, 0.5, 0.9999):
        want = (1.0 - alpha) * adj
        idx = np.arange(shape[-1])
        want[..., idx, idx] += alpha * adj.sum(axis=-1)
        got = spectral._alpha_entries(adj, alpha)
        assert got.dtype == np.float64 and got.shape == shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), alpha


def test_alpha_validation():
    for bad in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            alpha_matrix(cycle(3), bad)


# ---------------------------------------------------------------------------
# Collatz-Wielandt quotients

def test_cw_bounds_all_ones_frozen():
    # row sums of A_alpha(K(6,2,1)) are the out-degrees for every alpha
    m = alpha_matrix(k_nkm(6, 2, 1), 0.0)
    assert collatz_wielandt_bounds(m, np.ones(6)) == (4.0, 5.0)
    m = alpha_matrix(k_nkm(6, 2, 1), 0.5)
    assert collatz_wielandt_bounds(m, np.ones(6)) == (4.0, 5.0)


def test_cw_bounds_enclose_radius():
    rng = np.random.default_rng(7)
    g = k_nkm(7, 3, 2)
    m = alpha_matrix(g, 0.3)
    rho = eig_radius(m.entries)
    for _ in range(20):
        x = rng.uniform(0.1, 2.0, size=7)
        lo, hi = collatz_wielandt_bounds(m, x)
        assert lo <= rho + 1e-12 <= hi + 2e-12


def test_cw_bounds_exact_at_perron_vector():
    g = c_ng(6, 3)
    res = spectral_radius(g, 0.4)
    lo, hi = collatz_wielandt_bounds(alpha_matrix(g, 0.4), res.perron)
    assert hi - lo <= 2 * TOL
    assert lo <= res.radius <= hi


def test_cw_bounds_reject_bad_vectors():
    m = alpha_matrix(cycle(3), 0.0)
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(m, [1.0, 1.0])
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(m, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(m, [1.0, -1.0, 1.0])


@pytest.mark.parametrize(
    "entry, where",
    [
        pytest.param(np.inf, "vector", id="inf-vector"),
        pytest.param(np.nan, "vector", id="nan-vector"),
        pytest.param(np.nan, "matrix", id="nan-matrix"),
        pytest.param(np.inf, "matrix", id="inf-matrix"),
        pytest.param(-1.0, "matrix", id="negative-matrix"),
    ],
)
def test_cw_bounds_refuse_entries_they_cannot_bound(entry, where):
    # an infinite vector entry or a NaN matrix entry came back as (nan, nan)
    # and a negative matrix entry as (-0.5, 1.0), no bound on a Perron root
    m = alpha_matrix(cycle(3), 0.5).entries.copy()
    x = np.ones(3)
    if where == "vector":
        x[1] = entry
        match = r"test vector must be strictly positive and finite; entry 1 is"
    else:
        m[2, 0] = entry
        match = r"matrix entry \(2, 0\) is"
    with pytest.raises(ValueError, match=match):
        collatz_wielandt_bounds(m, x)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_cw_bounds_refuse_a_matrix_that_is_not_square_2d(shape):
    # a (2, 3) matrix failed inside matmul
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        collatz_wielandt_bounds(np.ones(shape), [1.0, 1.0])


def test_cw_bounds_accept_plain_arrays():
    a = cycle(4).adjacency_matrix()
    assert collatz_wielandt_bounds(a, np.ones(4)) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# certified spectral radius

def test_cycle_radius_is_one_for_all_alpha():
    for alpha in (0.0, 0.3, 0.5, 0.9, 0.99):
        res = spectral_radius(cycle(5), alpha)
        assert res.certificate_lo <= 1.0 <= res.certificate_hi
        assert abs(res.radius - 1.0) <= TOL


def test_complete_radius_is_n_minus_one():
    for alpha in (0.0, 0.5, 0.8):
        res = spectral_radius(complete(7), alpha)
        assert abs(res.radius - 6.0) <= TOL
        assert res.iterations >= 1


def test_certificate_encloses_eigenvalue():
    rng = np.random.default_rng(20250819)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        g = random_strong(rng, n)
        alpha = float(rng.uniform(0.0, 0.95))
        res = spectral_radius(g, alpha)
        rho = eig_radius(alpha_matrix(g, alpha).entries)
        assert res.certificate_lo - 1e-12 <= rho <= res.certificate_hi + 1e-12
        assert res.certificate_hi - res.certificate_lo <= TOL
        assert abs(res.radius - rho) <= TOL


def test_perron_vector_properties():
    g = k_nkm(6, 2, 3)
    res = spectral_radius(g, 0.5)
    assert (res.perron > 0.0).all()
    assert abs(res.perron.sum() - 1.0) <= 1e-12
    m = alpha_matrix(g, 0.5).entries
    assert np.abs(m @ res.perron - res.radius * res.perron).max() <= 1e-8


def test_not_strong_rejected():
    with pytest.raises(NotStronglyConnected):
        spectral_radius(path(4), 0.0)


def test_convergence_error_carries_state(monkeypatch):
    # SLOW certifies at check 5; most matrices certify at check 2
    g, alpha = SLOW
    monkeypatch.setattr(spectral, "_MAX_ITERS", 3)
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(g, alpha)
    assert err.value.iterations == 3
    assert err.value.lo < err.value.hi


def test_tight_tol_still_converges():
    res = spectral_radius(b_nd(7, 3), 0.5, tol=1e-13)
    assert res.certificate_hi - res.certificate_lo <= 1e-13


@pytest.mark.parametrize("failure", ["singular", "sign"])
def test_failed_solves_cost_iterations_not_the_certificate(monkeypatch, failure):
    # every eig and every solve fails, so each step falls back to a power
    # step on M + I; every stack below the elimination crossover takes
    # np.linalg.eig and np.linalg.solve
    g = k_nkm(6, 2, 1)
    want = spectral_radius(g, 0.3)

    def broken(a, b):
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        z = b.copy()
        z[0] *= -1.0
        return z

    def broken_eig(a):
        if failure == "singular":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        # a zero entry: abs(real(.)) is not positive
        v = np.ones_like(a)
        v[0] = 0.0
        return np.ones(len(a)), v

    monkeypatch.setattr(np.linalg, "solve", broken)
    monkeypatch.setattr(np.linalg, "eig", broken_eig)
    res = spectral_radius(g, 0.3)
    assert res.iterations > want.iterations
    for copies in (1, spectral._ELIMINATION_MIN - 1):
        stack = _alpha_stack([g] * copies, 0.3)
        _mid, lo, hi, perron, its = spectral._certify(stack, TOL)
        assert (its == res.iterations).all()
        assert (lo <= want.radius).all() and (want.radius <= hi).all()
        assert (hi - lo <= TOL).all()
        assert (perron > 0.0).all()


def test_tol_below_rounding_floor_stops_at_once():
    # every quotient of K_12 at the all-equal vector is 11, so only the
    # outward rounding of the certificate is left, a few 1e-14 wide
    with pytest.raises(ConvergenceError, match="below the rounding floor") as err:
        spectral_radius(complete(12), 0.5, tol=1e-15)
    assert err.value.iterations == 1
    assert err.value.tol == 1e-15 < err.value.floor < 1e-13
    assert err.value.lo < 11.0 < err.value.hi
    back = pickle.loads(pickle.dumps(err.value))
    assert str(back) == str(err.value) and (back.floor, back.tol) == (err.value.floor, 1e-15)
    # the directed 12-cycle's floor is below 1e-14, that of K_12 is not
    stack = _alpha_stack([cycle(12), complete(12)], 0.5)
    with pytest.raises(ConvergenceError, match="below the rounding floor") as err:
        batch_cw_radius(stack, tol=1e-14)
    assert err.value.index == 1


@pytest.mark.parametrize("g, alpha", [(complete(12), 0.5), (b_nd(12, 3), 0.7)])
def test_tol_just_above_rounding_floor_stops_when_stalled(g, alpha):
    # a tol just above the floor is still below the spread of the float
    # quotients, so the width stops narrowing; at the default cap the kernel
    # would spin for about 10 s
    f_lo, f_hi = _widening(g.n)
    floor = spectral_radius(g, alpha).certificate_lo * (f_hi - f_lo) / f_hi
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="stopped narrowing above tol") as err:
        spectral_radius(g, alpha, tol=1.1 * floor)
    assert time.perf_counter() - start < 0.5
    assert err.value.iterations < 100
    assert err.value.tol < err.value.hi - err.value.lo
    assert err.value.floor == pytest.approx(floor, rel=1e-12)
    back = pickle.loads(pickle.dumps(err.value))
    assert str(back) == str(err.value)
    # a little more room certifies
    res = spectral_radius(g, alpha, tol=1.5 * floor)
    assert res.certificate_hi - res.certificate_lo <= 1.5 * floor


# ---------------------------------------------------------------------------
# exact enclosure

def _exact_cw_interval(G, alpha, x):
    """Exact (min, max) Collatz-Wielandt quotients of
    Fraction(alpha)*D + (1 - Fraction(alpha))*A at the positive vector x.

    Built from the arc set alone and evaluated in Fraction arithmetic (the
    doubles alpha and x read exactly), sharing no code with spectral.py; for
    strongly connected G the interval holds the exact Perron root.
    """
    a = Fraction(alpha)
    xs = [Fraction(float(v)) for v in x]
    assert all(v > 0 for v in xs)
    out = [[] for _ in range(G.n)]
    for u, v in G.arcs:
        out[u].append(v)
    quotients = [
        a * len(out[i]) + (1 - a) * sum(xs[j] for j in out[i]) / xs[i] for i in range(G.n)
    ]
    return min(quotients), max(quotients)


@pytest.mark.parametrize(
    "g, alpha, tol",
    [
        # float quotients all round to one value below the exact radius 3
        (circulant(4, {1, 2, 3}), 0.3, TOL),
        (c_ng(9, 2), 0.9, TOL),
        (b_nd(12, 3), 0.7, 1e-13),
    ],
    ids=["circulant-4-123", "c_ng-9-2", "b_nd-12-3"],
)
def test_enclosure_contains_exact_interval(g, alpha, tol):
    res = spectral_radius(g, alpha, tol=tol)
    lo, hi = _exact_cw_interval(g, alpha, res.perron)
    assert res.certificate_lo <= lo <= hi <= res.certificate_hi
    assert res.certificate_hi - res.certificate_lo <= tol
    # batch_cw_radius certifies the same matrix among others the same way
    stack = _alpha_stack([cycle(g.n), g, complete(g.n)], alpha)
    _rad, b_lo, b_hi, _its = batch_cw_radius(stack, tol=tol)
    assert b_lo[1] <= lo <= hi <= b_hi[1]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 0.99])
def test_one_matrix_path_agrees_with_the_batched_path(alpha):
    # spectral_radius and a stack of two copies both run the one-matrix loop,
    # so they agree bit for bit; a block of _ELIMINATION_MIN copies runs the
    # elimination loop, whose solves round differently, so it only encloses
    # the exact interval of its own Perron vector within tol as well
    rng = np.random.default_rng(2024)
    for n in range(2, 9):
        for _ in range(5):
            g = random_strong(rng, n)
            one = spectral_radius(g, alpha)
            _mid, lo, hi, its = batch_cw_radius(_alpha_stack([g, g], alpha))
            assert (its == one.iterations).all(), (n, alpha)
            assert (lo == one.certificate_lo).all() and (hi == one.certificate_hi).all()
            exact_lo, exact_hi = _exact_cw_interval(g, alpha, one.perron)
            assert one.certificate_lo <= exact_lo <= exact_hi <= one.certificate_hi
            assert (lo <= exact_lo).all() and (exact_hi <= hi).all()
            assert one.certificate_hi - one.certificate_lo <= TOL
            block = _alpha_stack([g] * spectral._ELIMINATION_MIN, alpha)
            _mid, lo, hi, perron, _its = spectral._certify(block, TOL)
            assert (hi - lo <= TOL).all(), (n, alpha)
            for i in range(len(block)):
                exact_lo, exact_hi = _exact_cw_interval(g, alpha, perron[i])
                assert lo[i] <= exact_lo <= exact_hi <= hi[i], (n, alpha, i)


def _family_grid():
    """The family sweeps' digraphs: c_ng and b_nd, base and primed, at
    n = 3..12, and every k_nkm at n <= 10."""
    graphs = [
        fam(n, p, primed=primed)
        for fam in (c_ng, b_nd)
        for n in range(3, 13)
        for p in range(2, n)
        for primed in (False, True)
    ]
    graphs += [
        k_nkm(n, k, m) for n in range(3, 11) for k in range(1, n) for m in range(1, n - k)
    ]
    return graphs


@pytest.mark.parametrize(
    "alphas, tol, budget",
    [
        pytest.param(GRID5, TOL, 4, id="grid5-1e-10"),
        pytest.param(GRID5, 1e-13, 5, id="grid5-1e-13"),
        pytest.param((0.95, 0.99, 0.995, 0.999, 0.9999), TOL, 12, id="near-one"),
    ],
)
def test_one_matrix_iteration_budget(alphas, tol, budget):
    # eig's Perron vector as the second iterate certifies most of the family
    # grid at check 2; the all-equal start with shifted solves alone took 5-8
    # on GRID5 and up to 11 near alpha 1.  There eig loses the tiny entries
    # of some Perron vectors, and a shift from that check's enclosure, not
    # the tightest so far, took up to 211 checks
    its = [spectral_radius(g, a, tol=tol).iterations for g in _family_grid() for a in alphas]
    assert len(its) == 1700
    assert max(its) <= budget
    assert np.median(its) <= 3


@pytest.mark.parametrize("mock", ["raises", "sign-mixed"])
def test_a_failed_eig_start_falls_back_to_the_shifted_solve(monkeypatch, mock):
    cases = [(k_nkm(6, 2, 1), 0.3), (c_ng(9, 2), 0.5), (b_nd(7, 3, primed=True), 0.7)]
    want = [spectral_radius(g, a) for g, a in cases]

    def broken_eig(a):
        if mock == "raises":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        # the largest eigenvalue's column alternates in sign; abs(real(.))
        # of it is positive but no Perron vector
        n = len(a)
        v = np.eye(n)
        v[:, 0] = (-1.0) ** np.arange(n) * np.arange(1, n + 1)
        return np.arange(n, 0, -1, dtype=np.float64), v

    monkeypatch.setattr(np.linalg, "eig", broken_eig)
    for (g, a), ref in zip(cases, want):
        res = spectral_radius(g, a)
        assert res.iterations > ref.iterations
        assert res.certificate_hi - res.certificate_lo <= TOL
        exact_lo, exact_hi = _exact_cw_interval(g, a, res.perron)
        assert res.certificate_lo <= exact_lo <= exact_hi <= res.certificate_hi
        # both enclose the same root, so they overlap
        assert max(res.certificate_lo, ref.certificate_lo) <= min(
            res.certificate_hi, ref.certificate_hi
        )


@pytest.mark.parametrize(
    "g, alpha, tol, cap",
    [
        pytest.param(complete(12), 0.5, 1e-15, None, id="floor"),
        pytest.param(complete(12), 0.5, "stall", None, id="stall-complete-12"),
        pytest.param(b_nd(12, 3), 0.7, "stall", None, id="stall-b_nd-12-3"),
        pytest.param(*SLOW, TOL, 3, id="cap"),
    ],
)
def test_one_matrix_path_fails_as_the_batched_path(monkeypatch, g, alpha, tol, cap):
    if tol == "stall":
        f_lo, f_hi = _widening(g.n)
        tol = 1.1 * spectral_radius(g, alpha).certificate_lo * (f_hi - f_lo) / f_hi
    if cap is not None:
        monkeypatch.setattr(spectral, "_MAX_ITERS", cap)
    with pytest.raises(ConvergenceError) as one:
        spectral_radius(g, alpha, tol=tol)
    with pytest.raises(ConvergenceError) as two:
        batch_cw_radius(_alpha_stack([g, g], alpha), tol=tol)
    fields = ("iterations", "floor", "tol", "lo", "hi")
    assert one.value.index == two.value.index == 0
    for field in fields:
        assert getattr(one.value, field) == getattr(two.value, field), field
    # the elimination loop fails for the same cause; at the first check it
    # has solved nothing yet, so it fails identically there
    with pytest.raises(ConvergenceError) as block:
        batch_cw_radius(_alpha_stack([g] * spectral._ELIMINATION_MIN, alpha), tol=tol)
    assert block.value.index == 0
    assert (block.value.floor is None) == (one.value.floor is None)
    if cap is not None:
        assert block.value.iterations == cap
    if one.value.iterations == 1:
        for field in fields:
            assert getattr(one.value, field) == getattr(block.value, field), field


# ---------------------------------------------------------------------------
# general (possibly reducible) radius

def test_general_matches_certified_on_strong():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_strong(rng, 5)
        for alpha in (0.0, 0.6):
            assert abs(
                spectral_radius_general(g, alpha) - spectral_radius(g, alpha).radius
            ) <= 2 * TOL


def test_general_on_transitive_tournament():
    # acyclic, so the radius comes from the diagonal: alpha * max out-degree
    g = tournament("transitive", 3)
    assert spectral_radius_general(g, 0.75) == pytest.approx(1.5, abs=TOL)
    assert spectral_radius_general(g, 0.0) == pytest.approx(0.0, abs=TOL)


def test_general_matches_eigvals_on_random_codes():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        g = digraph_from_code(n, int(rng.integers(0, 1 << (n * (n - 1)))))
        alpha = float(rng.uniform(0.0, 0.95))
        rho = eig_radius(alpha_matrix(g, alpha).entries)
        assert spectral_radius_general(g, alpha) == pytest.approx(rho, abs=1e-9)


# ---------------------------------------------------------------------------
# quotient matrices

def test_quotient_of_c4_frozen():
    m = alpha_matrix(cycle(4), 0.3)
    q = quotient_matrix(m, [(0, 2), (1, 3)])
    assert np.allclose(q.entries, [[0.3, 0.7], [0.7, 0.3]], atol=1e-15)
    assert q.partition == ((0, 2), (1, 3))
    assert eig_radius(q.entries) == pytest.approx(1.0, abs=1e-12)


def test_quotient_preserves_radius():
    g = k_nkm(7, 2, 3)
    m = alpha_matrix(g, 0.45)
    # orbit partition of the construction: the m sources, the k-cut, the sinks
    q = quotient_matrix(m, [(0, 1, 2), (3, 4), (5, 6)])
    assert eig_radius(q.entries) == pytest.approx(
        spectral_radius(g, 0.45).radius, abs=1e-9
    )


def test_quotient_rejects_non_equitable():
    m = alpha_matrix(b_nd(5, 3), 0.2)
    with pytest.raises(ValueError, match="not equitable"):
        quotient_matrix(m, [(0, 1, 2), (3, 4)])
    with pytest.raises(
        ValueError, match=re.escape("block pair (0, 1) has row sums varying by 1.600e+00")
    ):
        quotient_matrix(m, [(0, 1, 2), (3, 4)])


def _blockwise_quotient(entries, blocks):
    """Reference: every block pair's row sums from its own submatrix, and the
    first pair in row-major order with the largest spread."""
    t = len(blocks)
    q = np.zeros((t, t))
    worst = (0.0, None)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            sums = entries[np.ix_(bi, bj)].sum(axis=1)
            if sums.max() - sums.min() > worst[0]:
                worst = (sums.max() - sums.min(), (i, j))
            q[i, j] = sums.mean()
    return q, worst[1]


def test_quotient_matches_blockwise_sums():
    rng = np.random.default_rng(44)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        g = random_strong(rng, n)
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        blocks = [tuple(np.flatnonzero(labels == b)) for b in np.unique(labels)]
        # alpha = 0: row sums are small integers, exact in any summation order
        for alpha in (0.0, 0.35):
            m = alpha_matrix(g, alpha).entries
            want, worst = _blockwise_quotient(m, blocks)
            if worst is None:
                assert np.allclose(quotient_matrix(m, blocks).entries, want, rtol=0, atol=1e-12)
            elif alpha == 0.0:
                with pytest.raises(ValueError, match=re.escape(f"block pair {worst} ")):
                    quotient_matrix(m, blocks)


def test_quotient_rejects_bad_partition():
    m = alpha_matrix(cycle(4), 0.0)
    with pytest.raises(ValueError):
        quotient_matrix(m, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        quotient_matrix(m, [(0, 1), (2,)])


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_quotient_refuses_an_empty_block(empty):
    # an empty block failed in numpy's reduction after a RuntimeWarning
    m = alpha_matrix(complete(4), 0.3)
    blocks = [(0, 1), (2, 3)]
    blocks.insert(empty, ())
    with pytest.raises(ValueError, match=f"block {empty} of the partition is empty"):
        quotient_matrix(m, blocks)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_quotient_refuses_entries_that_are_not_finite(entry):
    # a NaN entry passed as equitable, with a quotient full of NaN
    m = alpha_matrix(complete(4), 0.3).entries.copy()
    m[2, 1] = entry
    with pytest.raises(ValueError, match=r"matrix entry \(2, 1\) is .*not finite"):
        quotient_matrix(m, [(0, 1), (2, 3)])


@pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 2)])
def test_quotient_refuses_a_matrix_that_is_not_square_2d(shape):
    # a (2, 3) matrix came back as the quotient [[2.]], a (2, 2, 2) one as a
    # 3-D "quotient"
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        quotient_matrix(np.ones(shape), [(0, 1)])


# ---------------------------------------------------------------------------
# batched iteration

def _alpha_stack(graphs, alpha):
    n = graphs[0].n
    stack = np.zeros((len(graphs), n, n))
    for i, g in enumerate(graphs):
        stack[i] = alpha_matrix(g, alpha).entries
    return stack


def test_batch_matches_scalar_path():
    graphs = [cycle(6), complete(6), k_nkm(6, 2, 1), k_nkm(6, 2, 3), b_nd(6, 3)]
    for alpha in (0.0, 0.5):
        rad, lo, hi, its = batch_cw_radius(_alpha_stack(graphs, alpha))
        assert rad.shape == lo.shape == hi.shape == its.shape == (5,)
        for i, g in enumerate(graphs):
            ref = spectral_radius(g, alpha)
            assert abs(rad[i] - ref.radius) <= 2 * TOL
            assert lo[i] <= rad[i] <= hi[i]
            assert hi[i] - lo[i] <= TOL
            assert its[i] >= 1


def test_batch_deterministic_rerun():
    rng = np.random.default_rng(12)
    graphs = [random_strong(rng, 5) for _ in range(200)]
    stack = _alpha_stack(graphs, 0.3)
    first = batch_cw_radius(stack)
    second = batch_cw_radius(stack)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_batch_compaction_freezes_early_entries():
    # many instant-converging cycles around one slow matrix exercises the
    # in-loop compaction of finished systems
    graphs = [cycle(6)] * 150 + [k_nkm(6, 2, 1)] + [cycle(6)] * 150
    rad, _, _, its = batch_cw_radius(_alpha_stack(graphs, 0.0))
    assert np.allclose(rad[:150], 1.0, atol=TOL)
    assert np.allclose(rad[151:], 1.0, atol=TOL)
    ref = spectral_radius(k_nkm(6, 2, 1), 0.0)
    assert abs(rad[150] - ref.radius) <= 2 * TOL
    assert its[150] > its[0]


def _solver_stack(alpha):
    # directed 6-cycles (period 6), the complete bipartite digraph K_{3,3} with
    # both arc directions (period 2) and random strong digraphs, 6 vertices each
    rng = np.random.default_rng(606)
    bipartite = from_arcs(6, {(u, v) for u in range(6) for v in range(6) if (u < 3) != (v < 3)})
    graphs = [cycle(6), bipartite] * 3 + [random_strong(rng, 6) for _ in range(150)]
    return graphs, _alpha_stack(graphs, alpha)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9999])
def test_both_solvers_enclose_the_exact_root(monkeypatch, alpha):
    # the crossover at 0 sends every solve to elimination, at the stack size
    # plus one every matrix to the one-matrix loop and np.linalg.solve
    graphs, stack = _solver_stack(alpha)
    results = []
    for crossover in (0, len(stack) + 1):
        monkeypatch.setattr(spectral, "_ELIMINATION_MIN", crossover)
        _mid, lo, hi, perron, _its = spectral._certify(stack, TOL)
        for i, g in enumerate(graphs):
            exact_lo, exact_hi = _exact_cw_interval(g, alpha, perron[i])
            assert lo[i] <= exact_lo <= exact_hi <= hi[i], (crossover, i)
        assert (hi - lo <= TOL).all()
        results.append((lo, hi))
    # both enclose the same root, so they overlap
    (lo_e, hi_e), (lo_s, hi_s) = results
    assert (np.maximum(lo_e, lo_s) <= np.minimum(hi_e, hi_s)).all()


def test_zero_pivot_spoils_only_its_own_matrix(monkeypatch):
    # With hi >= rho every pivot is positive, so the first step is handed
    # hi = lo = 0 for the first matrix of its block: then mu = 0, and at
    # alpha 0 that matrix's first pivot mu - M_00 is exactly zero.  Its column
    # takes the power step on M + I; every other column solves as before.
    monkeypatch.setattr(spectral, "_ELIMINATION_MIN", 0)
    graphs, stack = _solver_stack(0.0)
    want = spectral._certify(stack, TOL)
    step = spectral._inverse_step
    first = []

    def spoil_first_step(m, x, mx, lo, hi):
        if first:
            return step(m, x, mx, lo, hi)
        lo, hi = lo.copy(), hi.copy()
        lo[0] = hi[0] = 0.0
        z = step(m, x, mx, lo, hi)
        first.append((m[:, :, 0].copy(), x[:, 0].copy(), z[:, 0].copy()))
        return z

    monkeypatch.setattr(spectral, "_inverse_step", spoil_first_step)
    _mid, lo, hi, perron, its = spectral._certify(stack, TOL)
    # the cycles and K_{3,3} certify at the first check, so the block's first
    # matrix is input 6
    spoiled = 6
    assert (want[4][:spoiled] == 1).all() and want[4][spoiled] > 1
    m, x, z = first[0]
    assert m[0, 0] == 0.0 and np.array_equal(m, stack[spoiled])
    power = x + m @ x
    np.testing.assert_allclose(z, power / power.sum(), rtol=1e-14, atol=0)
    exact_lo, exact_hi = _exact_cw_interval(graphs[spoiled], 0.0, perron[spoiled])
    assert lo[spoiled] <= exact_lo <= exact_hi <= hi[spoiled]
    assert hi[spoiled] - lo[spoiled] <= TOL
    others = np.arange(len(stack)) != spoiled
    for got, ref in zip((lo, hi, perron, its), want[1:]):
        assert np.array_equal(got[others], ref[others])


def test_np_linalg_solve_sees_only_2d_systems(monkeypatch):
    # copies of one matrix certify together, so no elimination block loses
    # a matrix, and shrinks, before it ends; SLOW takes eig's vector at its
    # second check and solves after that
    g, alpha = SLOW
    want = spectral_radius(g, alpha)
    solve, eig, step = np.linalg.solve, np.linalg.eig, spectral._inverse_step
    shapes, eig_shapes, blocks = [], [], []

    def recording_solve(a, b):
        shapes.append((a.shape, b.shape))
        return solve(a, b)

    def recording_eig(a):
        eig_shapes.append(a.shape)
        return eig(a)

    def recording_step(m, *args):
        blocks.append(m.shape[2])
        return step(m, *args)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    monkeypatch.setattr(spectral, "_inverse_step", recording_step)
    assert want.iterations > 2
    for size in (1, spectral._ELIMINATION_MIN - 1, spectral._ELIMINATION_MIN, 200):
        shapes.clear()
        eig_shapes.clear()
        blocks.clear()
        rad, _lo, _hi, its = batch_cw_radius(_alpha_stack([g] * size, alpha))
        assert (np.abs(rad - want.radius) <= 2 * TOL).all()
        solves = size * (want.iterations - 2)
        if size < spectral._ELIMINATION_MIN:
            assert shapes == [((8, 8), (8,))] * solves and blocks == []
            assert eig_shapes == [(8, 8)] * size
            assert (its == want.iterations).all()
        else:
            assert shapes == [] and eig_shapes == [] and blocks == [size] * (its[0] - 1)
            assert (its == its[0]).all()


def test_a_matrix_certifies_alike_alone_and_below_the_crossover():
    rng = np.random.default_rng(77)
    graphs = [random_strong(rng, 7) for _ in range(spectral._ELIMINATION_MIN - 1)]
    for alpha in (0.0, 0.5, 0.99):
        _mid, lo, hi, perron, its = spectral._certify(_alpha_stack(graphs, alpha), TOL)
        for i, g in enumerate(graphs):
            alone = spectral_radius(g, alpha)
            assert (lo[i], hi[i], its[i]) == (
                alone.certificate_lo, alone.certificate_hi, alone.iterations
            ), (alpha, i)
            assert np.array_equal(perron[i], alone.perron)


def test_readme_quotes_the_kernel_constants():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = dict(re.findall(r"spectral\.(_[A-Z_]+)`? = `?([0-9][0-9_]*)", readme))
    assert {"_ELIMINATION_MIN", "_MAX_ITERS"} <= set(quoted)
    for name, value in quoted.items():
        assert getattr(spectral, name) == int(value), name


def test_batch_empty_stack():
    rad, lo, hi, its = batch_cw_radius(np.zeros((0, 4, 4)))
    assert rad.size == lo.size == hi.size == its.size == 0


@pytest.mark.parametrize("shape", [(2, 0, 0), (0, 0, 0), (3,), (2, 3), (1, 2, 2, 2), (2, 3, 4)])
def test_batch_refuses_a_stack_that_is_not_b_n_n(shape):
    # (2, 0, 0) raised ZeroDivisionError, 1-D and 4-D arrays failed to unpack
    # and (2, 3, 4) failed to broadcast
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        batch_cw_radius(np.ones(shape))


def test_one_vertex_enclosure_is_not_below_zero():
    # the radius of a nonnegative matrix is at least 0, in both kernel loops
    res = spectral_radius(from_arcs(1, []), 0.5)
    assert (res.radius, res.certificate_lo) == (0.0, 0.0) and res.certificate_hi >= 0.0
    for k in (2, spectral._ELIMINATION_MIN):
        rad, lo, hi, _ = batch_cw_radius(np.zeros((k, 1, 1)))
        assert rad.tolist() == lo.tolist() == [0.0] * k and np.all(hi >= 0.0)


def test_batch_iteration_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITERS", 3)
    g, alpha = SLOW
    with pytest.raises(ConvergenceError):
        batch_cw_radius(_alpha_stack([g], alpha))


@pytest.mark.parametrize(
    "cap, lead",
    [
        pytest.param(1, "regular", id="1"),
        pytest.param(3, "regular", id="3"),
        pytest.param(3, "halved", id="3-above-crossover"),
    ],
)
def test_batch_iteration_cap_names_input_index(monkeypatch, cap, lead):
    # regular: 40 regular matrices certify at iteration 1 and are compacted
    # away (cap = 1: on the last iteration).  halved: a block above the
    # elimination crossover of half copies of the stalled matrix, which stay
    # uncertified with exactly half its width.  Either way the error names
    # the stalled matrix by its position in the input stack.
    monkeypatch.setattr(spectral, "_MAX_ITERS", cap)
    stalled = _alpha_stack([k_nkm(6, 2, 1)], 0.0)
    if lead == "regular":
        lead = _alpha_stack([complete(6)] * 40, 0.0)
    else:
        lead = np.repeat(stalled / 2, 2 * spectral._ELIMINATION_MIN, axis=0)
    with pytest.raises(ConvergenceError) as err:
        batch_cw_radius(np.concatenate([lead, stalled]))
    assert err.value.index == len(lead)
    assert err.value.iterations == cap
    assert err.value.lo < err.value.hi


@pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}])
def test_kernel_rejects_input_it_cannot_certify(bad):
    # no width that is <= tol: the kernel would stall
    match = "tol must be positive"
    with pytest.raises(ValueError, match=match):
        spectral_radius(cycle(4), 0.5, **bad)
    with pytest.raises(ValueError, match=match):
        spectral_radius_general(path(4), 0.5, **bad)
    with pytest.raises(ValueError, match=match):
        batch_cw_radius(_alpha_stack([cycle(4), k_nkm(4, 1, 1)], 0.5), **bad)


@pytest.mark.parametrize("entry", [-1.0, np.nan, np.inf])
def test_batch_refuses_entries_it_cannot_certify(entry):
    # a negative stack came back with radius -1 "certified" (the true radius
    # of [[0, -1], [-1, 0]] is 1); a NaN or infinite entry ran the whole
    # iteration cap before failing
    stack = _alpha_stack([cycle(3), complete(3)], 0.5)
    stack[1, 2, 0] = entry
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"matrix 1 of the stack has entry \(2, 0\)"):
        batch_cw_radius(stack)
    with pytest.raises(ValueError, match="nonnegative finite"):
        batch_cw_radius(np.array([[[0.0, entry], [entry, 0.0]]]))
    assert time.perf_counter() - started < 1.0


def test_convergence_error_pickles_with_its_witness():
    err = ConvergenceError(1.0, 2.0, 7, index=3, witness="code 9 at alpha 0.5")
    back = pickle.loads(pickle.dumps(err))
    assert str(back) == str(err) and str(err).startswith("code 9 at alpha 0.5: ")
    assert (back.lo, back.hi, back.iterations, back.index) == (1.0, 2.0, 7, 3)
