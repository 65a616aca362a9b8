"""Symplectic pairing, actions, coisotropic complements, reductions."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from mahlerlab import bodies as B
from mahlerlab import symplectic as SY
from mahlerlab import volume as V

from conftest import shoelace_area


def positively_oriented_circle(m, half_dim=2, plane=0):
    """Loop with action +pi: q = cos, p = -sin in the chosen plane."""
    th = 2 * np.pi * np.arange(m) / m
    z = np.zeros((m, 2 * half_dim))
    z[:, plane] = -np.sin(th)
    z[:, half_dim + plane] = np.cos(th)
    return z


def planes(rows):
    """Points given as rows (..., d), as coordinate planes (d, ...)."""
    return np.ascontiguousarray(np.moveaxis(rows, -1, 0))


def random_symplectic_matrix(rng, half_dim):
    """exp(J S) with S symmetric is linear symplectic."""
    n = 2 * half_dim
    S = rng.normal(size=(n, n)) * 0.3
    S = (S + S.T) / 2
    J = np.zeros((n, n))
    J[:half_dim, half_dim:] = -np.eye(half_dim)
    J[half_dim:, :half_dim] = np.eye(half_dim)
    M = expm(J @ S)
    Js = np.zeros((n, n))
    Js[:half_dim, half_dim:] = np.eye(half_dim)
    Js[half_dim:, :half_dim] = -np.eye(half_dim)
    assert np.allclose(M.T @ Js @ M, Js, atol=1e-9)
    return M


def omega_oracle(x, y, half_dim):
    """sum_i x_p[i] y_q[i] - y_p[i] x_q[i], written out coordinate by coordinate."""
    return sum(x[i] * y[half_dim + i] - y[i] * x[half_dim + i] for i in range(half_dim))


def test_omega_basis_pairs():
    # <J x, y> = omega(x, y) on every pair of basis vectors
    e = np.eye(4)
    for i in range(4):
        for j in range(4):
            assert SY.j_rotate(e[i]) @ e[j] == omega_oracle(e[i], e[j], 2)
    assert SY.j_rotate(e[0]) @ e[2] == 1.0  # omega(e_p1, e_q1)
    assert SY.j_rotate(e[2]) @ e[0] == -1.0
    assert SY.j_rotate(e[2]) @ e[3] == 0.0  # q-subspace isotropic
    assert SY.j_rotate(e[0]) @ e[1] == 0.0  # p-subspace isotropic


def test_polygon_action_circle():
    loop = positively_oriented_circle(256)
    a = SY.polygon_action(planes(loop))
    assert abs(a - math.pi) < 1e-3
    assert math.isclose(SY.polygon_action(planes(loop[::-1])), -a, rel_tol=1e-12)


def test_polygon_action_diamond_shoelace():
    diamond = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    oracle = float(shoelace_area(diamond))
    assert SY.polygon_action(planes(np.array(diamond, float))) == oracle == 2.0


def test_polygon_action_symplectic_invariance(rng):
    loop = rng.normal(size=(24, 6))
    a = SY.polygon_action(planes(loop))
    for _ in range(5):
        M = random_symplectic_matrix(rng, 3)
        assert math.isclose(SY.polygon_action(planes(loop @ M.T)), a, rel_tol=1e-9)


def test_polygon_action_batch_equals_per_loop(rng):
    loops = rng.normal(size=(5, 12, 4))
    loops[0] = positively_oriented_circle(12)
    batch = SY.polygon_action(planes(loops))
    assert batch.shape == (5,)
    assert np.array_equal(batch, [SY.polygon_action(planes(z)) for z in loops])
    assert np.array_equal(SY.polygon_action(planes(loops.reshape(5, 1, 12, 4)))[:, 0], batch)


def reference_coordinate_sum(planes):
    """The planes added one at a time from the first, as a loop."""
    out = planes[0] + 0.0
    for x in planes[1:]:
        out += x
    return out


@pytest.mark.parametrize("d", [*range(1, 8), 8, 9, 16, 40])
def test_coordinate_sum_matches_row_reduce(d, rng):
    # magnitudes from 2^-40 to 2^40 with both signs, where any other order of
    # addition changes the bytes; NumPy sums 8 or more terms pairwise
    rows = rng.normal(size=(3, 17, d)) * 2.0 ** rng.integers(-40, 41, size=(3, 17, d))
    rows[0, 0] = -0.0  # an all-zero sum is +0.0, as from np.add.reduce
    p = planes(rows)
    assert SY.coordinate_sum(p).tobytes() == reference_coordinate_sum(p).tobytes()
    if d < 8:
        assert SY.coordinate_sum(p).tobytes() == np.add.reduce(rows, axis=-1).tobytes()
    # a transposed and a strided view, the coordinate axis still outermost
    for view in (p.transpose(0, 2, 1), p[:, ::2, 1::3]):
        assert SY.coordinate_sum(view).tobytes() == reference_coordinate_sum(view).tobytes()
    # a single point, a batch of one, and rows whose transpose has the
    # coordinate axis innermost: np.add.reduce would sum each of these as a
    # contiguous run, pairwise from 8 terms
    for view in (p[:, 0, 0], p[:, :1, :1], rows[0].T):
        assert SY.coordinate_sum(view).tobytes() == reference_coordinate_sum(view).tobytes()
    zeros = np.full_like(p, -0.0)
    assert SY.coordinate_sum(zeros).tobytes() == reference_coordinate_sum(zeros).tobytes()


def q_line(ell):
    """The line (0, ell) of the q-subspace, as a 2N-vector."""
    return np.concatenate([np.zeros(len(ell)), ell])


def test_coisotropic_complement_axis():
    Qb = SY._quotient_basis(np.array([1.0, 0.0]))
    # L^omega = {p_1 = 0} is a hyperplane of R^4, so L^omega / L has dim 2
    assert Qb.shape == (4, 2)
    assert np.all(Qb[0] == 0)  # every column in {p_1 = 0}
    assert np.all(Qb[2] == 0)  # and orthogonal to L = span(e_q1)


def test_coisotropic_complement_diagonal():
    ell = np.array([1.0, 1.0]) / math.sqrt(2)
    Qb = SY._quotient_basis(ell)
    for col in Qb.T:
        # omega(l, x) = 0 iff <l, x_p> = 0: the column lies in L^omega
        assert abs(SY.j_rotate(q_line(ell)) @ col) < 1e-12
        assert abs(q_line(ell) @ col) < 1e-12


def test_coisotropic_rejects_mixed_line():
    # the line is an N-vector of q-coordinates: a 2N-vector is refused, even
    # one with a vanishing p-block, and so is a zero line
    for line in ([1.0, 0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0]):
        with pytest.raises(B.BodyError):
            SY.reduce_ball(2, np.array(line), directions=16)


def test_quotient_basis_standard_form():
    for N in (2, 3, 4):
        rng = np.random.default_rng(N)
        ell = rng.normal(size=N)
        k = 2 * (N - 1)
        Qb = SY._quotient_basis(ell)
        M = SY.j_rotate(Qb.T) @ Qb  # M[i, j] = omega(Qb[:, i], Qb[:, j])
        expect = np.zeros((k, k))
        expect[: k // 2, k // 2 :] = np.eye(k // 2)
        expect[k // 2 :, : k // 2] = -np.eye(k // 2)
        assert np.allclose(M, expect, atol=1e-12)
        line = q_line(ell / np.linalg.norm(ell))
        assert np.allclose(SY.j_rotate(line) @ Qb, 0, atol=1e-12)  # in L^omega
        assert np.allclose(line @ Qb, 0, atol=1e-12)  # orthogonal to L


# ---------------------------------------------------------------------------
# product reduction


def test_reduce_product_cross2_axis():
    S = B.lagrangian_product(B.PolytopeBody.cross(2))
    S2 = SY.reduce_product(S, (Fraction(1), Fraction(0)))
    prod = S2.base.core.volume_exact() * S2.dual.core.volume_exact()
    assert prod == 4  # the reduced product is a square of area 4


def test_reduce_product_ball_factors():
    S = B.lagrangian_product(B.LpBallBody(2.0, 2))
    rng = np.random.default_rng(1)
    u = rng.normal(size=2)
    S2 = SY.reduce_product(S, u)
    assert isinstance(S2.base, B.LpBallBody) and S2.base.dim == 1
    assert isinstance(S2.dual, B.LpBallBody)


def test_reduce_product_factor_identities(rng):
    K = B.PolytopeBody.cross(3)
    S = B.lagrangian_product(K)
    u = (Fraction(1), Fraction(2), Fraction(-1))
    S2 = SY.reduce_product(S, u)
    proj = B.hyperplane_projection(K, u)
    sec = B.hyperplane_section(K.polar(), u)
    X = rng.normal(size=(30, 2))
    assert np.allclose(S2.base.gauge(X), proj.gauge(X), rtol=1e-10, atol=1e-12)
    assert np.allclose(S2.dual.gauge(X), sec.gauge(X), rtol=1e-10, atol=1e-12)
    # the two factors are polars of each other
    assert np.allclose(S2.dual.gauge(X), S2.base.polar().gauge(X),
                       rtol=1e-10, atol=1e-12)
    assert np.allclose(S2.dual.support(X), S2.base.gauge(X), rtol=1e-9, atol=1e-11)


def test_iterated_reduction_to_square():
    for n in (3, 4):
        S = B.lagrangian_product(B.PolytopeBody.cross(n))
        rng = np.random.default_rng(n)
        while S.base.dim > 1:
            u = tuple(Fraction(int(x)) for x in rng.integers(-4, 5, size=S.base.dim))
            if not any(u):
                continue
            S = SY.reduce_product(S, u)
        prod = S.base.core.volume_exact() * S.dual.core.volume_exact()
        assert prod == 4


def test_reduce_product_mahler_ratio_at_least_one(rng):
    # reduction + volume product reproduces the section theorems exactly
    for expr in ("X(S, S, S)", "L(S, X(S, S))"):
        K = B.hanner_body(expr)
        for _ in range(5):
            u = tuple(Fraction(int(a), int(b)) for a, b in
                      zip(rng.integers(-5, 6, size=3), rng.integers(1, 5, size=3)))
            if not any(x != 0 for x in u):
                continue
            S2 = SY.reduce_product(B.lagrangian_product(K), u)
            prod = S2.base.core.volume_exact() * S2.dual.core.volume_exact()
            assert prod >= V.mahler_bound(2)


def test_reduction_volume_basis_independence():
    # the exact reduced volume product is identical in a second frame: the
    # basis for a permuted normal, with its coordinates permuted back
    K = B.PolytopeBody.cross(3)
    u = (Fraction(2), Fraction(-1), Fraction(3))
    perm = (2, 1, 0)
    def basis(v):
        cols, den, _ = B.orthogonal_complement_basis(np.array(v, dtype=object))
        return [tuple(Fraction(x, den) for x in c) for c in cols]

    basis_a = basis(u)
    basis_b = []
    for bv in basis([u[i] for i in perm]):
        back = [Fraction(0)] * 3
        for k, i in enumerate(perm):
            back[i] = bv[k]
        basis_b.append(tuple(back))
    assert all(sum(x * y for x, y in zip(bv, u)) == 0 for bv in basis_b)
    assert basis_a != basis_b
    prods = []
    for basis in (basis_a, basis_b):
        verts = [tuple(sum(bv[k] * v[k] for k in range(3)) for bv in basis)
                 for v in K.vertices()]
        core_proj = B.PolytopeBody(2, vertices=verts)
        rows = [(tuple(sum(a[k] * bv[k] for k in range(3)) for bv in basis), b)
                for a, b in K.polar().halfspaces()]
        core_sec = B.PolytopeBody(2, halfspaces=rows)
        prods.append(core_proj.volume_exact() * core_sec.volume_exact())
    assert prods[0] == prods[1]


# ---------------------------------------------------------------------------
# ball reduction


def test_reduce_ball_axis():
    res = SY.reduce_ball(2, np.array([1.0, 0.0]), directions=512, seed=0)
    assert abs(res.value - math.pi) < 1e-10


def test_reduce_ball_random_lines():
    rng = np.random.default_rng(5)
    for N in (2, 3, 4):
        expect = math.pi ** (N - 1) / math.factorial(N - 1)
        for _ in range(3):
            ell = rng.normal(size=N)
            res = SY.reduce_ball(N, ell, directions=512, seed=1)
            assert abs(res.value - expect) < 1e-10


def test_reduce_ball_quotient_basis_independence(monkeypatch):
    # a second symplectic frame of L^omega / L: the same rotation Q of the
    # p-type and of the q-type columns
    ell = np.array([1.0, 2.0, -1.0])
    c, s = math.cos(0.7), math.sin(0.7)
    Q = np.array([[c, -s], [s, c]])
    quotient_basis = SY._quotient_basis
    a = SY.reduce_ball(3, ell, directions=256, seed=3)
    monkeypatch.setattr(SY, "_quotient_basis",
                        lambda ell: quotient_basis(ell) @ block_diag(Q, Q))
    assert not np.allclose(SY._quotient_basis(ell), quotient_basis(ell))
    b = SY.reduce_ball(3, ell, directions=256, seed=3)
    assert abs(a.value - b.value) < 1e-12


def test_reduce_ball_stream_is_keyed(monkeypatch):
    drawn = []
    fiber_min_gauge = SY.fiber_min_gauge

    def spy(body, x0, direction):
        drawn.append(x0)
        return fiber_min_gauge(body, x0, direction)

    monkeypatch.setattr(SY, "fiber_min_gauge", spy)
    ell = np.array([1.0, -2.0, 0.5])
    a = SY.reduce_ball(3, ell, directions=256, seed=3)
    # deterministic in the seed
    assert SY.reduce_ball(3, ell, directions=256, seed=3) == a
    assert np.array_equal(drawn[0], drawn[1])
    # the directions are one block: a shorter draw is a prefix of a longer one
    SY.reduce_ball(3, ell, directions=512, seed=3)
    assert np.array_equal(drawn[2][:256], drawn[0])
    SY.reduce_ball(3, ell, directions=256, seed=4)
    assert not np.array_equal(drawn[3], drawn[0])
