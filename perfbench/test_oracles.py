"""The benchmark's oracles against values worked out by hand.

Run with `python3 -m pytest perfbench/test_oracles.py`.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles as O
import workloads as W


def test_hanner_volumes():
    X, L = "X", "L"
    assert O.hanner_volume("S") == (2, 1)
    assert O.hanner_volume((X, ["S", "S", "S"])) == (8, 3)
    assert O.hanner_volume((L, ["S", "S", "S"])) == (Fraction(4, 3), 3)
    # segment times a diamond of area 2
    assert O.hanner_volume((X, ["S", (L, ["S", "S"])])) == (4, 3)
    # double pyramid of height 1 over the square [-1, 1]^2
    assert O.hanner_volume((L, ["S", (X, ["S", "S"])])) == (Fraction(8, 3), 3)


def test_hanner_products_are_the_mahler_bound():
    rng = np.random.default_rng(0)
    for leaves in range(1, 7):
        tree = O.random_hanner_tree(leaves, rng)
        vol, n = O.hanner_volume(tree)
        vol_polar, m = O.hanner_volume(O.dual_hanner_tree(tree))
        assert n == m == leaves
        assert vol * vol_polar == O.mahler_bound(n)


def _hanner_norm(tree, x) -> Fraction:
    """Gauge of a Hanner body at x: max over the factors of a product, sum
    over the summands of an l1-sum, |x| on a segment."""
    if tree == "S":
        return abs(x[0])
    op, children = tree
    parts, start = [], 0
    for child in children:
        n = O.hanner_volume(child)[1]
        parts.append(_hanner_norm(child, x[start:start + n]))
        start += n
    return max(parts) if op == "X" else sum(parts)


def test_congruent_copy_maps_body_and_normal_together():
    # the copy is P K with the normal P u for one signed permutation P, so
    # the copy's gauge at its normal is the original's gauge at u
    rng = np.random.default_rng(3)
    tree = ("L", [("X", ["S", ("L", ["S", "S"])]), ("X", ["S", "S"])])
    u = (Fraction(1), Fraction(-2, 3), Fraction(3), Fraction(1, 2), Fraction(5))
    for _ in range(8):
        copy, v = W.congruent_copy(tree, u, rng)
        assert O.hanner_volume(copy) == O.hanner_volume(tree)
        assert sorted(O.hanner_expr(copy)) == sorted(O.hanner_expr(tree))
        assert _hanner_norm(copy, v) == _hanner_norm(tree, u)
    a = (Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 2))
    for _ in range(4):
        _, b = W.congruent_copy(("X", ["S"] * 4), a, rng)
        assert O.cube_section_product(b) == O.cube_section_product(a)


def test_hanner_expr():
    assert O.hanner_expr(("X", ["S", ("L", ["S", "S"])])) == "X(S, L(S, S))"
    assert O.dual_hanner_tree(("X", ["S", ("L", ["S", "S"])])) == ("L", ["S", ("X", ["S", "S"])])


def test_cube_section_hexagon():
    # regular hexagon of side sqrt(2), and the shadow of the octahedron, a
    # regular hexagon of circumradius sqrt(2/3)
    assert O.cube_section_volume_sq((1, 1, 1)) == 27
    assert O.cross_projection_volume_sq((1, 1, 1)) == 3
    assert O.cube_section_product((1, 1, 1)) == 9


def test_cube_section_with_zero_entries():
    assert O.cube_section_volume_sq((1, 0, 0)) == 16
    assert O.cube_section_product((0, 0, 5)) == 8
    # rectangle 2 x 2 sqrt(2), and a rhombus with half-diagonals 1, 1/sqrt(2)
    assert O.cube_section_volume_sq((1, 1, 0)) == 32
    assert O.cross_projection_volume_sq((1, 1, 0)) == 2
    assert O.cube_section_product((Fraction(1, 2), Fraction(1, 2), 0)) == 8


def test_cube_section_main_diagonal_4d():
    # the unit 4-cube's section normal to (1,1,1,1) has volume 4/3; [-1,1]^4
    # scales it by 2^3
    assert O.cube_section_volume_sq((1, 1, 1, 1)) == Fraction(32, 3) ** 2


def test_lp_ball_volume():
    assert O.lp_ball_volume(2.0, 2) == pytest.approx(math.pi, rel=1e-14)
    assert O.lp_ball_volume(1.0, 3) == pytest.approx(4 / 3, rel=1e-14)
    assert O.lp_ball_volume(2.0, 4) == pytest.approx(math.pi**2 / 2, rel=1e-14)


def test_lp_section_of_the_round_ball():
    u3 = np.array([0.3, -1.2, 0.5])
    u4 = np.array([0.3, -1.2, 0.5, 2.0])
    assert O.lp_section_volume(2.0, u3) == pytest.approx(math.pi, rel=1e-12)
    assert O.lp_section_polar_area(2.0, u3) == pytest.approx(math.pi, rel=1e-12)
    assert O.lp_section_volume(2.0, u4) == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_lp_section_of_the_cross_polytope():
    # B_1^3 ∩ (1,1,1)^perp: hexagon of circumradius 1/sqrt(2); its polar is
    # the cube's shadow, a hexagon of circumradius 2 sqrt(6)/3
    u = np.array([1.0, 1.0, 1.0])
    assert O.lp_section_volume(1.0, u) == pytest.approx(3 * math.sqrt(3) / 4, rel=1e-6)
    assert O.lp_section_polar_area(1.0, u) == pytest.approx(4 * math.sqrt(3), rel=1e-6)
    # a coordinate section of B_1^4 is the octahedron
    assert O.lp_section_volume(1.0, np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(
        4 / 3, rel=1e-3)


def test_reduced_ball_and_superellipse():
    assert O.reduced_ball_volume(2) == pytest.approx(math.pi)
    assert O.reduced_ball_volume(3) == pytest.approx(math.pi**2 / 2)
    # alpha = 2, n = 1 is the unit disk
    assert O.superellipse_area(2.0, 1) == pytest.approx(math.pi, rel=1e-14)


def test_poisson_cdf():
    assert O.poisson_cdf(-1, 1.0) == 0.0
    assert O.poisson_cdf(0, 0.0) == 1.0
    assert O.poisson_cdf(0, 2.0) == pytest.approx(math.exp(-2.0))
    assert O.poisson_cdf(2, 1.0) == pytest.approx(2.5 * math.exp(-1.0))


def test_crofton_counts_plausible():
    # linear slice: every circle crosses once
    assert O.crofton_counts_plausible(1.0, 2048, math.pi)
    assert not O.crofton_counts_plausible(1.0 + 2 / 2048, 2048, math.pi)
    # about 0.6 triple crossings expected: none or a few are plausible
    area = math.pi * (1 + 6e-4)
    assert O.crofton_counts_plausible(1.0, 2048, area)
    assert O.crofton_counts_plausible(1.0 + 6 / 2048, 2048, area)
    assert not O.crofton_counts_plausible(1.0 + 100 / 2048, 2048, area)


def test_capacity_band():
    assert O.CAPACITY_LOW < 4.0 < O.CAPACITY_HIGH == pytest.approx(4.08)
    assert O.BALL_LOW == math.pi and O.BALL_HIGH == pytest.approx(1.01 * math.pi)
