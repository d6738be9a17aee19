import math

import numpy as np
import pytest

import infoquad as iq
from helpers import (quadrant_world, random_world, random_valid_selection,
                     reference_direct_tree_information)

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906
LN16 = 2.772588722239781


def test_entropy_examples():
    assert iq.entropy([1, 0, 0, 0]) == 0.0
    assert iq.entropy([0.25] * 4) == pytest.approx(LN4, abs=1e-12)
    assert iq.entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)


def test_entropy_rejects_unnormalized():
    with pytest.raises(ValueError, match="unnormalized"):
        iq.entropy([0.5, 0.4])
    with pytest.raises(ValueError, match="negative"):
        iq.entropy([1.5, -0.5])


def test_kl_examples():
    assert iq.kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert iq.kl_divergence([1, 0], [0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)
    # 0.75 ln 1.5 + 0.25 ln 0.5
    assert iq.kl_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(
        0.13081203594113697, abs=1e-12
    )


def test_kl_error_kinds_are_distinct():
    with pytest.raises(ValueError, match="length mismatch"):
        iq.kl_divergence([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="support violation"):
        iq.kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_js_examples():
    same = np.tile([0.2, 0.8], (4, 1))
    assert iq.js_divergence([0.25] * 4, same) == 0.0
    assert iq.js_divergence([0.5, 0.5], [[1, 0], [0, 1]]) == pytest.approx(LN2, abs=1e-12)
    mixed = [[1, 0], [1, 0], [0, 1], [0, 1]]
    assert iq.js_divergence([0.25] * 4, mixed) == pytest.approx(LN2, abs=1e-12)


def test_js_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        iq.js_divergence([0.5, 0.5], [[1, 0]])


def test_js_ignores_zero_weight_rows():
    # zero-weight rows may carry placeholder content
    val = iq.js_divergence([0.5, 0.5, 0.0], [[1, 0], [0, 1], [0.0, 0.0]])
    assert val == pytest.approx(LN2, abs=1e-12)


def test_js_bounded_by_weight_entropy():
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        w = rng.random(k)
        w /= w.sum()
        d = rng.random((k, int(rng.integers(2, 5))))
        d /= d.sum(axis=1, keepdims=True)
        js = iq.js_divergence(w, d)
        assert -1e-12 <= js <= iq.entropy(w) + 1e-9


def test_kl_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        p = rng.random(k) + 1e-3
        q = rng.random(k) + 1e-3
        p /= p.sum()
        q /= q.sum()
        assert iq.kl_divergence(p, q) >= 0.0


def test_direct_tree_information_root_and_full():
    world = quadrant_world()
    root = iq.TreeSelection(np.zeros(5, np.uint8))
    assert iq.direct_tree_information(world, root) == (0.0, 0.0)
    full = iq.TreeSelection(np.ones(5, np.uint8))
    i_x, i_y = iq.direct_tree_information(world, full)
    assert i_x == pytest.approx(LN16, abs=1e-12)
    assert i_y == pytest.approx(iq.mutual_info_xy(world), abs=1e-12)


def test_direct_tree_information_partial_tree():
    world = quadrant_world()
    sel = iq.TreeSelection(np.array([1, 1, 0, 0, 0], np.uint8))
    i_x, i_y = iq.direct_tree_information(world, sel)
    assert i_x == pytest.approx(1.7328679513998633, abs=1e-9)
    assert i_y == pytest.approx(0.37677016125643675, abs=1e-9)
    assert i_y == pytest.approx(iq.mutual_info_xy(world), abs=1e-9)


def test_direct_tree_information_data_processing_bound():
    rng = np.random.default_rng(8)
    for _ in range(30):
        depth_l = int(rng.integers(1, 4))
        world = random_world(rng, depth_l, uniform_prior=bool(rng.integers(0, 2)),
                             zero_prior=True)
        mi = iq.mutual_info_xy(world)
        sel = random_valid_selection(rng, depth_l, p_expand=rng.random())
        i_x, i_y = iq.direct_tree_information(world, sel)
        assert 0.0 <= i_y <= min(i_x, mi) + 1e-9


def test_direct_tree_information_matches_the_leaf_loop():
    # the sums run in another order, so the bound is a few float64 ulps of
    # the largest term summed over at most 256 cells
    rng = np.random.default_rng(10)
    for _ in range(30):
        depth_l = int(rng.integers(0, 5))
        world = random_world(rng, depth_l, binary=bool(rng.integers(0, 2)),
                             uniform_prior=bool(rng.integers(0, 2)), zero_prior=True)
        sel = random_valid_selection(rng, depth_l, p_expand=rng.random())
        got = iq.direct_tree_information(world, sel)
        assert got == pytest.approx(reference_direct_tree_information(world, sel), abs=1e-12)


def test_direct_i_x_equals_leaf_entropy():
    # deterministic encoders leave no uncertainty: I(T;X) = H(T)
    rng = np.random.default_rng(9)
    for _ in range(20):
        depth_l = int(rng.integers(1, 4))
        world = random_world(rng, depth_l, uniform_prior=False)
        sel = random_valid_selection(rng, depth_l, p_expand=0.5)
        i_x, _ = iq.direct_tree_information(world, sel)
        masses = [world.cell_prior[lo:hi].sum() for _, lo, hi in
                  iq.quadtree.leaf_spans(sel)]
        masses = np.array([m for m in masses if m > 0])
        assert i_x == pytest.approx(iq.entropy(masses), abs=1e-9)


@pytest.mark.parametrize("call,message", [
    (lambda: iq.entropy([[0.5, 0.5]]), r"^distribution must be one-dimensional$"),
    (lambda: iq.kl_divergence([[1.0]], [[1.0]]), r"^p must be one-dimensional$"),
    (lambda: iq.direct_tree_information(quadrant_world(), iq.TreeSelection(np.zeros(1, np.uint8))),
     r"^selection depth_l 1 does not match world 2$"),
], ids=["entropy-2d", "kl-2d", "tree-depth"])
def test_infotheory_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
