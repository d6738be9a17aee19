import math

import numpy as np
import pytest

import infoquad as iq
from infoquad.world import _read_pgm, prior_from_weights, write_pgm
from helpers import random_valid_selection, random_world, reference_render, write_text

LN2 = 0.6931471805599453


def _mi_double_sum(world):
    """Independent oracle: I(X;Y) as the literal double sum over p(x,y)."""
    joint = world.cell_prior[:, None] * world.cell_relevance
    px = world.cell_prior
    py = joint.sum(axis=0)
    total = 0.0
    for x in range(joint.shape[0]):
        for y in range(joint.shape[1]):
            if joint[x, y] > 0:
                total += joint[x, y] * math.log(joint[x, y] / (px[x] * py[y]))
    return total


def test_load_pgm_all_black(tmp_path):
    path = tmp_path / "black.pgm"
    write_text(path, "P2\n2 2\n255\n0 0\n0 0\n")
    world = iq.load_pgm(path)
    assert world.depth_l == 1
    assert np.allclose(world.cell_relevance[:, 1], 1.0)
    assert np.allclose(world.cell_prior, 0.25)


def test_load_pgm_checkerboard_inversion(tmp_path):
    path = tmp_path / "cb.pgm"
    write_text(path, "P2\n2 2\n255\n0 255\n0 255\n")
    world = iq.load_pgm(path)
    # row-major pixels {0,255,0,255} -> p(y=1|x) = {1,0,1,0}
    assert world.cell_relevance[:, 1].tolist() == [1.0, 0.0, 1.0, 0.0]
    flipped = iq.load_pgm(path, invert=False)
    assert flipped.cell_relevance[:, 1].tolist() == [0.0, 1.0, 0.0, 1.0]


def test_load_pgm_rejects_non_power_of_two(tmp_path):
    path = tmp_path / "three.pgm"
    write_text(path, "P2\n3 3\n255\n" + "0 " * 9 + "\n")
    with pytest.raises(ValueError, match="side not a power of two"):
        iq.load_pgm(path)


def test_load_pgm_rejects_non_square(tmp_path):
    path = tmp_path / "rect.pgm"
    write_text(path, "P2\n4 2\n255\n" + "0 " * 8 + "\n")
    with pytest.raises(ValueError, match="non-square"):
        iq.load_pgm(path)


def test_load_pgm_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.pgm"
    write_text(path, "P6\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="malformed PGM header"):
        iq.load_pgm(path)


@pytest.mark.parametrize("header", ["", "# only a comment\n", "P2", "P2 4", "P2\n4 4 # no maxval\n"])
def test_load_pgm_end_of_file_in_header_reports_once(tmp_path, header):
    path = tmp_path / "cut.pgm"
    write_text(path, header)
    with pytest.raises(ValueError) as exc:
        iq.load_pgm(path)
    assert str(exc.value) == "malformed PGM header: unexpected end of file"


@pytest.mark.parametrize("invert", [True, False])
@pytest.mark.parametrize("maxval", [7, 255, 65535])
def test_load_pgm_matches_world_from_grid(tmp_path, invert, maxval):
    grays = np.random.default_rng(maxval).integers(0, maxval + 1, size=(8, 8))
    path = tmp_path / "map.pgm"
    write_text(path, f"P2\n8 8\n{maxval}\n" + "\n".join(" ".join(map(str, r)) for r in grays))
    level = grays / maxval
    expected = iq.world_from_grid(1.0 - level if invert else level, maxval=maxval)
    world = iq.load_pgm(path, invert=invert)
    assert np.array_equal(world.cell_relevance, expected.cell_relevance)
    assert np.array_equal(world.cell_prior, expected.cell_prior)
    assert world.maxval == expected.maxval == maxval


def test_load_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    write_text(path, "P2\n2 2\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="truncated"):
        iq.load_pgm(path)


def test_load_pgm_rejects_bad_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    write_text(path, "P2\n2 2\n70000\n0 0 0 0\n")
    with pytest.raises(ValueError, match="maxval out of range"):
        iq.load_pgm(path)


def test_load_pgm_p5_binary(tmp_path):
    path = tmp_path / "bin.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
    world = iq.load_pgm(path)
    assert world.cell_relevance[:, 1].tolist() == [1.0, 0.0, 1.0, 0.0]


def test_load_pgm_p5_sixteen_bit(tmp_path):
    path = tmp_path / "deep.pgm"
    samples = np.array([0, 65535, 0, 65535], dtype=">u2").tobytes()
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n65535\n" + samples)
    world = iq.load_pgm(path)
    assert world.cell_relevance[:, 1].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert world.maxval == 65535


def test_load_pgm_header_comments(tmp_path):
    path = tmp_path / "comments.pgm"
    write_text(path, "P2\n# a comment\n2 # inline\n2\n255\n1 2 3 4\n")
    world = iq.load_pgm(path)
    assert world.side == 2


def test_load_pgm_comment_inside_raster_token(tmp_path):
    path = tmp_path / "split.pgm"
    write_text(path, "P2\n2 2\n255\n12#c 99\n3 4 5 6 # trailing 7\n")
    pixels, maxval = _read_pgm(path)
    assert maxval == 255
    assert pixels.tolist() == [[12, 3], [4, 5]]  # the comment ends "12"; extra tokens ignored


def test_load_pgm_comment_hides_raster_tail(tmp_path):
    path = tmp_path / "short.pgm"
    write_text(path, "P2\n2 2\n255\n0 0 0 # 0\n")
    with pytest.raises(ValueError, match="truncated PGM raster"):
        iq.load_pgm(path)
    write_text(path, "P2\n2 2\n255\n0 0 x 0\n")
    with pytest.raises(ValueError, match="truncated PGM raster"):
        iq.load_pgm(path)
    write_text(path, "P2\n2 2\n255\n0 0 256 0\n")
    with pytest.raises(ValueError, match="pixel value exceeds maxval"):
        iq.load_pgm(path)
    write_text(path, "P2\n2 2\n255\n0 -1 3 4\n")
    with pytest.raises(ValueError, match="negative pixel value"):
        iq.load_pgm(path)


def test_pgm_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    for maxval in (7, 255, 65535):
        pixels = rng.integers(0, maxval + 1, size=(8, 8))
        src = tmp_path / f"src{maxval}.pgm"
        write_text(
            src,
            f"P2\n8 8\n{maxval}\n" + "\n".join(" ".join(str(v) for v in row) for row in pixels),
        )
        world = iq.load_pgm(src)
        dst = tmp_path / f"dst{maxval}.pgm"
        write_pgm(dst, world)
        back, back_maxval = _read_pgm(dst)
        assert back_maxval == maxval
        assert np.array_equal(back, pixels)


def test_load_prior_examples(tmp_path):
    world = random_world(np.random.default_rng(0), 1)
    path = tmp_path / "w.txt"

    write_text(path, "5\n5\n5\n5\n")
    assert np.allclose(iq.load_prior(path, world).cell_prior, 0.25)

    write_text(path, "1\n0\n0\n0\n")
    point = iq.load_prior(path, world)
    assert point.cell_prior[point.cell_prior > 0].tolist() == [1.0]

    write_text(path, "3\n1\n0\n0\n")
    skew = iq.load_prior(path, world)
    assert sorted(skew.cell_prior.tolist()) == [0.0, 0.0, 0.25, 0.75]


def test_load_prior_row_major_order(tmp_path):
    # weight 1 on row-major cell 1 = (row 0, col 1) = Morton cell 1 at l=1
    world = random_world(np.random.default_rng(0), 1)
    path = tmp_path / "w.txt"
    write_text(path, "0\n1\n0\n0\n")
    loaded = iq.load_prior(path, world)
    assert loaded.cell_prior.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_load_prior_errors(tmp_path):
    world = random_world(np.random.default_rng(0), 1)
    path = tmp_path / "w.txt"
    write_text(path, "1\n1\n1\n")
    with pytest.raises(ValueError, match="count mismatch"):
        iq.load_prior(path, world)
    write_text(path, "0\n0\n0\n0\n")
    with pytest.raises(ValueError, match="all-zero"):
        iq.load_prior(path, world)
    write_text(path, "1\n-1\n1\n1\n")
    with pytest.raises(ValueError, match="negative weight"):
        iq.load_prior(path, world)
    for bad in ("nan", "inf", "-inf"):
        write_text(path, f"1\n{bad}\n1\n1\n")
        with pytest.raises(ValueError, match="non-finite weight"):
            iq.load_prior(path, world)


@pytest.mark.parametrize("weights, message", [
    ([[1, -1], [1, 1]], "negative weight"),
    ([[0, 0], [0, 0]], "all-zero"),
    ([[1, 1, 1], [1, 1, 1]], "count mismatch"),
    ([[1, np.nan], [1, 1]], "non-finite weight"),
])
def test_world_from_grid_checks_prior_weights(weights, message):
    with pytest.raises(ValueError, match=message):
        iq.world_from_grid([[1, 0], [0, 1]], prior_grid=weights)


def test_mutual_info_identical_cells_is_zero():
    rel = np.tile([0.3, 0.7], (16, 1))
    world = iq.world_from_cells(2, rel)
    assert iq.mutual_info_xy(world) == 0.0


def test_mutual_info_checkerboard():
    world = iq.world_from_grid([[1, 0], [1, 0]])
    assert iq.mutual_info_xy(world) == pytest.approx(LN2, abs=1e-12)
    assert _mi_double_sum(world) == pytest.approx(LN2, abs=1e-12)


def test_mutual_info_two_hot_sixteen_cells():
    p1 = np.zeros(16)
    p1[[3, 9]] = 1.0
    world = iq.world_from_cells(2, np.column_stack([1 - p1, p1]))
    expected = 0.37677016125643675  # H(Y) at p(y=1)=1/8; H(Y|X)=0
    assert iq.mutual_info_xy(world) == pytest.approx(expected, abs=1e-12)
    assert _mi_double_sum(world) == pytest.approx(expected, abs=1e-12)


def test_mutual_info_matches_double_sum_randomly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        world = random_world(rng, int(rng.integers(1, 3)),
                             uniform_prior=bool(rng.integers(0, 2)),
                             zero_prior=True)
        assert iq.mutual_info_xy(world) == pytest.approx(_mi_double_sum(world), abs=1e-12)


def test_mutual_info_bounds_and_permutation_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        world = random_world(rng, 2, y_size=int(rng.integers(2, 5)))
        mi = iq.mutual_info_xy(world)
        assert 0.0 <= mi <= math.log(world.y_alphabet_size) + 1e-12
        perm = rng.permutation(world.num_cells)
        shuffled = iq.world_from_cells(2, world.cell_relevance[perm])
        assert iq.mutual_info_xy(shuffled) == pytest.approx(mi, abs=1e-12)


def test_worldmap_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        iq.WorldMap(1, 2, np.full((4, 2), 0.4), np.full(4, 0.25))
    with pytest.raises(ValueError, match="negative"):
        iq.WorldMap(1, 2, np.tile([1.5, -0.5], (4, 1)), np.full(4, 0.25))
    with pytest.raises(ValueError, match="shape"):
        iq.WorldMap(1, 2, np.tile([0.5, 0.5], (5, 1)), np.full(4, 0.25))
    for bad, message in ((np.nan, "NaN"), (np.inf, "sum to 1"), (-np.inf, "negative")):
        with pytest.raises(ValueError, match=message):
            iq.WorldMap(1, 2, np.tile([0.5, bad], (4, 1)), np.full(4, 0.25))
        with pytest.raises(ValueError, match=message):
            iq.WorldMap(1, 2, np.tile([0.5, 0.5], (4, 1)), np.array([bad, 0.25, 0.25, 0.25]))
    with pytest.raises(ValueError):
        iq.WorldMap(1, 1, np.ones((4, 1)), np.full(4, 0.25))


def test_prior_from_weights_rescaling_is_bitwise_invariant():
    rng = np.random.default_rng(9)
    world = random_world(rng, 2)
    weights = rng.random(16)
    one = prior_from_weights(weights, world)
    four = prior_from_weights(4.0 * weights, world)  # exact power-of-two scale
    assert np.array_equal(one.cell_prior, four.cell_prior)


def test_render_abstraction(tmp_path):
    world = iq.world_from_grid([[1, 1], [0, 0]])
    sel = iq.TreeSelection(np.zeros(1, np.uint8))
    path = tmp_path / "render.pgm"
    iq.render_abstraction(path, world, sel)
    pixels, maxval = _read_pgm(path)
    # single root leaf: p(y=1|t) = 0.5 -> gray = round(255 * 0.5)
    assert maxval == 255
    assert np.all(pixels == 128)
    full = iq.TreeSelection(np.ones(1, np.uint8))
    iq.render_abstraction(path, world, full)
    pixels, _ = _read_pgm(path)
    assert pixels.tolist() == [[0, 0], [255, 255]]


def _render_worlds(rng, depth_l):
    """Maps whose leaf means often land exactly on a half gray level (i.i.d.
    and 2x2-blocky binary and gray maps, read the way load_pgm reads them),
    and a blocky prior with zero-weight leaves, which take the fallback; each
    of them also as a world of gray range 1000, which renders at that range."""
    side = 2 ** depth_l
    half = max(side // 2, 1)

    def blocky(grid):
        return np.kron(grid, np.ones((2, 2), dtype=grid.dtype))[:side, :side]

    binary = rng.integers(0, 2, (side, side)) * 255
    gray = rng.integers(0, 256, (side, side))
    weights = blocky(rng.random((half, half)) * (rng.random((half, half)) < 0.6))
    weights[0, 0] += 1.0 if not weights.any() else 0.0
    for maxval in (255, 1000):
        for grays in (binary, blocky(binary[:half, :half]), gray, blocky(gray[:half, :half])):
            yield iq.world_from_grid(1.0 - grays / 255, maxval=maxval)
        yield iq.world_from_grid(1.0 - gray / 255, prior_grid=weights, maxval=maxval)


@pytest.mark.parametrize("depth_l", range(7))
def test_render_matches_the_leaf_by_leaf_render(tmp_path, depth_l):
    rng = np.random.default_rng(depth_l)
    n = (4 ** depth_l - 1) // 3
    for world in _render_worlds(rng, depth_l):
        # the relevance column is a strided view: the dot products must run on
        # it, not on a copy, to round the half gray levels the same way
        assert world.cell_relevance[:, 1].strides == (16,)
        selections = [iq.TreeSelection(np.zeros(n, np.uint8)), iq.TreeSelection(np.ones(n, np.uint8))]
        selections += [random_valid_selection(rng, depth_l, p) for p in (0.5, 0.8)]
        for sel in selections:
            iq.render_abstraction(tmp_path / "new.pgm", world, sel)
            reference_render(tmp_path / "old.pgm", world, sel)
            assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "old.pgm").read_bytes()


def test_render_rejects_invalid_selection(tmp_path):
    world = iq.world_from_grid(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="invalid selection"):
        iq.render_abstraction(tmp_path / "r.pgm", world, iq.TreeSelection(np.array([0, 1, 0, 0, 0])))


def _load_bytes(tmp_path, data: bytes):
    path = tmp_path / "map.pgm"
    path.write_bytes(data)
    return iq.load_pgm(path)


def _load_weights(tmp_path, text: str):
    path = tmp_path / "prior.txt"
    write_text(path, text)
    return iq.load_prior(path, iq.world_from_grid(np.zeros((2, 2))))


_THREE_SYMBOLS = iq.world_from_cells(1, np.full((4, 3), 1 / 3))


@pytest.mark.parametrize("call,message", [
    (lambda tmp: iq.WorldMap(-1, 2, np.zeros((1, 2)), np.ones(1)), r"^negative depth_l: -1$"),
    (lambda tmp: iq.WorldMap(1, 2, np.tile([0.5, 0.5], (4, 1)), np.full(3, 1 / 3)),
     r"^cell_prior shape \(3,\) does not match \(4,\)$"),
    (lambda tmp: _load_bytes(tmp, b"P2\n4 x4\n255\n"),
     r"^malformed PGM header: invalid literal for int\(\) with base 10: b'x4'$"),
    (lambda tmp: _load_bytes(tmp, b"P2\n0 4\n255\n"),
     r"^malformed PGM header: non-positive dimensions$"),
    (lambda tmp: _load_bytes(tmp, b"P5\n4 4\n255\n" + bytes(15)), r"^truncated PGM raster$"),
    (lambda tmp: write_pgm(tmp / "out.pgm", _THREE_SYMBOLS),
     r"^PGM output requires a binary relevance alphabet$"),
    (lambda tmp: _load_weights(tmp, "1\n2\nheavy\n4\n"), r"^invalid weight on line 3: 'heavy'$"),
    (lambda tmp: iq.world_from_grid(np.zeros((2, 4))), r"^grid must be square, got shape \(2, 4\)$"),
    (lambda tmp: iq.render_abstraction(tmp / "r.pgm", _THREE_SYMBOLS,
                                       iq.TreeSelection(np.zeros(1, np.uint8))),
     r"^rendering requires a binary relevance alphabet$"),
    (lambda tmp: iq.render_abstraction(tmp / "r.pgm", iq.world_from_grid(np.zeros((4, 4))),
                                       iq.TreeSelection(np.zeros(1, np.uint8))),
     r"^selection depth_l 1 does not match world 2$"),
], ids=["negative-depth", "prior-shape", "header-token", "zero-width", "truncated-p5",
        "pgm-three-symbols", "weight-line", "non-square-grid", "render-three-symbols",
        "render-depth"])
def test_world_rejects_bad_input(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
    assert not (tmp_path / "out.pgm").exists() and not (tmp_path / "r.pgm").exists()


def test_load_prior_skips_blank_lines(tmp_path):
    spaced = _load_weights(tmp_path, "\n1\n\n2\n  \n3\n4\n\n")
    packed = _load_weights(tmp_path, "1\n2\n3\n4\n")
    assert np.array_equal(spaced.cell_prior, packed.cell_prior)
    assert packed.cell_prior.tolist() == [0.1, 0.2, 0.3, 0.4]
