"""Grid-world ingestion and the joint distribution p(x, y).

A WorldMap couples a 2^l x 2^l grid of finest cells with a per-cell relevance
distribution p(y|x) and a cell prior p(x).  Cells are indexed by their Morton
index at depth l; file interfaces (PGM rasters, prior weight lists) are
row-major and converted on the way in and out.  Every binary-relevance world
built from a grid, a PGM raster included, goes through world_from_grid, and
every non-uniform prior through prior_from_weights; WorldMap rejects
non-finite, negative and unnormalized entries.

Intensity convention: with invert on (the default) darker pixels carry more
relevance mass, p(y=1|x) = 1 - gray/maxval.  All information quantities are in
nats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .quadtree import TreeSelection, _leaf_depths, is_valid_selection, morton_permutation

__all__ = [
    "WorldMap",
    "load_pgm",
    "write_pgm",
    "load_prior",
    "prior_from_weights",
    "mutual_info_xy",
    "world_from_grid",
    "world_from_cells",
    "render_abstraction",
    "NORMALIZATION_TOL",
]

NORMALIZATION_TOL = 1e-12
MAX_PGM_MAXVAL = 65535
# a PGM comment runs to the end of its line and also ends a token
_COMMENT = rb"#[^\n]*"
_HEADER_TOKEN = re.compile(_COMMENT + rb"|([^\s#]+)")


@dataclass(frozen=True, eq=False)
class WorldMap:
    """Immutable grid world with relevance distribution and cell prior.

    cell_relevance has shape (4^l, y_alphabet_size): row x is p(y|x).
    cell_prior has shape (4^l,): p(x).  Both are Morton-ordered.
    maxval records the gray range of the source raster (255 when synthetic).
    """

    depth_l: int
    y_alphabet_size: int
    cell_relevance: np.ndarray
    cell_prior: np.ndarray
    maxval: int = 255

    def __post_init__(self):
        if self.depth_l < 0:
            raise ValueError(f"negative depth_l: {self.depth_l}")
        if self.y_alphabet_size < 2:
            raise ValueError(f"y_alphabet_size must be >= 2, got {self.y_alphabet_size}")
        cells = 4 ** self.depth_l
        rel = np.ascontiguousarray(self.cell_relevance, dtype=np.float64)
        pri = np.ascontiguousarray(self.cell_prior, dtype=np.float64)
        if rel.shape != (cells, self.y_alphabet_size):
            raise ValueError(
                f"cell_relevance shape {rel.shape} does not match "
                f"({cells}, {self.y_alphabet_size})"
            )
        if pri.shape != (cells,):
            raise ValueError(f"cell_prior shape {pri.shape} does not match ({cells},)")
        # written so that NaN fails; an infinite entry fails its sum
        if not np.all(rel >= 0):
            raise ValueError("cell_relevance has negative or NaN entries")
        if np.any(np.abs(rel.sum(axis=1) - 1.0) > NORMALIZATION_TOL):
            raise ValueError("cell_relevance rows must sum to 1 within 1e-12")
        if not np.all(pri >= 0):
            raise ValueError("cell_prior has negative or NaN entries")
        if abs(pri.sum() - 1.0) > NORMALIZATION_TOL:
            raise ValueError("cell_prior must sum to 1 within 1e-12")
        rel.setflags(write=False)
        pri.setflags(write=False)
        object.__setattr__(self, "cell_relevance", rel)
        object.__setattr__(self, "cell_prior", pri)

    @property
    def side(self) -> int:
        return 2 ** self.depth_l

    @property
    def num_cells(self) -> int:
        return 4 ** self.depth_l


def _read_pgm(path) -> tuple[np.ndarray, int]:
    """Parse a P2/P5 PGM into a (height, width) int array plus its maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    tokens = (m for m in _HEADER_TOKEN.finditer(data) if m[1])
    for _ in range(4):
        match = next(tokens, None)
        if match is None:
            raise ValueError("malformed PGM header: unexpected end of file")
        token, pos = match[1], match.end()
        if not fields and token not in (b"P2", b"P5"):
            raise ValueError("malformed PGM header: expected P2 or P5 magic")
        try:
            fields.append(int(token) if fields else token)
        except ValueError as exc:
            raise ValueError(f"malformed PGM header: {exc}") from None
    magic, width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError("malformed PGM header: non-positive dimensions")
    if not 1 <= maxval <= MAX_PGM_MAXVAL:
        raise ValueError(f"maxval out of range [1, {MAX_PGM_MAXVAL}]: {maxval}")

    count = width * height
    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        dtype = ">u2" if maxval > 255 else np.uint8
        itemsize = 2 if maxval > 255 else 1
        raster = data[pos:pos + count * itemsize]
        if len(raster) < count * itemsize:
            raise ValueError("truncated PGM raster")
        pixels = np.frombuffer(raster, dtype=dtype, count=count).astype(np.int64)
    else:
        tokens = re.sub(_COMMENT, b" ", data[pos:]).split()
        if len(tokens) < count:
            raise ValueError("truncated PGM raster")
        try:
            pixels = np.array(list(map(int, tokens[:count])), dtype=np.int64)
        except ValueError:
            raise ValueError("truncated PGM raster") from None
        except OverflowError:   # a pixel beyond int64 is out of range: clip it for the checks
            pixels = np.array([min(max(int(t), -1), maxval + 1) for t in tokens[:count]])
    if np.any(pixels < 0):
        raise ValueError("negative pixel value")
    if np.any(pixels > maxval):
        raise ValueError("pixel value exceeds maxval")
    return pixels.reshape(height, width), maxval


def write_pgm(path, world: WorldMap, invert: bool = True):
    """Serialize a binary-relevance world back to an ASCII (P2) PGM.

    With the same invert flag used at load time this is lossless: pixel values
    round-trip bit-exactly.
    """
    if world.y_alphabet_size != 2:
        raise ValueError("PGM output requires a binary relevance alphabet")
    p1 = world.cell_relevance[:, 1]
    level = (1.0 - p1) if invert else p1
    _write_p2(path, world, np.rint(world.maxval * level).astype(np.int64), world.maxval)


def _write_p2(path, world: WorldMap, grays: np.ndarray, maxval: int):
    """Write the world's Morton-ordered gray levels as an ASCII (P2) PGM."""
    grid = np.empty(world.num_cells, dtype=np.int64)
    grid[morton_permutation(world.depth_l)] = grays
    rows = "\n".join(" ".join(map(str, row)) for row in grid.reshape(world.side, -1).tolist())
    with open(path, "w") as fh:
        fh.write(f"P2\n{world.side} {world.side}\n{maxval}\n{rows}\n")


def load_pgm(path, invert: bool = True) -> WorldMap:
    """Read a square power-of-two PGM as a world with uniform cell prior.

    invert=True maps darker pixels to higher p(y=1|x): p(y=1|x) = 1 - gray/maxval.
    """
    pixels, maxval = _read_pgm(path)
    height, width = pixels.shape
    if width != height:
        raise ValueError(f"non-square image: {width}x{height}")
    level = pixels / maxval
    return world_from_grid(1.0 - level if invert else level, maxval=maxval)


def prior_from_weights(weights, world: WorldMap) -> WorldMap:
    """New world with p(x) = weights / sum(weights); weights are row-major."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (world.num_cells,):
        raise ValueError(
            f"weight count mismatch: got {weights.size}, expected {world.num_cells}"
        )
    if not np.isfinite(weights).all():
        raise ValueError("non-finite weight")
    if np.any(weights < 0):
        raise ValueError("negative weight")
    total = weights.sum()
    if total <= 0:
        raise ValueError("all-zero weights")
    prior = (weights / total)[morton_permutation(world.depth_l)]
    return WorldMap(
        world.depth_l, world.y_alphabet_size, world.cell_relevance, prior,
        maxval=world.maxval,
    )


def load_prior(path, world: WorldMap) -> WorldMap:
    """Read a plain-text weight file (one float per line, row-major cell order)."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"invalid weight on line {lineno}: {text!r}") from None
    return prior_from_weights(np.array(values), world)


def _plogp(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    mask = v > 0
    out[mask] = v[mask] * np.log(v[mask])
    return out


def mutual_info_xy(world: WorldMap) -> float:
    """I(X;Y) = H(Y) - H(Y|X) of the uncompressed world, in nats."""
    p_y = world.cell_prior @ world.cell_relevance
    h_y = -_plogp(p_y).sum()
    row_entropy = -_plogp(world.cell_relevance).sum(axis=1)
    h_y_given_x = float(world.cell_prior @ row_entropy)
    value = h_y - h_y_given_x
    return 0.0 if -1e-12 < value < 0.0 else float(value)


def world_from_cells(depth_l, cell_relevance, cell_prior=None, maxval=255) -> WorldMap:
    """World from Morton-ordered per-cell p(y|x) rows (uniform prior by default)."""
    rel = np.asarray(cell_relevance, dtype=np.float64)
    if cell_prior is None:
        cell_prior = np.full(rel.shape[0], 1.0 / rel.shape[0])
    return WorldMap(depth_l, rel.shape[1], rel, np.asarray(cell_prior, float), maxval=maxval)


def world_from_grid(p1_grid, prior_grid=None, maxval=255) -> WorldMap:
    """Binary-relevance world from a row-major 2^l x 2^l grid of p(y=1|x) values.

    The prior is uniform unless prior_grid holds row-major cell weights, which
    are checked and normalized as load_prior's are.
    """
    grid = np.asarray(p1_grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"grid must be square, got shape {grid.shape}")
    side = grid.shape[0]
    if side & (side - 1):
        raise ValueError(f"side not a power of two: {side}")
    depth_l = side.bit_length() - 1
    cells = grid.ravel()[morton_permutation(depth_l)]
    world = world_from_cells(depth_l, np.column_stack([1.0 - cells, cells]), maxval=maxval)
    return world if prior_grid is None else prior_from_weights(np.ravel(prior_grid), world)


def render_abstraction(path, world: WorldMap, selection: TreeSelection):
    """Write a P2 PGM filling each leaf region with round(world.maxval * (1 - p(y=1|t))).

    Zero-mass leaves have no defined relevance; they fall back to the unweighted
    mean intensity of their cells so the render stays deterministic.
    """
    if world.y_alphabet_size != 2:
        raise ValueError("rendering requires a binary relevance alphabet")
    if selection.depth_l != world.depth_l:
        raise ValueError(
            f"selection depth_l {selection.depth_l} does not match world {world.depth_l}"
        )
    if not is_valid_selection(selection, world.depth_l):
        raise ValueError("invalid selection: child selected without its parent")
    leaf_depths = _leaf_depths(selection.z, world.depth_l)
    # The leaves of depth d are rows of (blocks, width) views, reduced row by
    # row as one leaf range would be.  The dot products run on the strided
    # relevance column, not on a copy, so means that land exactly on a half
    # gray level round the same way as those of a per-leaf loop.
    p1 = world.cell_relevance[:, 1]
    fill = np.empty(world.num_cells, dtype=np.float64)
    for d in range(world.depth_l + 1):
        width = 4 ** (world.depth_l - d)
        leaves = np.flatnonzero(leaf_depths[::width] == d)
        prior, rel = world.cell_prior.reshape(-1, 1, width), p1.reshape(-1, width, 1)
        mass = prior.sum(axis=2)[leaves, 0]
        dot = (prior @ rel)[leaves, 0, 0]
        mean = rel.mean(axis=1)[leaves, 0]
        value = np.where(mass > 0, dot / np.where(mass > 0, mass, 1.0), mean)
        fill.reshape(-1, width)[leaves] = value[:, None]
    _write_p2(path, world, np.rint(world.maxval * (1.0 - fill)).astype(np.int64), world.maxval)
