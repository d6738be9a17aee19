"""Seeded inputs, CLI operation lists and correctness checks for each workload.

A workload turns a seed into map files on disk plus a fixed list of CLI
operations over them.  The program under test sees only those files.  Every
operation carries its own check, which compares the command's outputs with the
recorded reference values when the seed has them and with properties that must
hold for any input otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9
MAXVAL = 255
REFERENCE_FILE = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    depth: int            # maps are 2^depth x 2^depth
    maps: int             # maps per run; each run holds one fixed list of operations
    weighted: bool        # write a --prior weight file for every map
    noise: bool           # i.i.d. gray levels instead of grid-world blobs
    commands: tuple       # per-map operation kinds, in order; "validate"
                          # rechecks the tree of the abstract command before it


# The command mixes put the median and the 90th percentile inside one kind
# of command each, not on the gap between two kinds, where a few ops moving
# across would shift them a lot.
WORKLOADS = {
    w.name: w for w in (
        # One-shot commands: PGM parse, increments, then a cold lattice
        # tabulation or a HiGHS LP per op.  No search, no Pareto trace.
        # I.i.d. gray levels are the LP's hard case, so the relax commands
        # make up the p90 tail.
        Workload("cli-uniform64", 6, 36, False, True,
                 ("min-rate", "validate", "max-relevance", "validate", "relax")),
        # The lattice used the other way: one tabulation, then ~340 warm
        # lookups and reconstructions per op.  No LP, no search.
        Workload("frontier-uniform16", 4, 80, False, False, ("pareto",)),
        # The only workload that reaches the branch-and-bound search.
        Workload("cli-weighted16", 4, 240, True, False,
                 ("min-rate", "validate", "max-relevance")),
    )
}

# Fixed fractions, cycled over the maps of a run.  They keep the weighted
# search clear of its multi-second outliers, so that the mean over one run's
# maps is steady from seed to seed.
DHAT_FRACS = (0.6, 0.7, 0.75, 0.8, 0.85)
BUDGET_FRACS = (5.0, 7.5, 10.0, 30.0, 60.0)

# Sizes the smoke test shrinks every workload to.
SMOKE_MAPS = 2


# ---------------------------------------------------------------- inputs


def rng_for(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def make_grays(rng: np.random.Generator, side: int, noise: bool = False) -> np.ndarray:
    """Row-major gray levels of a grid-world map: dark relevant blobs on a light
    floor, plus pixel noise.  Darker pixels carry more relevance.  With `noise`
    every pixel is an independent uniform gray level instead."""
    if noise:
        return rng.integers(0, MAXVAL + 1, (side, side))
    yy, xx = np.mgrid[0:side, 0:side] + 0.5
    field = np.zeros((side, side))
    for _ in range(6):
        cy, cx = rng.uniform(0, side, 2)
        width = rng.uniform(side / 16, side / 4)
        field += rng.uniform(0.3, 1.0) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width * width)
        )
    field += rng.normal(0.0, 0.05, (side, side))
    return np.clip(np.rint(MAXVAL * (1.0 - np.clip(field, 0.0, 1.0))), 0, MAXVAL).astype(np.int64)


def make_weights(rng: np.random.Generator, side: int) -> np.ndarray:
    """Row-major positive cell weights for a --prior file."""
    return np.exp(rng.normal(0.0, 0.5, (side, side)))


def write_p2(path: Path, grays: np.ndarray) -> None:
    side = grays.shape[0]
    rows = "\n".join(" ".join(map(str, row)) for row in grays.tolist())
    path.write_text(f"P2\n{side} {side}\n{MAXVAL}\n{rows}\n")


def write_weights(path: Path, weights: np.ndarray) -> None:
    path.write_text("".join(f"{w!r}\n" for w in weights.ravel().tolist()))


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return -(np.where(p > 0, p * np.log(p), 0.0)
                 + np.where(p < 1, (1 - p) * np.log1p(-p), 0.0))


def mutual_info(grays: np.ndarray, weights: np.ndarray | None) -> float:
    """I(X;Y) in nats of a binary-relevance map, p(y=1|x) = 1 - gray/maxval."""
    p1 = 1.0 - grays.ravel() / MAXVAL
    px = np.full(p1.size, 1.0 / p1.size) if weights is None else weights.ravel() / weights.sum()
    return float(_binary_entropy(np.array([px @ p1]))[0] - px @ _binary_entropy(p1))


@dataclass
class Op:
    """One timed CLI call plus what its check needs."""

    map_index: int
    kind: str
    argv: list
    info_xy: float
    bound: float = 0.0
    out: Path | None = None
    render: Path | None = None
    side: int = 0


def build_ops(workload: Workload, seed: int, workdir: Path,
              maps: int | None = None) -> list[Op]:
    """Write the run's map files into workdir and return its operation list."""
    workdir.mkdir(parents=True, exist_ok=True)
    side = 2 ** workload.depth
    ops: list[Op] = []
    for i in range(workload.maps if maps is None else maps):
        rng = rng_for(seed, i, workload.depth, workload.weighted, workload.noise)
        grays = make_grays(rng, side, workload.noise)
        pgm = workdir / f"map{i}.pgm"
        write_p2(pgm, grays)
        base = ["--input", str(pgm)]
        weights = None
        if workload.weighted:
            weights = make_weights(rng, side)
            prior = workdir / f"map{i}.prior"
            write_weights(prior, weights)
            base += ["--prior", str(prior)]
        info = mutual_info(grays, weights)
        f_d = DHAT_FRACS[i % len(DHAT_FRACS)]
        f_b = BUDGET_FRACS[i % len(BUDGET_FRACS)]
        tree = None   # the last tree document written for this map
        for kind in workload.commands:
            if kind == "min-rate":
                tree = workdir / f"map{i}.min.json"
                op = Op(i, kind, ["abstract", *base, "--mode", "min-rate", "--dhat-frac", repr(f_d),
                                  "--out", str(tree)], info, f_d * info, out=tree, side=side)
                if not workload.weighted:
                    op.render = workdir / f"map{i}.render.pgm"
                    op.argv += ["--render", str(op.render)]
            elif kind == "max-relevance":
                tree = workdir / f"map{i}.max.json"
                op = Op(i, kind, ["abstract", *base, "--mode", "max-relevance", "--budget-frac",
                                  repr(f_b), "--out", str(tree)], info, f_b * info, out=tree, side=side)
            elif kind == "relax":
                out = workdir / f"map{i}.relax.json"
                op = Op(i, kind, ["relax", *base, "--dhat", repr(f_d * info), "--out", str(out)],
                        info, f_d * info, out=out, side=side)
            elif kind == "validate":
                op = Op(i, kind, ["validate", "--tree", str(tree), *base], info, side=side)
            elif kind == "pareto":
                out = workdir / f"map{i}.pareto.csv"
                op = Op(i, kind, ["pareto", *base, "--out", str(out)], info, out=out, side=side)
            else:
                raise ValueError(f"unknown operation kind {kind!r}")
            ops.append(op)
    return ops


def warmup_ops(workload: Workload, workdir: Path) -> list[Op]:
    """Operations on one fixed map, independent of the seed, run before timing."""
    return build_ops(workload, 2**31 - 1, workdir / "warmup", maps=1)


# ---------------------------------------------------------------- checks


def _read_tree(path: Path, side: int) -> tuple[dict, str | None]:
    doc = json.loads(path.read_text())
    depth_l = int(doc["depth_l"])
    if 2 ** depth_l != side:
        return doc, f"tree depth_l {depth_l} does not match side {side}"
    selected = {(int(d), int(m)) for d, m in doc["selected"]}
    for d, m in selected:
        if not (0 <= d < depth_l and 0 <= m < 4 ** d):
            return doc, f"node ({d}, {m}) out of range"
        if d > 0 and (d - 1, m >> 2) not in selected:
            return doc, f"node ({d}, {m}) selected without its parent"
    if int(doc["leaf_count"]) != 1 + 3 * len(selected):
        return doc, "leaf_count does not match the selection"
    return doc, None


def _check_render(path: Path, side: int) -> str | None:
    tokens = path.read_text().split()
    if tokens[:4] != ["P2", str(side), str(side), str(MAXVAL)] or len(tokens) != 4 + side * side:
        return "render is not a side x side P2 map"
    if not all(0 <= int(t) <= MAXVAL for t in tokens[4:]):
        return "render pixel out of range"
    return None


def _stdout_field(stdout: str, key: str) -> str:
    """First word after `key:` in a command's report."""
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].split()[0]
    raise ValueError(f"{key} missing from output")


def pareto_digest(rows: list[tuple[float, float, int]]) -> list:
    """Compact reference form of a Pareto CSV: row count, a hash of the exact
    leaf counts, and the sums of each value column."""
    leaf = ",".join(str(r[2]) for r in rows).encode()
    return [len(rows), hashlib.sha256(leaf).hexdigest()[:16],
            math.fsum(r[0] for r in rows), math.fsum(r[1] for r in rows)]


def _read_pareto(path: Path) -> list[tuple[float, float, int]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [(float(r["i_x_nats"]), float(r["i_y_nats"]), int(r["leaf_count"])) for r in reader]


def observe(op: Op, code, stdout: str, earlier: dict) -> tuple[list | None, str | None]:
    """Check one finished operation against the properties every input must
    satisfy.  Returns (reference record, error); the record is what
    references.json stores for this operation.  `earlier` maps the kinds
    already run on the same map to their records."""
    if code != 0:
        return None, f"exit code {code}"
    if op.kind == "validate":
        return None, None if stdout.strip() == "consistent" else f"validate said {stdout.strip()!r}"
    if op.kind == "pareto":
        rows = _read_pareto(op.out)
        if not rows or rows[0][:2] != (0.0, 0.0):
            return None, "frontier does not start at (0, 0)"
        for (x0, y0, _), (x1, y1, _) in zip(rows, rows[1:]):
            if not (x1 > x0 and y1 > y0):
                return None, f"frontier not strictly increasing at ({x1}, {y1})"
        if abs(rows[-1][1] - op.info_xy) > TOL:
            return None, f"frontier ends at {rows[-1][1]!r}, not I(X;Y) = {op.info_xy!r}"
        return pareto_digest(rows), None
    doc, err = _read_tree(op.out, op.side)
    if err is None and op.render is not None:
        err = _check_render(op.render, op.side)
    if err:
        return None, err
    i_x, i_y = float(doc["i_x_nats"]), float(doc["i_y_nats"])
    if (abs(float(_stdout_field(stdout, "i_x")) - i_x) > TOL
            or abs(float(_stdout_field(stdout, "i_y")) - i_y) > TOL):
        return None, "printed information pair differs from the tree document"
    if op.kind == "min-rate":
        if i_y < op.bound - TOL:
            return None, f"min-rate i_y {i_y!r} below the floor {op.bound!r}"
        return [i_x, i_y], None
    if op.kind == "max-relevance":
        if i_x > op.bound + TOL:
            return None, f"max-relevance i_x {i_x!r} above the budget {op.bound!r}"
        return [i_x, i_y], None
    # relax: the rounded tree is only checked for validity, since another LP
    # solver may round a different optimal vertex
    lp = float(_stdout_field(stdout, "lp_objective"))
    if (_stdout_field(stdout, "met_constraint") == "true") != (i_y >= op.bound - TOL):
        return None, "met_constraint disagrees with the rounded tree"
    exact = earlier.get("min-rate")
    if exact is not None and lp > exact[0] + TOL:
        return None, f"LP objective {lp!r} above the exact min-rate {exact[0]!r}"
    return [lp], None


def compare(record: list, reference: list) -> str | None:
    """Mismatch between an operation's record and its recorded reference."""
    if any(isinstance(v, str) for v in reference):  # Pareto digest
        n, leaf_hash, sx, sy = reference
        if record[0] != n or record[1] != leaf_hash:
            return f"frontier rows/leaf counts differ: {record[:2]} vs {reference[:2]}"
        tol = n * TOL
        if abs(record[2] - sx) > tol or abs(record[3] - sy) > tol:
            return "frontier values differ from the reference"
        return None
    if len(record) != len(reference):
        return f"record {record} does not match the reference's shape {reference}"
    for got, want in zip(record, reference):
        if abs(got - want) > TOL:
            return f"value {got!r} differs from reference {want!r}"
    return None


def references(workload: Workload, seed: int) -> list | None:
    """Recorded records of one run's operations, in order, or None for a seed
    without references."""
    if not REFERENCE_FILE.exists():
        return None
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(workload.name, {}).get(str(seed))
