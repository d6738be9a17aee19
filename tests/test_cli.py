import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import infoquad as iq
from infoquad.cli import main
from helpers import READER_CASES, reader_case_document, write_text


@pytest.fixture()
def quad_pgm(tmp_path):
    """4x4 map matching the quadrant world: dark cells at Morton cells 0 and 2."""
    path = tmp_path / "quad.pgm"
    # Morton cells 0,2 at depth 2 are (row 0, col 0) and (row 1, col 0)
    write_text(path, "P2\n4 4\n255\n0 255 255 255\n0 255 255 255\n"
                     "255 255 255 255\n255 255 255 255\n")
    return path


@pytest.fixture()
def flat_pgm(tmp_path):
    path = tmp_path / "flat.pgm"
    write_text(path, "P2\n2 2\n255\n7 7\n7 7\n")
    return path


def test_abstract_min_rate_writes_tree_and_report(quad_pgm, tmp_path, capsys):
    out = tmp_path / "tree.json"
    render = tmp_path / "render.pgm"
    code = main([
        "abstract", "--input", str(quad_pgm), "--mode", "min-rate",
        "--dhat-frac", "1.0", "--out", str(out), "--render", str(render),
    ])
    assert code == 0
    report = capsys.readouterr().out
    assert "leaf_count: 7" in report
    assert "relevance_ratio: 1" in report
    doc = json.loads(out.read_text())
    assert doc["selected"] == [[0, 0], [1, 0]]
    assert doc["i_x_nats"] == pytest.approx(1.7328679513998633, abs=1e-9)
    assert render.exists()


def test_abstract_budget_mode(quad_pgm, capsys):
    code = main([
        "abstract", "--input", str(quad_pgm), "--mode", "max-relevance",
        "--budget", "0",
    ])
    assert code == 0
    assert "leaf_count: 1" in capsys.readouterr().out


def test_abstract_zero_floor_is_root_tree(quad_pgm, capsys):
    code = main([
        "abstract", "--input", str(quad_pgm), "--mode", "min-rate",
        "--dhat-frac", "0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "leaf_count: 1" in out
    assert "leaf_fraction: 0.0625" in out  # one region over 4^l cells


def test_abstract_infeasible_floor_exits_one(quad_pgm, capsys):
    code = main([
        "abstract", "--input", str(quad_pgm), "--mode", "min-rate", "--dhat", "5.0",
    ])
    assert code == 1
    assert "exceeds I(X;Y)" in capsys.readouterr().err


def test_abstract_bits_units(quad_pgm, capsys):
    code = main([
        "abstract", "--input", str(quad_pgm), "--mode", "min-rate",
        "--dhat-frac", "1.0", "--units", "bits",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bits" in out
    assert "i_x: 2.5" in out  # 1.732868 nats = 2.5 bits


def test_abstract_missing_bound_exits_two(quad_pgm, capsys):
    code = main(["abstract", "--input", str(quad_pgm), "--mode", "min-rate"])
    assert code == 2


def test_abstract_missing_file_exits_two(tmp_path, capsys):
    code = main([
        "abstract", "--input", str(tmp_path / "nope.pgm"), "--mode", "min-rate",
        "--dhat", "0",
    ])
    assert code == 2


def test_abstract_bad_pgm_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.pgm"
    write_text(path, "P2\n3 3\n255\n" + "0 " * 9)
    code = main(["abstract", "--input", str(path), "--mode", "min-rate", "--dhat", "0"])
    assert code == 2
    assert "power of two" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["abstract", "--mode", "min-rate", "--dhat-frac", "0.8"],
    ["pareto", "--out", "pareto.csv"],
    ["infoplane", "--sweep", "3", "--out", "plane.csv"],
], ids=["abstract", "pareto", "infoplane"])
def test_node_limit_exits_one_with_one_error_line(tmp_path, capsys, command):
    # a 16x16 i.i.d. gray map with a log-normal prior needs more than 50
    # search nodes at these floors
    rng = np.random.default_rng(5)
    side = 16
    pgm, prior = tmp_path / "map.pgm", tmp_path / "prior.txt"
    write_text(pgm, f"P2\n{side} {side}\n255\n" + "\n".join(
        " ".join(map(str, row)) for row in rng.integers(0, 256, (side, side))) + "\n")
    write_text(prior, "\n".join(map(repr, np.exp(rng.normal(0, 0.5, side * side)).tolist())))
    argv = [*command, "--input", str(pgm), "--prior", str(prior), "--node-limit", "50"]
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: node-exploration limit of 50 reached")
    # infoplane solves its first floor before the limit hits; no partial CSV
    # may be left at --out
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_node_limit_must_be_positive(quad_pgm, capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["abstract", "--input", str(quad_pgm), "--mode", "min-rate",
              "--dhat", "0", "--node-limit", limit])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_abstract_with_prior(quad_pgm, tmp_path, capsys):
    prior = tmp_path / "prior.txt"
    # all mass on the top-left quadrant rows
    write_text(prior, "\n".join(["1"] * 8 + ["0"] * 8) + "\n")
    code = main([
        "abstract", "--input", str(quad_pgm), "--mode", "min-rate",
        "--dhat-frac", "1.0",
    ])
    assert code == 0
    code = main([
        "abstract", "--input", str(quad_pgm), "--prior", str(prior),
        "--mode", "min-rate", "--dhat-frac", "1.0",
    ])
    assert code == 0


def test_pareto_csv(quad_pgm, tmp_path, capsys):
    out = tmp_path / "pareto.csv"
    code = main(["pareto", "--input", str(quad_pgm), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("d_hat_query,")
    assert len(lines) == 4  # origin, root expansion, full quadrant


def test_pareto_flat_map_single_row(flat_pgm, tmp_path):
    out = tmp_path / "pareto.csv"
    assert main(["pareto", "--input", str(flat_pgm), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1:3] == ["0", "0"]


def test_pareto_large_random_map_completes(tmp_path):
    # coarse sweep on a 64x64 random map: completes, rows strictly increasing
    rng = np.random.default_rng(77)
    side = 64
    pixels = rng.integers(0, 256, size=(side, side))
    pgm = tmp_path / "big.pgm"
    write_text(pgm, f"P2\n{side} {side}\n255\n" +
               "\n".join(" ".join(str(v) for v in row) for row in pixels) + "\n")
    out = tmp_path / "pareto.csv"
    code = main(["pareto", "--input", str(pgm), "--eps-step", "0.01",
                 "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    rates = [float(r[1]) for r in rows]
    relevances = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert all(b > a for a, b in zip(relevances, relevances[1:]))


def test_infoplane_sweep(quad_pgm, tmp_path):
    out = tmp_path / "plane.csv"
    code = main(["infoplane", "--input", str(quad_pgm), "--sweep", "5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,d_hat,i_x,i_y,met_constraint,ms"
    assert len(lines) == 11  # 5 floors x 2 methods + header
    mi = 0.37677016125643675
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] in ("ilp", "relax-round")
        assert float(fields[3]) <= mi + 1e-9


def test_infoplane_single_point(flat_pgm, tmp_path):
    out = tmp_path / "plane.csv"
    assert main(["infoplane", "--input", str(flat_pgm), "--sweep", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[2]) == 0.0 and float(fields[3]) == 0.0


def test_relax_command(quad_pgm, tmp_path, capsys):
    out = tmp_path / "tree.json"
    frac_csv = tmp_path / "frac.csv"
    code = main([
        "relax", "--input", str(quad_pgm), "--dhat", "0.2", "--out", str(out),
        "--frac-csv", str(frac_csv),
    ])
    assert code == 0
    report = capsys.readouterr().out
    assert "met_constraint:" in report
    doc = json.loads(out.read_text())
    assert iq.is_valid_selection(
        iq.selection_from_nodes(doc["depth_l"], [iq.NodeId(d, m) for d, m in doc["selected"]]),
        doc["depth_l"],
    )
    lines = frac_csv.read_text().strip().splitlines()
    assert lines[0] == "depth,morton,z_frac"
    assert len(lines) == 6


def test_relax_frac_csv_columns_are_candidate_coordinates(tmp_path):
    rng = np.random.default_rng(5)
    pgm = tmp_path / "noise.pgm"
    grays = rng.integers(0, 256, (16, 16))
    write_text(pgm, "P2\n16 16\n255\n" + "\n".join(" ".join(map(str, r)) for r in grays.tolist()))
    frac_csv = tmp_path / "frac.csv"
    assert main(["relax", "--input", str(pgm), "--dhat", "0.05", "--frac-csv", str(frac_csv)]) == 0
    rows = [line.split(",") for line in frac_csv.read_text().splitlines()[1:]]
    assert [(int(d), int(m)) for d, m, _ in rows] == [
        (n.depth, n.morton) for n in map(iq.quadtree.candidate_at, range(85))
    ]


def test_relax_infeasible_exits_one(quad_pgm, capsys):
    assert main(["relax", "--input", str(quad_pgm), "--dhat", "9.9"]) == 1


def test_validate_roundtrip(quad_pgm, tmp_path):
    out = tmp_path / "tree.json"
    assert main([
        "abstract", "--input", str(quad_pgm), "--mode", "min-rate",
        "--dhat-frac", "0.5", "--out", str(out),
    ]) == 0
    assert main(["validate", "--tree", str(out), "--input", str(quad_pgm)]) == 0


def test_validate_orphan_child_exits_one(quad_pgm, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"depth_l": 2, "selected": [[1, 2]], "leaf_count": 4,'
        ' "i_x_nats": 0.0, "i_y_nats": 0.0}'
    )
    assert main(["validate", "--tree", str(bad), "--input", str(quad_pgm)]) == 1
    err = capsys.readouterr().err
    assert "depth=1, morton=2" in err and "depth=0, morton=0" in err


def test_validate_stale_information_exits_one(quad_pgm, tmp_path, capsys):
    out = tmp_path / "tree.json"
    main([
        "abstract", "--input", str(quad_pgm), "--mode", "min-rate",
        "--dhat-frac", "1.0", "--out", str(out),
    ])
    # mutate one pixel: the stored information pair goes stale
    mutated = tmp_path / "mutated.pgm"
    text = quad_pgm.read_text().replace("0 255 255 255", "255 255 255 255", 1)
    write_text(mutated, text)
    assert main(["validate", "--tree", str(out), "--input", str(mutated)]) == 1
    assert "recomputed" in capsys.readouterr().err


def test_validate_rejects_deeper_document_before_allocating(flat_pgm, tmp_path, capsys):
    # a depth-14 selection would take 89 MB; the 2x2 map's depth rules it out first
    deep = tmp_path / "deep.json"
    deep.write_text('{"depth_l": 14, "selected": [], "leaf_count": 1,'
                    ' "i_x_nats": 0.0, "i_y_nats": 0.0}')
    tracemalloc.start()
    try:
        code = main(["validate", "--tree", str(deep), "--input", str(flat_pgm)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "tree depth_l 14 does not match map depth_l 1" in capsys.readouterr().err
    assert peak < 4 * 2**20


def test_validate_hostile_node_depth_takes_no_power(flat_pgm, tmp_path, capsys):
    # 4 ** 40_000_000 alone is an 80-million-bit integer
    doc = tmp_path / "hostile.json"
    doc.write_text('{"depth_l": 1, "selected": [[40000000, 0]], "leaf_count": 4,'
                   ' "i_x_nats": 0.0, "i_y_nats": 0.0}')
    tracemalloc.start()
    try:
        code = main(["validate", "--tree", str(doc), "--input", str(flat_pgm)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 2**20
    assert "inconsistent: node (depth=40000000, morton=0) out of range" in capsys.readouterr().err


@pytest.mark.parametrize("case", READER_CASES)
def test_validate_exit_codes_of_hand_made_documents(quad_pgm, tmp_path, case):
    selected, leaf_count, _, code = READER_CASES[case]
    doc = tmp_path / "doc.json"
    doc.write_text(reader_case_document(selected, leaf_count))
    assert main(["validate", "--tree", str(doc), "--input", str(quad_pgm)]) == code


_TREE_FIELDS = b'"depth_l": 2, "leaf_count": 4, "i_x_nats": 0.0, "i_y_nats": 0.0'


@pytest.mark.parametrize("text", [
    b"{not json",
    b'{"selected": 5, ' + _TREE_FIELDS + b'}',
    b"5",
    b'{"selected": [[0, 0, 7]], ' + _TREE_FIELDS + b'}',
    b"\xff\xfe",
], ids=["not-json", "selected-not-list", "not-object", "triple-node", "not-utf8"])
def test_validate_malformed_json_exits_two(quad_pgm, tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["validate", "--tree", str(bad), "--input", str(quad_pgm)]) == 2
    assert "error: malformed tree document" in capsys.readouterr().err


def test_documented_names_are_reachable_from_the_package():
    """A submodule name that the package's docstrings mention, or that an
    exported callable takes as a default, is exported by the package too."""
    import importlib
    import inspect
    import re

    exported = [getattr(iq, name) for name in iq.__all__]
    docs = (iq.__doc__ or "") + "".join(inspect.getdoc(obj) or "" for obj in exported)
    defaults = [p.default for obj in exported
                if inspect.isfunction(obj)
                for p in inspect.signature(obj).parameters.values()]
    for module in ("increments", "infotheory", "pareto", "quadtree", "relaxation",
                   "solver", "world"):
        mod = importlib.import_module(f"infoquad.{module}")
        for name in mod.__all__:
            value = getattr(mod, name)
            if re.search(rf"\b{name}\b", docs) or any(d is value for d in defaults):
                assert name in iq.__all__ and getattr(iq, name) is value, name
    assert iq.trace_pareto.__defaults__[0] == iq.DEFAULT_EPS_STEP


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it costs most of the CLI's
    # start-up time and memory
    code = ("import sys, infoquad, infoquad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(iq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_increments_csv(quad_pgm, tmp_path):
    out = tmp_path / "inc.csv"
    assert main(["increments", "--input", str(quad_pgm), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "depth,morton,mass,delta_x_nats,delta_y_nats,free"
    assert len(lines) == 6


def test_cli_outputs_deterministic(quad_pgm, tmp_path, capsys):
    """Each command, run twice, produces byte-identical artifacts."""
    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        artifacts = {}
        specs = [
            (["abstract", "--input", str(quad_pgm), "--mode", "min-rate",
              "--dhat-frac", "0.7", "--out", str(base / "tree.json"),
              "--render", str(base / "render.pgm")], ["tree.json", "render.pgm"]),
            (["pareto", "--input", str(quad_pgm), "--out", str(base / "pareto.csv")],
             ["pareto.csv"]),
            (["infoplane", "--input", str(quad_pgm), "--sweep", "4",
              "--out", str(base / "plane.csv")], ["plane.csv"]),
            (["relax", "--input", str(quad_pgm), "--dhat", "0.3",
              "--out", str(base / "relax.json"),
              "--frac-csv", str(base / "frac.csv")], ["relax.json", "frac.csv"]),
            (["increments", "--input", str(quad_pgm), "--out", str(base / "inc.csv")],
             ["inc.csv"]),
        ]
        stdout = []
        for argv, names in specs:
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out.replace(str(base), "<out>"))
            for name in names:
                artifacts[name] = (base / name).read_bytes()
        assert main(["validate", "--tree", str(base / "tree.json"),
                     "--input", str(quad_pgm)]) == 0
        stdout.append(capsys.readouterr().out)
        return artifacts, stdout

    first_files, first_stdout = run_all("a")
    second_files, second_stdout = run_all("b")
    assert first_files == second_files
    assert first_stdout == second_stdout


@pytest.fixture()
def iid8(tmp_path):
    """8x8 i.i.d. gray map plus a log-normal prior file for it."""
    rng = np.random.default_rng(8)
    pgm, prior = tmp_path / "iid8.pgm", tmp_path / "iid8.prior"
    write_text(pgm, "P2\n8 8\n255\n" + "\n".join(
        " ".join(map(str, row)) for row in rng.integers(0, 256, (8, 8))) + "\n")
    write_text(prior, "\n".join(map(repr, np.exp(rng.normal(0, 0.5, 64)).tolist())) + "\n")
    return pgm, prior


@pytest.mark.parametrize("command", [
    ["abstract", "--mode", "max-relevance", "--budget", "nan"],
    ["abstract", "--mode", "max-relevance", "--budget-frac", "nan"],
    ["abstract", "--mode", "min-rate", "--dhat", "nan"],
    ["abstract", "--mode", "min-rate", "--dhat-frac", "nan"],
    ["relax", "--dhat", "nan"],
    ["pareto", "--eps-step", "nan", "--out", "pareto.csv"],
    ["infoplane", "--sweep", "-3", "--out", "plane.csv"],
    ["infoplane", "--sweep", "0", "--out", "plane.csv"],
], ids=["budget", "budget-frac", "dhat", "dhat-frac", "relax", "eps-step", "sweep", "sweep0"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "prior"])
def test_nan_bounds_and_bad_steps_exit_two_with_one_error_line(iid8, tmp_path, capsys,
                                                               command, weighted):
    pgm, prior = iid8
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
    argv += ["--input", str(pgm)] + (["--prior", str(prior)] if weighted else [])
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects --sweep itself
        code = exc.code
    assert code == 2
    err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err) == 1
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "prior"])
def test_infinite_budget_sets_no_rate_limit(iid8, tmp_path, capsys, weighted):
    pgm, prior = iid8
    base = ["abstract", "--input", str(pgm), "--mode", "max-relevance"]
    base += ["--prior", str(prior)] if weighted else []
    docs = []
    for budget in ("inf", "1e9"):
        out = tmp_path / f"{budget}.json"
        assert main([*base, "--budget", budget, "--out", str(out)]) == 0
        docs.append((capsys.readouterr().out, json.loads(out.read_text())))
    assert docs[0] == docs[1]
    world = iq.load_pgm(pgm)
    world = iq.load_prior(prior, world) if weighted else world
    full = float(iq.compute_increments(world).delta_y.sum())
    assert docs[0][1]["i_y_nats"] == pytest.approx(full, abs=1e-9)


def test_infinite_fraction_on_a_zero_information_map(flat_pgm, tmp_path, capsys):
    # I(X;Y) = 0 here: an infinite fraction is still an infinite bound, not nan
    out = tmp_path / "tree.json"
    assert main(["abstract", "--input", str(flat_pgm), "--mode", "max-relevance",
                 "--budget-frac", "inf", "--out", str(out)]) == 0
    assert "leaf_count: 1" in capsys.readouterr().out
    assert json.loads(out.read_text())["i_y_nats"] == 0.0
    assert main(["abstract", "--input", str(flat_pgm), "--mode", "min-rate",
                 "--dhat-frac", "inf"]) == 1
    assert capsys.readouterr().err.splitlines() == ["D̂ exceeds I(X;Y)"]
    for name, mode in (("budget", "max-relevance"), ("dhat", "min-rate")):
        for frac in ("nan", "-inf", "-0.5"):
            assert main(["abstract", "--input", str(flat_pgm), "--mode", mode,
                         f"--{name}-frac={frac}"]) == 2
            assert capsys.readouterr().err.startswith("error: negative")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["abstract", "--mode", "min-rate", "--dhat-frac", "0.5"],
    ["pareto", "--out", "pareto.csv"],
], ids=["abstract", "pareto"])
def test_non_finite_prior_weight_exits_two(iid8, tmp_path, capsys, command, bad):
    pgm, prior = iid8
    lines = prior.read_text().splitlines()
    lines[5] = bad
    write_text(prior, "\n".join(lines) + "\n")
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
    assert main([*argv, "--input", str(pgm), "--prior", str(prior)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: non-finite weight"]
    assert list(tmp_path.glob("*.csv")) == []
