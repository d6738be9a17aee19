import tracemalloc

import numpy as np
import pytest

import infoquad as iq
from infoquad.quadtree import (
    MalformedTreeDocument,
    NodeId,
    TreeSelection,
    candidate_at,
    candidate_index,
    depth_from_candidate_count,
    leaf_spans,
    morton_deinterleave,
    morton_interleave,
    num_candidates,
    read_tree_json,
    selection_from_nodes,
    write_tree_json,
)
from infoquad.relaxation import FractionalSelection
from helpers import (
    READER_CASES,
    random_valid_selection,
    reader_case_document,
    reference_leaf_spans,
    reference_write_tree_json,
)


def test_node_children_are_consecutive_mortons():
    node = NodeId(1, 2)
    assert node.children() == (NodeId(2, 8), NodeId(2, 9), NodeId(2, 10), NodeId(2, 11))
    assert NodeId(2, 11).parent() == node


def test_node_validation():
    with pytest.raises(ValueError):
        NodeId(1, 4)
    with pytest.raises(ValueError):
        NodeId(-1, 0)
    with pytest.raises(ValueError):
        NodeId(0, 0).parent()


@pytest.mark.parametrize("depth_l,count", [(0, 0), (1, 1), (2, 5), (3, 21)])
def test_interior_candidate_counts(depth_l, count):
    cands = iq.interior_candidates(depth_l)
    assert len(cands) == count == (4 ** depth_l - 1) // 3


def test_interior_candidates_canonical_order():
    cands = iq.interior_candidates(3)
    assert cands == sorted(cands)  # depth-major, then morton
    for i, node in enumerate(cands):
        assert candidate_index(node) == i
        assert candidate_at(i) == node


def test_depth_from_candidate_count_rejects_partial():
    assert depth_from_candidate_count(0) == 0
    assert depth_from_candidate_count(21) == 3
    with pytest.raises(ValueError):
        depth_from_candidate_count(4)


def test_depth_from_candidate_count_accepts_exactly_the_full_counts():
    accepted = {}
    for n in range(-50, 30_000):
        try:
            accepted[n] = depth_from_candidate_count(n)
        except ValueError as exc:
            assert str(exc) == f"{n} is not a full candidate count (4^l - 1)/3"
    assert accepted == {num_candidates(depth_l): depth_l for depth_l in range(9)}
    big = num_candidates(40)
    assert depth_from_candidate_count(big) == 40
    for n in (big - 1, big + 1):
        with pytest.raises(ValueError, match="not a full candidate count"):
            depth_from_candidate_count(n)


@pytest.mark.parametrize("call,message", [
    (lambda: TreeSelection(np.array([1, 1.5, 0, 0, 0])), "must be 0 or 1"),
    (lambda: TreeSelection(np.array([1, 0.999, 0, 0, 0])), "must be 0 or 1"),
    (lambda: TreeSelection(np.array([1, 256, 0, 0, 0])), "must be 0 or 1"),
    (lambda: TreeSelection(np.array([1, -1, 0, 0, 0])), "must be 0 or 1"),
    (lambda: TreeSelection(np.array([1, np.nan, 0, 0, 0])), "must be 0 or 1"),
    (lambda: TreeSelection(np.zeros((1, 5), np.uint8)), "one-dimensional"),
    (lambda: iq.is_valid_selection([0, 0.7, 0, 0, 0], 2), "must be 0 or 1"),
    (lambda: iq.is_valid_selection(np.zeros((1, 5)), 2), "one-dimensional"),
    (lambda: iq.leaves_of(np.array([1, 2, 0, 0, 0])), "must be 0 or 1"),
    (lambda: leaf_spans(np.array([0.5, 0, 0, 0, 0])), "must be 0 or 1"),
    (lambda: iq.encoder_of(np.array([1, 0, 0, 0, 256])), "must be 0 or 1"),
    (lambda: num_candidates(-1), "negative depth_l: -1"),
    (lambda: candidate_at(-1), "negative candidate index: -1"),
    (lambda: iq.interior_candidates(-1), "negative depth_l: -1"),
    (lambda: iq.expandable_parents(-1), "negative depth_l: -1"),
], ids=["half", "almost-one", "wraps-to-zero", "negative", "nan", "two-dimensional",
        "valid-half", "valid-two-dimensional", "leaves-two", "spans-half", "encoder-wraps",
        "count-depth", "candidate-index", "interior-depth", "parents-depth"])
def test_quadtree_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("make,dtype", [(TreeSelection, np.uint8),
                                        (FractionalSelection, np.float64)],
                         ids=["tree", "fractional"])
def test_selections_freeze_a_copy_not_the_callers_array(make, dtype):
    a = np.zeros(5, dtype)
    selection = make(a)
    assert selection.z is not a and not selection.z.flags.writeable
    a[1] = 1
    assert selection.z[1] == 0


@pytest.mark.parametrize("depth_l,expected", [(1, 0), (2, 1), (3, 5)])
def test_expandable_parents(depth_l, expected):
    parents = iq.expandable_parents(depth_l)
    assert len(parents) == expected
    assert all(node.depth <= depth_l - 2 for node in parents)


def test_expandable_parents_l3_members():
    assert iq.expandable_parents(3) == {NodeId(0, 0)} | {NodeId(1, m) for m in range(4)}


def test_is_valid_selection_examples():
    assert iq.is_valid_selection(np.zeros(5, np.uint8), 2)
    assert iq.is_valid_selection(np.ones(5, np.uint8), 2)
    assert not iq.is_valid_selection(np.array([0, 1, 0, 0, 0], np.uint8), 2)


def test_is_valid_selection_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        iq.is_valid_selection(np.zeros(4, np.uint8), 2)


def test_leaves_of_root_and_full():
    root_only = TreeSelection(np.zeros(5, np.uint8))
    assert iq.leaves_of(root_only) == {NodeId(0, 0)}
    full_l1 = TreeSelection(np.ones(1, np.uint8))
    assert iq.leaves_of(full_l1) == {NodeId(1, m) for m in range(4)}


def test_leaves_of_partial_expansion():
    sel = TreeSelection(np.array([1, 1, 0, 0, 0], np.uint8))
    expected = {NodeId(2, m) for m in range(4)} | {NodeId(1, m) for m in (1, 2, 3)}
    assert iq.leaves_of(sel) == expected
    assert len(expected) == 7


def test_leaves_of_rejects_invalid():
    with pytest.raises(ValueError, match="invalid selection"):
        iq.leaves_of(TreeSelection(np.array([0, 1, 0, 0, 0], np.uint8)))


def test_encoder_of_cases():
    root_only = TreeSelection(np.zeros(5, np.uint8))
    enc = iq.encoder_of(root_only)
    assert set(enc) == {NodeId(0, 0)} and len(enc) == 16

    full_l1 = TreeSelection(np.ones(1, np.uint8))
    assert iq.encoder_of(full_l1) == [NodeId(1, m) for m in range(4)]

    sel = TreeSelection(np.array([1, 1, 0, 0, 0], np.uint8))
    enc = iq.encoder_of(sel)
    assert enc[:4] == [NodeId(2, m) for m in range(4)]
    for quadrant in (1, 2, 3):
        cells = enc[4 * quadrant:4 * quadrant + 4]
        assert cells == [NodeId(1, quadrant)] * 4


def test_selection_partition_property():
    rng = np.random.default_rng(11)
    for depth_l in (1, 2, 3):
        for _ in range(25):
            sel = random_valid_selection(rng, depth_l, p_expand=rng.random())
            spans = leaf_spans(sel)
            covered = sorted((lo, hi) for _, lo, hi in spans)
            assert covered[0][0] == 0 and covered[-1][1] == 4 ** depth_l
            assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))
            assert sel.leaf_count == len(spans) == 1 + 3 * sel.num_selected
            # every cell's leaf geometrically contains it
            for node, lo, hi in spans:
                width = 4 ** (depth_l - node.depth)
                assert lo == node.morton * width and hi == lo + width


def test_valid_selection_counts_against_enumeration():
    for depth_l, count in [(1, 2), (2, 17), (3, 83522)]:
        assert iq.count_valid_selections(depth_l) == count
        seen = set()
        for sel in iq.enumerate_valid_selections(depth_l):
            assert iq.is_valid_selection(sel, depth_l)
            seen.add(sel.z.tobytes())
        assert len(seen) == count


def test_morton_roundtrip():
    for depth_l in (1, 3, 5):
        side = 2 ** depth_l
        rows, cols = np.divmod(np.arange(side * side), side)
        m = morton_interleave(rows, cols, depth_l)
        assert sorted(m.tolist()) == list(range(side * side))
        r2, c2 = morton_deinterleave(m, depth_l)
        assert np.array_equal(rows, r2) and np.array_equal(cols, c2)


def test_node_hostile_depth_takes_no_power():
    # 4 ** 40_000_000 alone is an 80-million-bit integer
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="not an interior candidate"):
            selection_from_nodes(2, [NodeId(40_000_000, 0)])
        with pytest.raises(ValueError, match="out of range"):
            NodeId(40_000_000, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert NodeId(3, 63).morton == 63
    with pytest.raises(ValueError, match="out of range"):
        NodeId(3, 64)


def test_morton_quadrant_layout():
    # depth-1 child k covers the quadrant with row bit = k>>1, col bit = k&1
    m = morton_interleave(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), 1)
    assert m.tolist() == [0, 1, 2, 3]


def test_tree_json_roundtrip(tmp_path):
    sel = TreeSelection(np.array([1, 1, 0, 0, 0], np.uint8))
    path = tmp_path / "tree.json"
    write_tree_json(path, sel, 1.25, 0.5)
    loaded, doc = read_tree_json(path, 2)
    assert loaded == sel
    assert doc["leaf_count"] == 7
    assert doc["i_x_nats"] == 1.25


def test_tree_json_rejects_orphan_child(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"depth_l": 2, "selected": [[1, 0]], "leaf_count": 4,'
        ' "i_x_nats": 0.0, "i_y_nats": 0.0}'
    )
    with pytest.raises(ValueError, match=r"depth=1, morton=0.*depth=0, morton=0"):
        read_tree_json(path, 2)


def test_tree_json_rejects_wrong_leaf_count(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"depth_l": 1, "selected": [[0, 0]], "leaf_count": 3,'
        ' "i_x_nats": 0.0, "i_y_nats": 0.0}'
    )
    with pytest.raises(ValueError, match="leaf_count"):
        read_tree_json(path, 1)


@pytest.mark.parametrize("text,match", [
    ("[[0, 0]]", "not a JSON object"),
    ('{"depth_l": 1, "selected": [], "leaf_count": 1, "i_x_nats": 0.0}', "i_y_nats"),
    ('{"depth_l": 1.0, "selected": [], "leaf_count": 1, "i_x_nats": 0.0,'
     ' "i_y_nats": 0.0}', "depth_l"),
    ('{"depth_l": 1, "selected": [], "leaf_count": 1, "i_x_nats": NaN,'
     ' "i_y_nats": 0.0}', "i_x_nats"),
    ('{"depth_l": 1, "selected": [[true, 0]], "leaf_count": 4, "i_x_nats": 0.0,'
     ' "i_y_nats": 0.0}', "selected"),
])
def test_tree_json_rejects_malformed_shape(tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(MalformedTreeDocument, match=match):
        read_tree_json(path, 1)


def _selections(rng, depth_l):
    """The empty and the full selection plus random valid ones at depth_l."""
    n = (4 ** depth_l - 1) // 3
    yield TreeSelection(np.zeros(n, np.uint8))
    yield TreeSelection(np.ones(n, np.uint8))
    for p_expand in (0.3, 0.6, 0.9):
        yield random_valid_selection(rng, depth_l, p_expand)


@pytest.mark.parametrize("depth_l", range(7))
def test_leaf_spans_match_the_stack_walk(depth_l):
    rng = np.random.default_rng(depth_l)
    for sel in _selections(rng, depth_l):
        assert leaf_spans(sel) == reference_leaf_spans(sel)
        assert iq.encoder_of(sel) == [
            node for node, lo, hi in reference_leaf_spans(sel) for _ in range(lo, hi)
        ]


@pytest.mark.parametrize("depth_l", range(7))
def test_tree_document_bytes_match_json_dump(tmp_path, depth_l):
    rng = np.random.default_rng(100 + depth_l)
    infos = [(0.0, 0.0), (1.25, 0.5), (np.float64(0.1) + 0.2, 1e-17), (3, 2**60 + 0.5)]
    for k, sel in enumerate(_selections(rng, depth_l)):
        i_x, i_y = infos[k % len(infos)]
        write_tree_json(tmp_path / "new.json", sel, i_x, i_y)
        reference_write_tree_json(tmp_path / "old.json", sel, i_x, i_y)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        loaded, _ = read_tree_json(tmp_path / "new.json", depth_l)
        assert loaded == sel
        assert sel.selected_nodes() == [candidate_at(int(i)) for i in np.flatnonzero(sel.z)]


@pytest.mark.parametrize("case", READER_CASES)
def test_tree_reader_rejects_what_it_always_rejected(tmp_path, case):
    selected, leaf_count, exc, _ = READER_CASES[case]
    path = tmp_path / "doc.json"
    path.write_text(reader_case_document(selected, leaf_count))
    if exc is None:
        assert read_tree_json(path, 2)[0] == TreeSelection(np.array([1, 0, 0, 0, 0]))
        return
    with pytest.raises(exc) as info:
        read_tree_json(path, 2)
    if exc is ValueError:
        assert not isinstance(info.value, MalformedTreeDocument)
