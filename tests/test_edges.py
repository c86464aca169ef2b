"""Tests for edge-list parsing, normalization, snapshots and splits."""

import io

import numpy as np
import pytest
import scipy.sparse as sp

from tlpss.adjacency import build_adjacency
from tlpss.decay import DecayParams
from tlpss.edges import (
    SnapshotConfig,
    TemporalEdge,
    TemporalEdgeList,
    normalize,
    parse_edge_list,
    serialize,
    snapshot_index,
    split_by_time,
)
from tlpss.errors import EmptyDatasetError, ParseError, SplitError


def parse_text(text):
    return parse_edge_list(io.StringIO(text))


def random_list(seed, n=12, n_edges=40, t_span=30, loops=True):
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(n_edges):
        u = int(rng.integers(0, n))
        v = u if (loops and rng.random() < 0.08) else int(rng.integers(0, n))
        edges.append(TemporalEdge(u, v, int(rng.integers(1, t_span))))
    return TemporalEdgeList(edges, n)


class TestParse:
    def test_basic_format(self):
        lst, report = parse_text("% header\n1 2 1 100\n2 3 1 200\n")
        assert len(lst) == 2
        assert lst.node_count == 3
        assert sorted(e.ts for e in lst) == [100, 200]
        assert report.lines_read == 3
        assert report.missing_ts_dropped == 0

    def test_missing_timestamp_dropped_and_counted(self):
        lst, report = parse_text("1 2\n1 2 1 50\n3 4 notatime\n")
        assert len(lst) == 1
        assert report.missing_ts_dropped == 2

    def test_self_loop_survives_parse(self):
        lst, _ = parse_text("5 5 1 100\n1 2 1 50\n")
        assert TemporalEdge(2, 2, 100) in lst.edges  # id 5 remaps to dense 2

    def test_three_column_lines_use_last_field_as_timestamp(self):
        lst, _ = parse_text("1 2 100\n")
        assert lst.edges[0].ts == 100

    def test_node_ids_remapped_dense_and_persisted(self):
        lst, _ = parse_text("10 70 1 5\n70 42 1 6\n")
        assert lst.node_count == 3
        assert lst.node_ids == (10, 42, 70)
        assert all(0 <= e.u < 3 and 0 <= e.v < 3 for e in lst)

    def test_sorted_by_time_stable(self):
        lst, _ = parse_text("1 2 1 9\n3 4 1 5\n5 6 1 9\n")
        assert [e.ts for e in lst] == [5, 9, 9]
        # input order kept within the tie
        assert lst.edges[1][:2] != lst.edges[2][:2]
        assert lst.node_ids[lst.edges[1].u] == 1

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_text("1 2 1 100\nx y 1 100\n")
        assert err.value.line_number == 2
        with pytest.raises(ParseError):
            parse_text("1 2 3 4 5\n")
        with pytest.raises(ParseError):
            parse_text("7\n")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            parse_text("% only a comment\n")
        with pytest.raises(EmptyDatasetError):
            parse_text("1 2\n")  # all records lack timestamps


class TestNormalize:
    def test_multi_edges_canonicalized_and_shifted(self):
        lst = TemporalEdgeList([TemporalEdge(3, 1, 50), TemporalEdge(1, 3, 60)], 4)
        out = normalize(lst)
        assert [tuple(e) for e in out] == [(1, 3, 1), (1, 3, 11)]

    def test_self_loops_removed(self):
        lst = TemporalEdgeList([TemporalEdge(2, 2, 10)], 3)
        assert len(normalize(lst)) == 0

    def test_node_set_fixed(self):
        lst = TemporalEdgeList([TemporalEdge(2, 2, 10), TemporalEdge(0, 1, 12)], 3)
        out = normalize(lst)
        assert out.node_count == 3  # node 2 stays even with no edges left

    def test_idempotent(self):
        for seed in range(10):
            lst = random_list(seed)
            once = normalize(lst)
            twice = normalize(once)
            assert once == twice

    def test_exact_duplicate_records_kept(self):
        lst = TemporalEdgeList([TemporalEdge(0, 1, 5), TemporalEdge(0, 1, 5)], 2)
        assert len(normalize(lst)) == 2


class TestSerializeRoundtrip:
    def test_parse_serialize_parse_identity(self):
        text = "% c\n9 4 1 30\n4 2 1 10\n2 9 1 30\n"
        first, _ = parse_text(text)
        buf = io.StringIO()
        serialize(first, buf)
        second, _ = parse_text(buf.getvalue())
        assert first == second

    def test_roundtrip_on_normalized_random_lists(self):
        for seed in range(10):
            lst = normalize(random_list(seed, loops=False))
            if not len(lst):
                continue
            buf = io.StringIO()
            serialize(lst, buf)
            back, _ = parse_text(buf.getvalue())
            assert [tuple(e) for e in back] == [tuple(e) for e in lst]


class TestSnapshotIndex:
    def test_origin_maps_to_zero(self):
        cfg = SnapshotConfig(period=3600.0, origin=500.0)
        assert snapshot_index(500.0, cfg) == 0.0

    def test_two_periods(self):
        cfg = SnapshotConfig(period=3600.0, origin=0.0)
        assert snapshot_index(7200.0, cfg) == 2.0

    def test_before_origin_rejected(self):
        cfg = SnapshotConfig(period=10.0, origin=100.0)
        with pytest.raises(ValueError):
            snapshot_index(99.0, cfg)

    def test_hourly_frame_covers_contact_style_span(self):
        # 70 hours of unix-second data at hourly snapshots -> index 70 at the end
        cfg = SnapshotConfig(period=3600.0, origin=1.0)
        assert snapshot_index(1.0 + 70 * 3600, cfg) == 70.0

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            SnapshotConfig(period=0.0)


class TestSplit:
    def test_exact_nine_to_one(self):
        edges = [TemporalEdge(i, i + 1, 10 * (i + 1)) for i in range(10)]
        lst = normalize(TemporalEdgeList(edges, 11))
        split = split_by_time(lst, 0.9)
        assert len(split.train) == 9
        assert len(split.test) == 1

    def test_boundary_ties_go_to_train(self):
        stamps = [1, 2, 3, 4, 5, 5, 5, 9]
        edges = [TemporalEdge(i, i + 1, t) for i, t in enumerate(stamps)]
        lst = normalize(TemporalEdgeList(edges, 9))
        split = split_by_time(lst, 0.6)
        assert split.t_split == 5
        assert len(split.train) == 7
        assert max(e.ts for e in split.train) <= split.t_split
        assert min(e.ts for e in split.test) > split.t_split

    def test_positives_exclude_train_linked_pairs(self):
        # pair (0,1) appears on both sides; only (2,3) is new in test
        edges = [
            TemporalEdge(0, 1, 1),
            TemporalEdge(1, 2, 2),
            TemporalEdge(0, 2, 3),
            TemporalEdge(0, 1, 10),
            TemporalEdge(2, 3, 11),
        ]
        lst = normalize(TemporalEdgeList(edges, 4))
        split = split_by_time(lst, 0.6)
        assert split.t_split == 3
        assert split.positives == frozenset({(2, 3)})

    def test_single_timestamp_is_impossible(self):
        edges = [TemporalEdge(i, i + 1, 7) for i in range(5)]
        lst = normalize(TemporalEdgeList(edges, 6))
        with pytest.raises(SplitError):
            split_by_time(lst, 0.9)

    def test_bad_ratio_rejected(self):
        lst = normalize(random_list(3))
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_by_time(lst, ratio)

    def test_split_invariants_random(self):
        for seed in range(20):
            lst = normalize(random_list(seed, n=15, n_edges=60))
            try:
                split = split_by_time(lst, 0.8)
            except SplitError:
                continue
            assert max(e.ts for e in split.train) <= split.t_split
            assert min(e.ts for e in split.test) > split.t_split
            assert len(split.train) + len(split.test) == len(lst)
            assert not (split.positives & split.train.linked_pairs())

    def test_default_ratio_lands_near_nine_to_one(self):
        # with enough distinct timestamps, tie slack stays small
        for seed in range(10):
            lst = normalize(random_list(seed, n=25, n_edges=400, t_span=300))
            split = split_by_time(lst, 0.9)
            share = len(split.train) / len(lst)
            assert 0.85 <= share <= 0.95


class TestMultiplicity:
    def test_counts_and_symmetry(self):
        edges = [
            TemporalEdge(0, 1, 1),
            TemporalEdge(1, 0, 2),
            TemporalEdge(0, 1, 2),
            TemporalEdge(1, 2, 3),
        ]
        lst = normalize(TemporalEdgeList(edges, 3))
        assert lst.pair_counts == {(0, 1): 3, (1, 2): 1}
        assert (0, 2) not in lst.pair_counts
        cfg = SnapshotConfig(period=1.0)
        A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), DecayParams(p=1.0, q=1.0), cfg)
        W = A.weight_csr
        mult = sp.csr_matrix((A.mult, W.indices, W.indptr), shape=W.shape)
        assert mult[0, 1] == mult[1, 0] == 3
        assert mult[0, 2] == 0

    def test_total_multiplicity_is_edge_count(self):
        for seed in range(10):
            lst = normalize(random_list(seed))
            assert sum(lst.pair_counts.values()) == len(lst)

