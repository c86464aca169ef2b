"""Tests for edge-list parsing, normalization, snapshots and splits."""

import io

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import edge_list, load_gen
from tlpss import edges
from tlpss.adjacency import build_adjacency, pair_layout
from tlpss.decay import DecayParams
from tlpss.edges import (
    DropReport,
    SnapshotConfig,
    TemporalEdgeList,
    distinct,
    load_edge_list,
    normalize,
    pair_key,
    parse_edge_list,
    serialize,
    snapshot_index,
    split_by_time,
)
from tlpss.errors import EmptyDatasetError, ParseError, SplitError


def parse_text(text):
    return parse_edge_list(io.StringIO(text))


def rows(lst):
    """The (u, v, ts) records of a list, in stored order."""
    return list(zip(lst.u.tolist(), lst.v.tolist(), lst.ts.tolist()))


def random_list(seed, n=12, n_edges=40, t_span=30, loops=True):
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(n_edges):
        u = int(rng.integers(0, n))
        v = u if (loops and rng.random() < 0.08) else int(rng.integers(0, n))
        edges.append((u, v, int(rng.integers(1, t_span))))
    return edge_list(edges, n)


class TestParse:
    def test_basic_format(self):
        lst, report = parse_text("% header\n1 2 1 100\n2 3 1 200\n")
        assert len(lst) == 2
        assert lst.node_count == 3
        assert sorted(lst.ts.tolist()) == [100, 200]
        assert report.lines_read == 3
        assert report.missing_ts_dropped == 0

    def test_missing_timestamp_dropped_and_counted(self):
        lst, report = parse_text("1 2\n1 2 1 50\n3 4 notatime\n")
        assert len(lst) == 1
        assert report.missing_ts_dropped == 2

    def test_self_loop_survives_parse(self):
        lst, _ = parse_text("5 5 1 100\n1 2 1 50\n")
        assert (2, 2, 100) in rows(lst)  # id 5 remaps to dense 2

    def test_three_column_lines_use_last_field_as_timestamp(self):
        lst, _ = parse_text("1 2 100\n")
        assert lst.ts[0] == 100

    def test_node_ids_remapped_dense_and_persisted(self):
        lst, _ = parse_text("10 70 1 5\n70 42 1 6\n")
        assert lst.node_count == 3
        assert lst.node_ids.tolist() == [10, 42, 70]
        assert all(0 <= u < 3 and 0 <= v < 3 for u, v, _ in rows(lst))

    def test_sorted_by_time_stable(self):
        lst, _ = parse_text("1 2 1 9\n3 4 1 5\n5 6 1 9\n")
        assert lst.ts.tolist() == [5, 9, 9]
        # input order kept within the tie
        assert rows(lst)[1][:2] != rows(lst)[2][:2]
        assert lst.node_ids[lst.u[1]] == 1

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_text("1 2 1 100\nx y 1 100\n")
        assert err.value.line_number == 2
        with pytest.raises(ParseError):
            parse_text("1 2 3 4 5\n")
        with pytest.raises(ParseError):
            parse_text("7\n")

    def test_node_id_beyond_int64_raises_with_line_number(self):
        for bad in (2**63, -(2**63) - 1):
            with pytest.raises(ParseError) as err:
                parse_text(f"1 2 1 5\n{bad} 3 1 6\n")
            assert err.value.line_number == 2
        lst, _ = parse_text(f"{2**63 - 1} {-(2**63)} 1 5\n")
        assert lst.node_ids.tolist() == [-(2**63), 2**63 - 1]

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            parse_text("% only a comment\n")
        with pytest.raises(EmptyDatasetError):
            parse_text("1 2\n")  # all records lack timestamps


def _loop_ts(token):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        f = float(token)
    except ValueError:
        return None
    if np.isfinite(f) and f == int(f):
        return int(f)
    return None


def loop_parse(stream):
    """The reader of every input before bulk reading, one line at a time:
    the oracle of :func:`parse_edge_list`."""
    us, vs, stamps = [], [], []
    report = DropReport()
    for lineno, raw in enumerate(stream, start=1):
        report.lines_read += 1
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        fields = line.split()
        if len(fields) < 2 or len(fields) > 4:
            raise ParseError(lineno, f"expected 2-4 columns, got {len(fields)}: {line!r}")
        try:
            u = int(fields[0])
            v = int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer node id in {line!r}") from None
        if len(fields) == 2:
            report.missing_ts_dropped += 1
            continue
        ts = _loop_ts(fields[-1])
        if ts is None:
            report.missing_ts_dropped += 1
            continue
        if not -(2**62) < ts < 2**62:
            raise ParseError(lineno, f"timestamp out of range (|t| < 2**62): {line!r}")
        if not (-(2**63) <= u < 2**63 and -(2**63) <= v < 2**63):
            raise ParseError(lineno, f"node id out of range (int64): {line!r}")
        us.append(u)
        vs.append(v)
        stamps.append(ts)
    if not stamps:
        raise EmptyDatasetError("no edges with usable timestamps")
    ids, dense = np.unique(np.array(us + vs, dtype=np.int64), return_inverse=True)
    m = len(stamps)
    result = TemporalEdgeList(dense[:m], dense[m:], stamps, len(ids), ids)
    report.edges_kept = len(result)
    return result, report


def outcome(read, *args):
    """What ``read(*args)`` gives: the list and report, or the error."""
    try:
        return read(*args)
    except (ParseError, EmptyDatasetError) as err:
        return type(err), str(err), getattr(err, "line_number", None)


# tokens that int() or float() read otherwise than np.loadtxt, or not at all
ODD_TOKENS = [
    "1_0", "1.0", "1e3", "nan", "inf", "-", "+-3", "3-", "0x1f", "\u0663", "\uff11\uff12",
    "5.5", "%", "1%", "x", str(2**63), str(-(2**63) - 1), str(2**62), str(-(2**62)), "9" * 30,
]
# int() and np.loadtxt read these alike
PLAIN_TOKENS = ["+5", "007", "-0", str(2**63 - 1), str(-(2**63)), str(2**62 - 1), str(1 - 2**62)]
# whitespace to str.split() that a bulk-read file holds none of
ODD_SPACES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"]


def fuzz_lines(rng):
    """The lines of a random KONECT-style file, each with its ending: rows
    of 3 or 4 fields, with each hazard struck at a rate drawn per file, so
    that many files have none or one."""
    rate = float(rng.choice([0.0, 0.02, 0.06, 0.2]))

    def hit():
        return rng.random() < rate

    def pick(options):
        return str(options[int(rng.integers(0, len(options)))])

    width = int(rng.choice([3, 4]))
    lines = [pick(["% sym unweighted", "  % 9 3 3", "%", "\t%x", "% été", ""])
             for _ in range(int(rng.integers(0, 3)))]
    for _ in range(int(rng.integers(0, 9))):
        if hit():
            lines.append(pick(["", "  \t", "% mid", "  %", "7", "-"]))
            continue
        k = int(rng.integers(2, 6)) if hit() else width
        fields = [str(int(x)) for x in rng.integers(-4, 9, size=k)]
        if k >= 3:
            fields[-1] = str(int(rng.integers(-50, 50)))
        if rng.random() < 0.2:
            fields[int(rng.integers(0, k))] = pick(PLAIN_TOKENS)
        if hit():
            fields[int(rng.integers(0, k))] = pick(ODD_TOKENS)
        if hit():  # a mid-line comment mark, alone or on a field
            at = int(rng.integers(0, k))
            if rng.random() < 0.5:
                fields.insert(at, "%")
            else:
                fields[at] += "%"
        seps = [pick([" ", "\t", "  ", " \t "]) for _ in fields]
        if hit():
            seps[int(rng.integers(0, len(seps)))] = pick(ODD_SPACES)
        lead = pick([" ", "\t"]) if rng.random() < 0.1 else ""
        lines.append(lead + "".join(f + sep for f, sep in zip(fields, seps)).rstrip(" \t"))
    ends = [pick(["\r", "", "\r\r\n"]) if hit() else pick(["\n", "\n", "\r\n"]) for _ in lines]
    if rng.random() < 0.2:
        ends[-1:] = [""]
    return [line + end for line, end in zip(lines, ends)]


class TestBulkRead:
    """parse_edge_list reads each run of lines of plain rows in bulk and
    every other run line by line; both must read each file as the line
    loop does, whatever the length of the runs."""

    @pytest.fixture()
    def loop_calls(self, monkeypatch):
        calls = []
        read_lines = edges._read_lines

        def counted(*args):
            calls.append(1)
            return read_lines(*args)

        monkeypatch.setattr(edges, "_read_lines", counted)
        return calls

    @staticmethod
    def read_size(rng, monkeypatch):
        """Runs of one line, a few lines, or the whole of a fuzzed file."""
        monkeypatch.setattr(edges, "_READ_CHARS", int(rng.choice([1, 16, 64, 2**20])))

    def test_fuzzed_text_streams_read_as_the_loop_reads(self, loop_calls, monkeypatch):
        rng = np.random.default_rng(20)
        n, looped = 1500, 0
        for case in range(n):
            text = "".join(fuzz_lines(rng))
            self.read_size(rng, monkeypatch)
            calls = len(loop_calls)
            want = outcome(loop_parse, io.StringIO(text))
            assert outcome(parse_edge_list, io.StringIO(text)) == want, (case, text)
            looped += len(loop_calls) > calls
        # both readers take a good share of the files
        assert 0.25 * n < looped < 0.75 * n

    @pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
    def test_every_newline_mode_reads_as_the_loop_reads(self, newline, monkeypatch):
        rng = np.random.default_rng(21)
        for case in range(300):
            data = "".join(fuzz_lines(rng)).encode()
            self.read_size(rng, monkeypatch)

            def stream():
                return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)

            assert outcome(parse_edge_list, stream()) == outcome(loop_parse, stream()), (case, data)

    def test_files_with_byte_order_marks_load_as_the_loop_loads(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(22)
        for case in range(300):
            path = tmp_path / f"{case}.tsv"
            bom = b"\xef\xbb\xbf" if rng.random() < 0.5 else b""
            path.write_bytes(bom + "".join(fuzz_lines(rng)).encode())
            self.read_size(rng, monkeypatch)
            got = outcome(load_edge_list, path)
            with monkeypatch.context() as patch:
                patch.setattr(edges, "parse_edge_list", loop_parse)
                assert got == outcome(load_edge_list, path), (case, path.read_bytes())

    def test_timestamp_limits(self, loop_calls):
        for ts in (2**62, -(2**62)):
            with pytest.raises(ParseError) as err:
                parse_text(f"% c\n1 2 1 5\n3 4 1 {ts}\n")
            assert err.value.line_number == 3
        assert len(loop_calls) == 2
        lst, _ = parse_text(f"1 2 1 {2**62 - 1}\r\n3 4 1 {1 - 2**62}\r\n")
        assert lst.ts.tolist() == [1 - 2**62, 2**62 - 1]
        assert len(loop_calls) == 2

    @pytest.mark.parametrize("read_chars", [2**12, edges._READ_CHARS])
    def test_benchmark_shaped_file_is_read_in_bulk(self, tmp_path, monkeypatch, read_chars):
        gen = load_gen()
        data, made = gen.generate(gen.GraphSpec(nodes=300, rows=3000), 0)
        path = tmp_path / "input.tsv"
        path.write_bytes(data)
        with monkeypatch.context() as patch:
            patch.setattr(edges, "parse_edge_list", loop_parse)
            want = load_edge_list(path)

        def refuse(*args):
            raise AssertionError("a benchmark-shaped file went through the line loop")

        monkeypatch.setattr(edges, "_read_lines", refuse)
        monkeypatch.setattr(edges, "_READ_CHARS", read_chars)
        got = load_edge_list(path)
        assert got == want
        assert got[1].lines_read == made.header_lines + 3000


class TestColumns:
    def test_slice_keeps_node_set_and_order(self):
        lst = random_list(4)
        part = lst[3:9]
        assert rows(part) == rows(lst)[3:9]
        assert part.node_count == lst.node_count
        assert part.node_ids.tolist() == lst.node_ids.tolist()

    def test_columns_are_read_only(self):
        lst = random_list(5)
        for column in (lst.u, lst.v, lst.ts, lst.node_ids):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_node_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            edge_list([(0, 3, 1)], 3)

    def test_columns_of_unequal_length_or_not_1d_rejected(self):
        """Neither a short ``ts`` (which would drop edges), a short ``u``
        nor 2-D columns (which would fail on an index) are taken."""
        for u, v, ts, shapes in (
            ([0, 1, 2], [1, 2, 0], [5, 6], r"\(3,\), \(3,\), \(2,\)"),
            ([0, 1], [1, 2, 0], [5, 6, 7], r"\(2,\), \(3,\), \(3,\)"),
            ([[0, 1]], [[1, 2]], [[5, 6]], r"\(1, 2\), \(1, 2\), \(1, 2\)"),
        ):
            with pytest.raises(ValueError, match=f"1-D of one length, not of shapes {shapes}$"):
                TemporalEdgeList(u, v, ts, 3)


class TestPairKeys:
    def test_key_is_the_flat_upper_cell_either_way_round(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            i, j = rng.integers(0, n, size=(2, 30))
            keep = i != j
            i, j = i[keep], j[keep]
            key = pair_key(i, j, n)
            assert np.array_equal(key, pair_key(j, i, n))
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            assert np.array_equal(key, np.ravel_multi_index((lo, hi), (n, n)))
            # sorting keys gives canonical (i, j) order
            assert np.array_equal(np.argsort(key, kind="stable"), np.lexsort((hi, lo)))

    def test_upper_triangle_keys(self):
        # every pair of distinct nodes, row by row, keys to the sorted flat
        # indices of the strict upper triangle
        for n in range(0, 13):
            i, j = np.triu_indices(n, k=1)
            got = pair_key(i.astype(np.int64), j.astype(np.int64), n)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.flatnonzero(~np.tri(n, dtype=bool)))
            assert np.all(np.diff(got) > 0)

    def test_list_keys_follow_stored_order(self):
        lst = random_list(7)
        expected = [pair_key(u, v, lst.node_count) for u, v, _ in rows(lst)]
        assert lst.pair_keys().tolist() == expected


class TestDistinct:
    """``distinct``, the one sort behind the split's positives and
    evaluation's linked keys, against numpy's set functions."""

    def check(self, a, b):
        union = distinct(np.concatenate([a, b]))
        ref = np.union1d(a, b)
        assert union.dtype == ref.dtype and np.array_equal(union, ref)
        for x, y in ((a, b), (b, a)):
            got, ref = distinct(x, y), np.setdiff1d(x, y)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            got, ref = distinct(x), np.unique(x)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_keys_with_duplicates(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            high = int(rng.integers(1, 60))
            a, b = (rng.integers(0, high, rng.integers(0, 80)) for _ in range(2))
            self.check(a, b)

    def test_empty_arrays(self):
        empty, keys = np.empty(0, dtype=np.int64), np.array([5, 2, 5, 9], dtype=np.int64)
        self.check(empty, empty)
        self.check(empty, keys)
        self.check(keys, empty)
        assert distinct(keys, keys).tolist() == []


class TestNormalize:
    def test_multi_edges_canonicalized_and_shifted(self):
        lst = edge_list([(3, 1, 50), (1, 3, 60)], 4)
        out = normalize(lst)
        assert rows(out) == [(1, 3, 1), (1, 3, 11)]

    def test_self_loops_removed(self):
        lst = edge_list([(2, 2, 10)], 3)
        assert len(normalize(lst)) == 0

    def test_node_set_fixed(self):
        lst = edge_list([(2, 2, 10), (0, 1, 12)], 3)
        out = normalize(lst)
        assert out.node_count == 3  # node 2 stays even with no edges left

    def test_idempotent(self):
        for seed in range(10):
            lst = random_list(seed)
            once = normalize(lst)
            twice = normalize(once)
            assert once == twice

    def test_exact_duplicate_records_kept(self):
        lst = edge_list([(0, 1, 5), (0, 1, 5)], 2)
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
            assert rows(back) == rows(lst)


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
        edges = [(i, i + 1, 10 * (i + 1)) for i in range(10)]
        lst = normalize(edge_list(edges, 11))
        split = split_by_time(lst, 0.9)
        assert len(split.train) == 9
        assert len(split.test) == 1

    def test_boundary_ties_go_to_train(self):
        stamps = [1, 2, 3, 4, 5, 5, 5, 9]
        edges = [(i, i + 1, t) for i, t in enumerate(stamps)]
        lst = normalize(edge_list(edges, 9))
        split = split_by_time(lst, 0.6)
        assert split.t_split == 5
        assert len(split.train) == 7
        assert split.train.ts.max() <= split.t_split
        assert split.test.ts.min() > split.t_split

    def test_positives_exclude_train_linked_pairs(self):
        # pair (0,1) appears on both sides; only (2,3) is new in test
        edges = [(0, 1, 1), (1, 2, 2), (0, 2, 3), (0, 1, 10), (2, 3, 11)]
        lst = normalize(edge_list(edges, 4))
        split = split_by_time(lst, 0.6)
        assert split.t_split == 3
        assert split.positives.tolist() == [pair_key(2, 3, 4)]

    def test_single_timestamp_is_impossible(self):
        edges = [(i, i + 1, 7) for i in range(5)]
        lst = normalize(edge_list(edges, 6))
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
            assert split.train.ts.max() <= split.t_split
            assert split.test.ts.min() > split.t_split
            assert len(split.train) + len(split.test) == len(lst)
            assert not np.isin(split.positives, split.train.pair_keys()).any()
            n = lst.node_count
            new = {pair_key(u, v, n) for u, v, _ in rows(split.test)}
            new -= {pair_key(u, v, n) for u, v, _ in rows(split.train)}
            assert split.positives.tolist() == sorted(new)

    def test_default_ratio_lands_near_nine_to_one(self):
        # with enough distinct timestamps, tie slack stays small
        for seed in range(10):
            lst = normalize(random_list(seed, n=25, n_edges=400, t_span=300))
            split = split_by_time(lst, 0.9)
            share = len(split.train) / len(lst)
            assert 0.85 <= share <= 0.95


def pair_counts(lst):
    """Multiplicity of every pair key of a list."""
    keys, counts = np.unique(lst.pair_keys(), return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


class TestMultiplicity:
    def test_counts_and_symmetry(self):
        edges = [(0, 1, 1), (1, 0, 2), (0, 1, 2), (1, 2, 3)]
        lst = normalize(edge_list(edges, 3))
        counts = pair_counts(lst)
        assert counts == {pair_key(0, 1, 3): 3, pair_key(1, 2, 3): 1}
        assert pair_key(0, 2, 3) not in counts
        cfg = SnapshotConfig(period=1.0)
        A = build_adjacency(
            lst, snapshot_index(lst.t_max, cfg), DecayParams(p=1.0, q=1.0), cfg, pair_layout(lst)
        )
        W = A.weight_csr
        mult = sp.csr_matrix((A.mult, W.indices, W.indptr), shape=W.shape)
        assert mult[0, 1] == mult[1, 0] == 3
        assert mult[0, 2] == 0

    def test_total_multiplicity_is_edge_count(self):
        for seed in range(10):
            lst = normalize(random_list(seed))
            assert sum(pair_counts(lst).values()) == len(lst)

