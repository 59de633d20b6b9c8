import contextlib
import os
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randist import data as data_module
from randist.data import (
    Dataset,
    load_csv,
    standardize,
    synth_anomaly,
    synth_blobs,
    write_csv,
)
from randist.errors import DataError
from randist.rng import child_seed, stream

SHARES = (1, 2, 3)


@contextlib.contextmanager
def _shares(p: int):
    """load_csv parses a plain table in p shares (fewer where it has fewer lines)."""
    with mock.patch.object(data_module, "process_count", lambda limit: min(limit, p)), \
            mock.patch.object(data_module, "SHARE_MIN_BYTES", 1):
        yield


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLoadCsv:
    def test_with_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,0\n3,4,1\n")
        data = load_csv(p, label_column="y")
        assert data.n == 2 and data.d == 2
        np.testing.assert_array_equal(data.labels, [0, 1])
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        assert data.feature_names == ["a", "b"]

    def test_without_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,0\n3,4,1\n")
        data = load_csv(p)
        assert data.n == 2 and data.d == 3
        assert data.labels is None

    def test_label_by_index(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2,0\n3,4,1\n")
        data = load_csv(p, label_column=2, has_header=False)
        np.testing.assert_array_equal(data.labels, [0, 1])
        data2 = load_csv(p, label_column="2", has_header=False)
        np.testing.assert_array_equal(data2.labels, [0, 1])

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,x\n3,4\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4,5\n")
        with pytest.raises(DataError, match="ragged row 3"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_non_finite_cell_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\nnan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p)

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,0.5\n")
        with pytest.raises(DataError, match="not an integer"):
            load_csv(p, label_column="y")

    def test_missing_label_name(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(p, label_column="z")

    def test_roundtrip_exact(self, tmp_path):
        rng = stream(3)
        data = Dataset(rng.normal(0, 123.456, size=(17, 5)), labels=rng.integers(0, 4, 17))
        p = tmp_path / "rt.csv"
        write_csv(data, p)
        back = load_csv(p, label_column="label")
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_padded_underscored_and_quoted_cells(self, tmp_path):
        # every cell goes through float() after strip(), as before streaming
        p = tmp_path / "t.csv"
        p.write_text('a,b,y\n 1 ,\t2.5\t, 3 \n"1.5",1_000,  -0 \n\x1c7\u3000,"-2e1",\t4\n')
        data = load_csv(p, label_column="y")
        np.testing.assert_array_equal(data.features, [[1.0, 2.5], [1.5, 1000.0], [7.0, -20.0]])
        np.testing.assert_array_equal(data.labels, [3, 0, 4])

    @pytest.mark.parametrize(
        "cell", ["1e30", "-1e30", "9223372036854775808", "9223372036854775807"]
    )
    def test_label_outside_int64(self, tmp_path, cell):
        # 2**63 - 1 has no float64 of its own and rounds up to 2**63
        p = tmp_path / "t.csv"
        p.write_text(f"a,y\n1,0\n2,{cell}\n")
        with pytest.raises(DataError, match=rf"^label cell '{cell}' at row 3 is outside the int64 range$"):
            load_csv(p, label_column="y")

    @pytest.mark.parametrize("cell", ["9007199254740993", "-9007199254740993", "100000000000000000.5"])
    def test_label_float64_cannot_hold(self, tmp_path, cell):
        # from 2**53 on float64 skips integers: 2**53 + 1 would read as 2**53
        p = tmp_path / "t.csv"
        p.write_text(f"a,y\n1,0\n2,{cell}\n")
        with pytest.raises(DataError, match=rf"^label cell '{cell}' at row 3 has no exact float64 value$"):
            load_csv(p, label_column="y")

    def test_large_exact_labels_accepted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,9007199254740992\n2, 1e18 \n3,-9007199254740994\n")
        np.testing.assert_array_equal(
            load_csv(p, label_column="y").labels, [2**53, 10**18, -(2**53) - 2]
        )

    def test_int64_min_label_accepted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,-9223372036854775808\n")
        np.testing.assert_array_equal(load_csv(p, label_column="y").labels, [-(2**63)])

    @pytest.mark.parametrize(
        "text,kwargs,message",
        [
            ("a,b\n1,x\n", {}, "non-numeric cell 'x' at row 2, column 'b'"),
            ("1,x\n", {"has_header": False}, "non-numeric cell 'x' at row 1, column 1"),
            ("a,b\n1,2\n3\n", {}, "ragged row 3: expected 2 cells, got 1"),
            ("a,b\n1,2\n3,4,5\n", {}, "ragged row 3: expected 2 cells, got 3"),
            ("a,b\n1,2\n\n3,4\n", {}, "ragged row 3: expected 2 cells, got 0"),
            ("a,b\n1, \n", {}, "non-numeric cell '' at row 2, column 'b'"),
            ("a,y\n1,0\nnan,1\n", {"label_column": "y"}, "non-finite cell 'nan' at row 3, column 'a'"),
            ("a,y\n1, -inf\n", {"label_column": "y"}, "non-finite cell '-inf' at row 2, column 'y'"),
            ("a,y\n1, 0.5 \n", {"label_column": "y"}, "label cell ' 0.5 ' at row 2 is not an integer"),
            # the first bad cell of a row is the one reported
            ("y,a\n1,2\n0.5,x\n", {"label_column": "y"}, "label cell '0.5' at row 3 is not an integer"),
            ("a,b\n1,2\n", {"label_column": "z"}, "label column 'z' not found in header ['a', 'b']"),
            ("1,2\n", {"label_column": "z", "has_header": False},
             "label column given by name but file has no header"),
            ("1,2\n", {"label_column": 2, "has_header": False},
             "label column index 2 out of range for 2 columns"),
        ],
    )
    def test_error_messages(self, tmp_path, text, kwargs, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        for shares in SHARES:
            with _shares(shares), pytest.raises(DataError) as err:
                load_csv(p, **kwargs)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "text,row",
        [
            ("a" * 200_001 + ",b\n1,2\n", 1),
            ("a,b\n1," + "2" * 200_001 + "\n3,4\n", 2),
            ('a,b\n1,2\n"3",4\n5,' + "6" * 200_001 + "\n", 4),
        ],
        ids=["header", "first_row", "declined_table"],
    )
    def test_cell_over_csv_field_limit_names_the_row(self, tmp_path, text, row):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=f"^cannot read row {row}: field larger than field limit"):
            load_csv(p)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a,b\n1,2,3\n", "feature_names must have length 3, got 2"),
            ("a,b\n1,2,x\n", "non-numeric cell 'x' at row 2, column 2"),
        ],
    )
    def test_header_shorter_than_rows(self, tmp_path, text, message):
        # a column without a header name is named by its index
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataError) as err:
            load_csv(p)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text,has_header,what",
        [("", True, "is empty"), ("a,b\n", True, "has no data rows"), ("", False, "has no data rows")],
    )
    def test_empty_inputs(self, tmp_path, text, has_header, what):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataError) as err:
            load_csv(p, has_header=has_header)
        assert str(err.value) == f"{p} {what}"

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["", " ", "\t", "\x1c", "\u3000"]),
                    st.one_of(
                        st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.integers(-(10**6), 10**6).map(lambda i: f"{i:_}"),
                    ),
                    st.sampled_from(["", " ", "\t", "\x1f"]),
                    st.booleans(),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_cell_by_cell_reference(self, tmp_path_factory, grid):
        # reference: the loader's rule spelled out per cell, float(cell.strip())
        lines = [
            ",".join(f'"{pre}{num}{post}"' if quote else pre + num + post for pre, num, post, quote in row)
            for row in grid
        ]
        p = tmp_path_factory.mktemp("grid") / "t.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = np.array([[float(f"{pre}{num}{post}".strip()) for pre, num, post, _ in row] for row in grid])
        data = load_csv(p, has_header=False)
        assert data.features.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr), min_size=3, max_size=3),
                st.integers(-(2**53) + 1, 2**53 - 1),
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_plain_table_takes_the_c_pass_and_matches_reference(self, tmp_path_factory, grid, eol, last_eol):
        # unquoted, unpadded cells: the C pass reads them, and reads them as float(cell.strip())
        lines = ["a,b,c,y"] + [",".join(cells + [str(label)]) for cells, label in grid]
        p = tmp_path_factory.mktemp("plain") / "t.csv"
        p.write_bytes((eol.join(lines) + (eol if last_eol else "")).encode("utf-8"))
        expected = np.array([[float(c.strip()) for c in cells] for cells, _ in grid])
        for shares in SHARES:
            with _shares(shares), mock.patch.object(
                data_module, "_parse_rows", side_effect=AssertionError("row loop ran")
            ):
                data = load_csv(p, label_column="y")
            assert data.features.tobytes() == expected.tobytes()
            assert data.labels.tobytes() == np.array([label for _, label in grid], dtype=np.int64).tobytes()
            assert 1 <= data.processes <= min(shares, len(grid))

    def test_plain_table_never_reaches_the_row_loop(self, tmp_path, monkeypatch):
        # a silent fallback would keep the results and lose the speed
        rng = stream(5)
        data = Dataset(rng.normal(0, 1e3, size=(40, 30)), labels=rng.integers(-(2**40), 2**40, 40))
        p = tmp_path / "rt.csv"
        write_csv(data, p)

        def row_loop(*args, **kwargs):
            raise AssertionError("row loop ran on a plain table")

        monkeypatch.setattr(data_module, "_parse_rows", row_loop)
        for shares in SHARES:
            with _shares(shares):
                back = load_csv(p, label_column="label")
            assert back.processes == shares
            assert back.features.tobytes() == data.features.tobytes()
            assert back.labels.tobytes() == data.labels.tobytes()

    @pytest.mark.parametrize(
        "text,kwargs",
        [
            ("a,b\n1,2\n\n3,4\n", {}),  # blank line
            ("a,b\n1,2\n3,4\n\n", {}),  # trailing blank line
            ("a,b\r\n1,2\r\n3,4\r\n\r\n", {}),  # trailing blank CRLF line
            ("a,b\n1,2\n \t\n3,4\n", {}),  # whitespace-only line
            ("a\n1\n \n2\n", {}),  # whitespace-only line, one column
            ("a\n1\n\u3000\x1c\n", {}),  # Unicode-whitespace-only line
            ("a,b\n1,inf\n", {}),
            ("a,b\n1, -Infinity\n", {}),
            ("a,b\n1,1e999\n", {}),
            ("a,y\n1,0\n2,9007199254740992\n", {"label_column": "y"}),  # label 2**53, exact
            ("a,y\n1,0\n2,9007199254740993\n", {"label_column": "y"}),  # label 2**53 + 1
            ("a,y\n1,0\n2,1e19\n", {"label_column": "y"}),
            ("a,y\n1,0\n2,-0.0\n", {"label_column": "y"}),
            ("a,y\n1,0.5\n", {"label_column": "y"}),
            ('a,b\n"1",2\n3,4\n', {}),  # quoted cell
            ('a,b\n"1,5",2\n', {}),  # quoted delimiter
            ("a,b\n1_000,2\n", {}),  # underscored cell
            ("a,b\n\u0661\u0662,2\n", {}),  # Arabic-Indic digits
            ("a,b\r1,2\r3,4\r", {}),  # lone CR line ends
            ("a,b\n1\r,2\n", {}),  # lone CR inside a row
            ("a,b\n1,2\x00\n", {}),  # NUL
            ("a,b\n1,0x10\n", {}),  # hex
            ("a,b\n1,\n", {}),  # empty cell
            ("a,b\n1,2\n3\n", {}),  # short row
            ("a,b\n1,2\n3,4,5\n", {}),  # long row
            ("a,b\n1,2#3\n", {}),  # no comment character
        ],
    )
    def test_declined_tables_match_the_row_loop(self, tmp_path, text, kwargs):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data_module, "_parse_plain", return_value=None):
            expected = _outcome(p, kwargs)
        for shares in SHARES:
            with _shares(shares):
                assert _outcome(p, kwargs) == expected
        _assert_no_child_left()

    @pytest.mark.parametrize("has_header", [True, False])
    def test_one_data_row_loads_without_warning(self, tmp_path, has_header):
        p = tmp_path / "t.csv"
        p.write_text(("a,b,y\n" if has_header else "") + "1.5,-2,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = load_csv(p, label_column=2, has_header=has_header)
        np.testing.assert_array_equal(data.features, [[1.5, -2.0]])
        np.testing.assert_array_equal(data.labels, [1])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    @pytest.mark.parametrize("text", ["a,y\n1,0\n2.5,1\n", "a,y\n1,0\n\n"])
    def test_pipe_matches_file(self, tmp_path, text):
        # a pipe cannot be rewound, so it goes straight to the row loop
        p, fifo = tmp_path / "t.csv", tmp_path / "t.fifo"
        p.write_text(text)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            got = _outcome(fifo, {"label_column": "y"})
        finally:
            writer.join()
        assert got == _outcome(p, {"label_column": "y"})

    def test_roundtrip_exact_wide(self, tmp_path):
        rng = stream(4)
        X = rng.normal(0, 1e3, size=(60, 400)) * 10.0 ** rng.integers(-300, 300, size=(60, 400))
        labels = rng.integers(-(2**40), 2**40, 60)
        data = Dataset(X, labels=labels)
        p = tmp_path / "rt.csv"
        write_csv(data, p)
        for shares in SHARES:
            with _shares(shares):
                back = load_csv(p, label_column="label")
            assert back.processes == shares
            assert back.features.tobytes() == data.features.tobytes()
            assert back.labels.tobytes() == data.labels.tobytes()
            assert back.feature_names == [f"c{i}" for i in range(400)]
        _assert_no_child_left()


class TestSharedParse:
    """A plain table in a seekable file is parsed in shares, one per process;
    the outcome must not depend on how many there are."""

    @pytest.mark.parametrize("cell", ["x", "nan", '"7"', "1_0", " 3 "])
    @pytest.mark.parametrize("column", ["b", "y"])
    def test_a_cell_in_the_last_share_gives_the_one_share_outcome(self, tmp_path, cell, column):
        rows = [f"{i},{i / 7!r},{i % 3}" for i in range(30)]
        rows[-2] = f"28,{cell},1" if column == "b" else f"28,4.0,{cell}"  # file line 30
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n" + "\n".join(rows) + "\n")
        with _shares(1):
            expected = _outcome(p, {"label_column": "y"})
        if cell in ("x", "nan"):
            assert "at row 30" in expected
        for shares in (2, 3):
            with _shares(shares):
                assert _outcome(p, {"label_column": "y"}) == expected
        _assert_no_child_left()

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("last_eol", [True, False])
    def test_crlf_no_final_newline_and_one_row_shares(self, tmp_path, eol, last_eol):
        p = tmp_path / "t.csv"
        rows = ["a,b,y", "1.5,-2,0", "3.5,-4,1", "5e3,66,2"]  # equal lengths: a share each
        p.write_bytes((eol.join(rows) + (eol if last_eol else "")).encode())
        with _shares(3), mock.patch.object(data_module, "_parse_rows", side_effect=AssertionError("row loop ran")):
            data = load_csv(p, label_column="y")
        assert data.processes == 3
        assert data.features.tobytes() == np.array([[1.5, -2.0], [3.5, -4.0], [5e3, 66.0]]).tobytes()
        assert data.labels.tolist() == [0, 1, 2]
        _assert_no_child_left()

    def test_a_file_below_the_floor_forks_nothing(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        write_csv(Dataset(stream(6).normal(size=(300, 30)), labels=np.arange(300) % 2), p)
        assert p.stat().st_size < data_module.SHARE_MIN_BYTES
        monkeypatch.setattr(data_module, "process_count", lambda limit: max(1, limit))  # a CPU per share

        def no_fork():
            raise AssertionError("forked below the floor")

        monkeypatch.setattr(os, "fork", no_fork)
        assert load_csv(p, label_column="label").processes == 1
        # the floor caps the shares: 2.5 floors of rows give two
        p.write_bytes(b"a\n" + b"1.5\n" * (data_module.SHARE_MIN_BYTES * 5 // 8))
        assert len(data_module._share_bounds(p, 2)) == 2

    def test_a_child_that_exits_without_a_result_is_named(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        write_csv(Dataset(stream(7).normal(size=(40, 5))), p)
        parent, real = os.getpid(), np.loadtxt

        def loadtxt(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(7)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with _shares(2), pytest.raises(
            RuntimeError, match=r"^csv parse worker 1 \(pid \d+\) exited without a result \(exit status 7\)$"
        ):
            load_csv(p)
        _assert_no_child_left()

    def test_a_declined_share_ends_the_others(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        write_csv(Dataset(stream(9).normal(size=(40, 5))), p)
        expected = _outcome(p, {})
        parent, real = os.getpid(), np.loadtxt

        def loadtxt(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)  # killed long before this ends
            raise ValueError("declined")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        start = time.monotonic()
        with _shares(3):
            assert _outcome(p, {}) == expected  # from the row loop
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    @pytest.mark.parametrize("stop, error", [(KeyboardInterrupt(), KeyboardInterrupt), (OSError("gone"), DataError)])
    def test_children_are_killed_when_the_callers_share_stops(self, tmp_path, monkeypatch, stop, error):
        p = tmp_path / "t.csv"
        write_csv(Dataset(stream(8).normal(size=(40, 5))), p)
        parent = os.getpid()

        def loadtxt(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)  # killed long before this ends
            raise stop

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        start = time.monotonic()
        with _shares(3), pytest.raises(error):
            load_csv(p)
        assert time.monotonic() - start < 30
        _assert_no_child_left()


def _outcome(path, kwargs):
    """What load_csv gives: the table's bytes and names, or the error's text."""
    try:
        data = load_csv(path, **kwargs)
    except DataError as err:
        return str(err)
    labels = None if data.labels is None else data.labels.tobytes()
    return data.features.tobytes(), data.features.shape, labels, data.feature_names


class TestDataset:
    def test_label_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(np.ones((3, 2)), labels=[0, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[1.0, np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.empty((0, 3)))


class TestStandardize:
    def test_two_point_column(self):
        # mean 2, population std 1 -> [-1, 1]
        data = Dataset(np.array([[1.0], [3.0]]))
        out, params = standardize(data)
        np.testing.assert_allclose(out.features, [[-1.0], [1.0]])
        np.testing.assert_allclose(params.means, [2.0])
        np.testing.assert_allclose(params.stds, [1.0])

    def test_population_convention(self):
        rng = stream(1)
        data = Dataset(rng.normal(5, 3, size=(30, 4)))
        out, _ = standardize(data)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_becomes_zero(self):
        data = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        out, params = standardize(data)
        np.testing.assert_array_equal(out.features[:, 0], 0.0)
        assert params.stds[0] == 1.0

    def test_idempotent(self):
        rng = stream(2)
        data = Dataset(rng.normal(0, 2, size=(25, 3)))
        once, _ = standardize(data)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_roundtrip_property(self, n, d, seed):
        X = stream(seed).normal(0, 50, size=(n, d))
        X[:, 0] = 7.5  # keep one constant column in play
        data = Dataset(X)
        out, params = standardize(data)
        np.testing.assert_allclose(out.features * params.stds + params.means, X, atol=1e-9)


class TestSynthBlobs:
    def test_shapes_and_labels(self):
        data = synth_blobs(2, 3, 2, seed=0)
        assert data.n == 6 and data.d == 2
        np.testing.assert_array_equal(data.labels, [0, 0, 0, 1, 1, 1])

    def test_single_cluster(self):
        data = synth_blobs(1, 4, 3, seed=0)
        assert set(data.labels.tolist()) == {0}

    def test_deterministic(self):
        a = synth_blobs(3, 10, 5, seed=42)
        b = synth_blobs(3, 10, 5, seed=42)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("k,d", [(4, 8), (5, 3), (9, 2)])
    def test_center_separation(self, k, d):
        data = synth_blobs(k, 200, d, seed=7)
        centers = np.stack([data.features[data.labels == c].mean(axis=0) for c in range(k)])
        for i in range(k):
            for j in range(i + 1, k):
                # empirical means sit within ~1/10 of the true centers, 12 apart
                assert np.linalg.norm(centers[i] - centers[j]) >= 10.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 5, 2)
        with pytest.raises(TypeError):  # seed is keyword-only
            synth_blobs(2, 5, 2, 1.0)


class TestSynthAnomaly:
    def test_rate_and_layout(self):
        data = synth_anomaly(950, 50, 16, seed=0)
        assert data.n == 1000
        assert data.labels.sum() == 50
        np.testing.assert_array_equal(data.labels[:950], 0)
        np.testing.assert_array_equal(data.labels[950:], 1)

    def test_anomaly_norms_dominate(self):
        # spec'd check at d=16: every anomaly farther out than every normal
        data = synth_anomaly(950, 50, 16, seed=123)
        norms = np.linalg.norm(data.features, axis=1)
        assert norms[950:].min() > norms[:950].max()

    def test_shell_radius_at_least_six(self):
        for d in (2, 8, 32):
            data = synth_anomaly(100, 10, d, seed=5)
            norms = np.linalg.norm(data.features[100:], axis=1)
            assert norms.min() >= 6.0

    def test_deterministic(self):
        a = synth_anomaly(40, 4, 6, seed=9)
        b = synth_anomaly(40, 4, 6, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_rejects_too_many_anomalies(self):
        with pytest.raises(ValueError):
            synth_anomaly(10, 10, 4)


class TestRng:
    def test_stream_deterministic(self):
        assert stream(7).random(5).tolist() == stream(7).random(5).tolist()

    def test_child_seeds_distinct(self):
        seeds = {child_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_child_seed_stable(self):
        assert child_seed(12, 3) == child_seed(12, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stream(-1)
        with pytest.raises(ValueError):
            child_seed(1, -2)
