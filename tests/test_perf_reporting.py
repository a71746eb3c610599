"""CSV exporters."""

import csv
import io

import pytest

from repro.errors import ValidationError
from repro.perf.reporting import table_to_csv, write_text
from repro.utils.formatting import Table


@pytest.fixture
def table():
    t = Table(["P", "T"], title="demo", floatfmt=".3f")
    t.add_row([1, 1.0])
    t.add_row([2, 0.5])
    return t


class TestCsv:
    def test_roundtrip_parses(self, table):
        text = table_to_csv(table)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["P", "T"]
        assert rows[1] == ["1", "1.0"]
        assert len(rows) == 3

    def test_full_precision_by_default(self):
        t = Table(["x"], floatfmt=".1f")
        t.add_row([0.123456789012])
        text = table_to_csv(t)
        assert "0.123456789012" in text  # Table floatfmt NOT applied

    def test_type_checked(self):
        with pytest.raises(ValidationError):
            table_to_csv("not a table")

    def test_cells_with_commas_and_quotes_are_escaped(self):
        t = Table(["engine", "note"])
        t.add_row(["mc, qmc", 'says "hi"'])
        text = table_to_csv(t)
        assert '"mc, qmc"' in text
        assert '"says ""hi"""' in text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1] == ["mc, qmc", 'says "hi"']

    def test_bare_carriage_return_is_quoted(self):
        # csv.writer with lineterminator="\n" leaves a lone \r unquoted,
        # which corrupts the row for RFC 4180 readers — the regression this
        # exporter fixes.
        t = Table(["label"])
        t.add_row(["a\rb"])
        text = table_to_csv(t)
        assert '"a\rb"' in text
        assert text.count("\n") == 2  # header + one data row, nothing split

    def test_embedded_newline_is_quoted(self):
        t = Table(["label"])
        t.add_row(["two\nlines"])
        rows = list(csv.reader(io.StringIO(table_to_csv(t))))
        assert rows[1] == ["two\nlines"]


class TestWriteText:
    def test_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.csv"
        out = write_text(target, "x,y\n1,2\n")
        assert out.read_text() == "x,y\n1,2\n"
