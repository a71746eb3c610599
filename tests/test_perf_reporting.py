"""CSV/Markdown exporters."""

import csv
import io

import pytest

from repro.errors import ValidationError
from repro.perf.metrics import ScalingSeries
from repro.perf.reporting import (
    series_to_csv,
    table_to_csv,
    table_to_markdown,
    write_text,
)
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


class TestMarkdown:
    def test_structure(self, table):
        md = table_to_markdown(table)
        lines = md.splitlines()
        assert lines[0] == "**demo**"
        assert lines[2].startswith("| P | T |")
        assert set(lines[3]) <= {"|", "-", " "}
        assert "| 0.500 |" in lines[5]

    def test_no_title(self):
        t = Table(["x"])
        t.add_row([1])
        md = table_to_markdown(t)
        assert md.startswith("| x |")

    def test_type_checked(self):
        with pytest.raises(ValidationError):
            table_to_markdown(42)


class TestSeriesCsv:
    def test_columns(self):
        s = ScalingSeries(ps=(1, 2, 4), times=(1.0, 0.5, 0.25))
        rows = list(csv.reader(io.StringIO(series_to_csv(s))))
        assert rows[0] == ["p", "time_s", "speedup", "efficiency"]
        assert float(rows[3][2]) == pytest.approx(4.0)

    def test_type_checked(self):
        with pytest.raises(ValidationError):
            series_to_csv([1, 2, 3])


class TestWriteText:
    def test_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.csv"
        out = write_text(target, "x,y\n1,2\n")
        assert out.read_text() == "x,y\n1,2\n"
