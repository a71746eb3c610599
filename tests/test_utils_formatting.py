"""ASCII table rendering."""

import pytest

from repro.utils.formatting import Table


class TestTable:
    def test_renders_headers_and_rows(self):
        t = Table(["P", "T"], title="demo")
        t.add_row([1, 2.0])
        t.add_row([2, 1.0])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "P" in lines[1] and "T" in lines[1]
        assert len(lines) == 5  # title, header, separator, 2 rows

    def test_rejects_ragged_rows(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_float_formatting(self):
        t = Table(["x"], floatfmt=".2f")
        t.add_row([3.14159])
        assert "3.14" in t.render()
        assert "3.142" not in t.render()

    def test_column_alignment(self):
        t = Table(["name", "value"])
        t.add_row(["a", 1])
        t.add_row(["bbbb", 22])
        lines = t.render().splitlines()
        # All data lines share the same width.
        assert len(lines[2]) == len(lines[3])

    def test_empty_table_renders_headers(self):
        t = Table(["only"])
        out = t.render()
        assert "only" in out

    def test_str_equals_render(self):
        t = Table(["x"])
        t.add_row([1])
        assert str(t) == t.render()

