"""Tests for the `repro forecast` subcommand."""

import pytest

from repro.cli.main import main


class TestForecastCommand:
    def test_stable_series(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("\n".join(["1000000"] * 30))
        rc = main(["forecast", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "30 measurements" in out
        assert "8.00 Mbit/s" in out  # 1e6 B/s
        assert "forecaster" in out

    def test_comments_and_blanks_skipped(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("# probe log\n1e6\n\n2e6  # spike\n1e6\n")
        rc = main(["forecast", str(path)])
        assert rc == 0
        assert "3 measurements" in capsys.readouterr().out

    def test_top_flag_limits_rows(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("\n".join(str(1e6 + i) for i in range(20)))
        rc = main(["forecast", str(path), "--top", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        # header + separator + exactly 2 rows after the summary line
        table_lines = out.splitlines()[1:]
        assert len(table_lines) == 4

    def test_non_numeric_is_error(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("fast\n")
        rc = main(["forecast", str(path)])
        assert rc == 2

    def test_too_short_is_error(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("1e6\n")
        rc = main(["forecast", str(path)])
        assert rc == 2

    def test_missing_file_is_error(self, capsys):
        rc = main(["forecast", "/no/such/series"])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-50"])
    def test_non_finite_or_negative_is_error(self, tmp_path, capsys, bad):
        path = tmp_path / "series.txt"
        path.write_text(f"100\n120\n{bad}\n110\n105\n")
        rc = main(["forecast", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "line 3" in captured.err
        assert bad in captured.err
        assert "forecast" not in captured.out
