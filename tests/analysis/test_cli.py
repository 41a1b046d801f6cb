"""The ``repro lint`` command: exit codes, JSON schema, baseline flow."""

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import SCHEMA_VERSION, all_rules
from repro.cli.main import main

FIXTURES = Path(__file__).parent / "fixtures"

#: RPR015 (blocking calls in ``async def``) was retired: ``src`` has none
ALL_RULE_IDS = [f"RPR{n:03d}" for n in range(1, 18) if n != 15]


@pytest.fixture
def bad_dir(tmp_path):
    copy = tmp_path / "robustness"
    shutil.copytree(FIXTURES / "robustness", copy)
    return copy


def test_clean_run_exits_zero(tmp_path, capsys):
    (tmp_path / "fine.py").write_text("VALUE = 1\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert "clean: 1 file(s), no findings" in capsys.readouterr().out


def test_findings_exit_one(bad_dir, capsys):
    assert main(["lint", str(bad_dir)]) == 1
    out = capsys.readouterr().out
    assert "RPR008" in out and "RPR010" in out
    assert "6 finding(s) in 2 file(s)" in out


def test_seeded_violations_report_rule_and_line(tmp_path, capsys):
    """The acceptance matrix: a wrong struct format, an unguarded
    write, an unseeded draw and a bare except each exit non-zero with
    the right rule ID on the right line."""
    (tmp_path / "seeded.py").write_text(
        textwrap.dedent(
            """\
            import random
            import struct
            import threading


            def pack(a, b):
                return struct.pack("HH", a, b)


            def draw():
                try:
                    return random.random()
                except:
                    return 0.0


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def safe(self):
                    with self._lock:
                        self.n += 1

                def racy(self):
                    self.n += 1
            """
        )
    )
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    got = {(f["rule"], f["line"]) for f in payload["findings"]}
    assert got == {
        ("RPR001", 7),  # struct.pack("HH", ...)
        ("RPR004", 12),  # random.random()
        ("RPR008", 13),  # bare except
        ("RPR002", 27),  # Counter.n written unguarded in racy()
    }


def test_widened_wire_field_breaks_importers(tmp_path, capsys):
    """Widening a header field fails the peeking module, not just the
    defining one — the cross-file contract the rule exists for."""
    copy = tmp_path / "wire"
    shutil.copytree(FIXTURES / "wire", copy)
    defs = copy / "wire_defs.py"
    defs.write_text(
        defs.read_text().replace('"!HHH16s"', '"!HHI16s"')
    )
    assert main(["lint", str(copy), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    peeks = [
        f
        for f in payload["findings"]
        if f["path"].endswith("good_wire.py") and f["rule"] == "RPR001"
    ]
    assert [f["line"] for f in peeks] == [11]  # the [4:6] hlen peek
    assert "'!HHI16s'" in peeks[0]["message"]


def test_json_schema(bad_dir, capsys):
    assert main(["lint", str(bad_dir), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == SCHEMA_VERSION
    assert payload["tool"] == "repro-lint"
    assert payload["files_scanned"] == 2
    assert payload["clean"] is False
    assert payload["counts"] == {
        "RPR008": 1, "RPR009": 1, "RPR010": 2, "RPR012": 2,
    }
    assert isinstance(payload["suppressed"], int)
    assert isinstance(payload["baselined"], int)
    assert len(payload["findings"]) == 6
    for finding in payload["findings"]:
        assert set(finding) == {
            "path", "line", "col", "rule", "message", "symbol",
        }
        assert isinstance(finding["line"], int) and finding["line"] >= 1
        assert isinstance(finding["col"], int) and finding["col"] >= 0
        assert finding["rule"] in ALL_RULE_IDS


def test_select_runs_only_named_rules(bad_dir, capsys):
    assert main(
        ["lint", str(bad_dir), "--select", "RPR008", "--format", "json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"RPR008": 1}


def test_select_interprocedural_rules(tmp_path, capsys):
    """The whole-program rules run (and only they run) under
    ``--select RPR013,...,RPR017`` — the CI lint step's exact spelling."""
    copy = tmp_path / "deadlock"
    shutil.copytree(FIXTURES / "deadlock", copy)
    assert main(
        [
            "lint",
            str(copy),
            "--select",
            "RPR013,RPR014,RPR016,RPR017",
            "--format",
            "json",
        ]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"RPR013": 3}


def test_unknown_rule_id_is_an_error(bad_dir, capsys):
    assert main(["lint", str(bad_dir), "--select", "RPR999"]) == 2
    assert "RPR999" in capsys.readouterr().err


def test_missing_path_is_an_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "nope" in capsys.readouterr().err


def test_list_rules_covers_the_catalog(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out
    assert [r.id for r in all_rules()] == ALL_RULE_IDS


def test_baseline_workflow(bad_dir, tmp_path, capsys):
    base = tmp_path / "base.json"
    assert main(
        ["lint", str(bad_dir), "--baseline", str(base), "--update-baseline"]
    ) == 0
    assert "accepted 6 finding(s)" in capsys.readouterr().out

    assert main(["lint", str(bad_dir), "--baseline", str(base)]) == 0
    assert "6 baselined" in capsys.readouterr().out

    # new debt in a baselined file still fails the run
    bad = bad_dir / "bad_robust.py"
    bad.write_text(
        bad.read_text()
        + "\n\ndef worse(job):\n    try:\n        job()\n"
        + "    except:\n        pass\n"
    )
    assert main(["lint", str(bad_dir), "--baseline", str(base)]) == 1


def test_default_baseline_is_picked_up(bad_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lint", str(bad_dir), "--update-baseline"]) == 0
    assert (tmp_path / ".rpr-baseline.json").exists()
    capsys.readouterr()
    assert main(["lint", str(bad_dir)]) == 0
    assert "baselined" in capsys.readouterr().out
