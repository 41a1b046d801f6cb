"""The bench harness itself: document round-trip, schema validation,
regression comparison, CLI exit codes, and a seeded two-workload smoke
run of the real suite (the tier-1 guarantee that ``repro bench`` cannot
silently rot between optimization PRs)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA,
    BenchReport,
    BenchResult,
    compare,
    default_path,
    load,
    run_suite,
    validate,
)
from repro.cli.main import main


def _report(**values: float) -> BenchReport:
    """A small synthetic report; positional metric polarity by name."""
    results = []
    for name, value in values.items():
        higher = not name.endswith("_ms")
        results.append(
            BenchResult(
                name=name,
                value=value,
                unit="x" if higher else "ms",
                kind="ratio" if higher else "latency",
                higher_is_better=higher,
                params={"synthetic": True},
            )
        )
    return BenchReport(
        created="2026-08-08T00:00:00+00:00",
        suite="smoke",
        results=tuple(results),
    )


class TestRoundTrip:
    def test_write_load_validate(self, tmp_path):
        report = _report(speedup=4.0, reroute_ms=0.5)
        path = report.write(tmp_path / "BENCH_test.json")
        doc = json.loads(path.read_text())
        validate(doc)  # must not raise
        loaded = load(path)
        assert loaded.schema == SCHEMA
        assert loaded.suite == "smoke"
        assert loaded.result("speedup").value == 4.0
        assert loaded.result("reroute_ms").higher_is_better is False
        assert loaded.result("reroute_ms").params == {"synthetic": True}

    def test_default_path_shape(self):
        path = default_path("2026-08-08T12:34:56+00:00", root="/tmp")
        assert path.name == "BENCH_20260808T123456Z.json"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(schema="repro-bench/0"),
            lambda d: d.pop("created"),
            lambda d: d.update(results=[]),
            lambda d: d["results"][0].pop("name"),
            lambda d: d["results"][0].update(value=float("nan")),
            lambda d: d["results"][0].update(value=-1.0),
            lambda d: d["results"][0].update(kind="vibes"),
            lambda d: d["results"][0].pop("higher_is_better"),
            lambda d: d["results"].append(dict(d["results"][0])),
        ],
    )
    def test_validate_rejects_malformed_documents(self, mutate):
        doc = _report(speedup=4.0).to_dict()
        mutate(doc)
        with pytest.raises(ValueError):
            validate(doc)


class TestCompare:
    def test_detects_injected_regression(self):
        # 20 % worse in each metric's harmful direction, 10 % threshold
        base = _report(speedup=10.0, reroute_ms=1.0)
        bad = _report(speedup=8.0, reroute_ms=1.2)
        cmp = compare(base, bad, threshold=0.10)
        assert not cmp.ok
        assert {d.name for d in cmp.regressions} == {"speedup", "reroute_ms"}

    def test_threshold_tolerates_noise(self):
        base = _report(speedup=10.0, reroute_ms=1.0)
        noisy = _report(speedup=9.5, reroute_ms=1.05)
        cmp = compare(base, noisy, threshold=0.10)
        assert cmp.ok
        # improvements never regress
        better = _report(speedup=30.0, reroute_ms=0.1)
        assert compare(base, better, threshold=0.10).ok

    def test_metric_sets_may_drift(self):
        base = _report(speedup=10.0, old_ms=1.0)
        cur = _report(speedup=10.0, new_ms=1.0)
        cmp = compare(base, cur)
        assert cmp.only_baseline == ("old_ms",)
        assert cmp.only_current == ("new_ms",)
        assert cmp.ok  # unmatched metrics never gate

    def test_kind_filter(self):
        base = _report(speedup=10.0, reroute_ms=1.0)
        bad = _report(speedup=10.0, reroute_ms=10.0)
        assert not compare(base, bad, threshold=0.1).ok
        assert compare(base, bad, threshold=0.1, kinds=("ratio",)).ok

    def test_unit_mismatch_is_an_error(self):
        base = _report(speedup=10.0)
        other = BenchReport(
            created=base.created,
            suite="smoke",
            results=(
                BenchResult(
                    name="speedup",
                    value=10.0,
                    unit="x",
                    kind="ratio",
                    higher_is_better=False,  # flipped polarity
                ),
            ),
        )
        with pytest.raises(ValueError, match="disagree"):
            compare(base, other)


class TestCli:
    def test_compare_exits_nonzero_on_regression(self, tmp_path, capsys):
        base = _report(speedup=10.0, reroute_ms=1.0)
        bad = _report(speedup=10.0, reroute_ms=1.2)  # 20 % slower
        a = base.write(tmp_path / "a.json")
        b = bad.write(tmp_path / "b.json")
        assert main(["bench", "--compare", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # identical documents pass
        assert main(["bench", "--compare", str(a), str(a)]) == 0
        # a generous threshold tolerates the same delta
        assert (
            main(
                [
                    "bench",
                    "--compare",
                    str(a),
                    str(b),
                    "--threshold",
                    "0.5",
                ]
            )
            == 0
        )

    def test_compare_rejects_invalid_document(self, tmp_path, capsys):
        good = _report(speedup=1.0).write(tmp_path / "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert main(["bench", "--compare", str(good), str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_workload_fails_loudly(self, capsys):
        assert main(["bench", "--only", "warp-drive"]) == 2
        assert "warp-drive" in capsys.readouterr().err


class TestSuiteSmoke:
    """Seeded two-workload smoke of the real suite (tier-1)."""

    @pytest.fixture(scope="class")
    def smoke_report(self, tmp_path_factory):
        report = run_suite(smoke=True, only=("minimax", "chaos"))
        path = report.write(
            tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"
        )
        return report, path

    def test_report_shape(self, smoke_report):
        report, _ = smoke_report
        assert report.suite == "smoke"
        names = {r.name for r in report.results}
        assert "minimax.build.n120" in names
        assert "reroute.rebuild.n120" in names
        assert "reroute.rebuild_vs_build.n120" in names
        assert "chaos.episode.wall" in names

    def test_round_trips_through_disk(self, smoke_report):
        report, path = smoke_report
        loaded = load(path)
        assert {r.name for r in loaded.results} == {
            r.name for r in report.results
        }
        assert compare(loaded, report).ok  # identical values

    def test_reroute_costs_about_one_build(self, smoke_report):
        report, _ = smoke_report
        assert report.result("reroute.rebuild.n120").value > 0
        assert report.result("reroute.rebuild_vs_build.n120").value >= 0.5


class TestMulticastWorkload:
    """The striped-staging workload added with the multicast failover PR."""

    @pytest.fixture(scope="class")
    def mc_report(self):
        return run_suite(smoke=True, only=("multicast",))

    def test_metric_names_present(self, mc_report):
        names = {r.name for r in mc_report.results}
        assert names == {
            "multicast.striped.speedup.x4",
            "multicast.striped.crossover.x4",
            "multicast.staging.model",
            "multicast.stage.wall",
        }

    def test_striping_wins_on_the_wan_workload(self, mc_report):
        speedup = mc_report.result("multicast.striped.speedup.x4")
        assert speedup.kind == "ratio"
        assert speedup.value > 1.0

    def test_crossover_is_a_finite_byte_count(self, mc_report):
        crossover = mc_report.result("multicast.striped.crossover.x4")
        assert crossover.unit == "bytes"
        # striping must lose below it and win above it, so the search
        # has to land strictly inside the probed range
        assert 0 < crossover.value < 1 << 30

    def test_real_socket_staging_completes(self, mc_report):
        wall = mc_report.result("multicast.stage.wall")
        assert wall.kind == "wall"
        assert wall.value > 0.0
