"""The benchmark's own checks: checker, seeded inputs, span arithmetic, failure counting."""

import math

import pytest

import checker
import run
import scenarios
import spans
from balloonlink import cli


def _products(tmp_path, workload, label):
    """Run one generated job in-process; return (job, out_dir)."""
    jobs = scenarios.generate(workload, 7, tmp_path)
    job = next(j for j in jobs if j.label == label)
    (tmp_path / "out").mkdir()
    outcome = run.in_process(job, tmp_path, cli.main)
    assert outcome.error is None
    return job, tmp_path / "out"


def _check(job, out_dir):
    return checker.check(job.command, job.scenario, job.flags, out_dir, "")


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_checker_accepts_real_output_and_rejects_corrupted_density(tmp_path):
    job, out = _products(tmp_path, "cli-default", "table1")
    assert _check(job, out) == 1
    row = (out / "table1.csv").read_text().splitlines()[-1]
    distance, density = row.split(",")
    corrupted = f"{float(density) * 1.00002:.5e}"
    assert corrupted != density
    _edit(out / "table1.csv", row, f"{distance},{corrupted}")
    with pytest.raises(checker.CheckError, match="density"):
        _check(job, out)


def test_checker_rejects_dropped_row(tmp_path):
    job, out = _products(tmp_path, "cli-default", "exposure")
    assert _check(job, out) == 5
    lines = (out / "fig8.csv").read_text().splitlines()
    (out / "fig8.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checker.CheckError, match="rows"):
        _check(job, out)


@pytest.mark.parametrize("factor", [1.02, 0.98])
def test_checker_rejects_union_area_two_percent_off(tmp_path, factor):
    job, out = _products(tmp_path, "coverage-scaling", "coverage N=19")
    assert _check(job, out) == 1
    line = (out / "coverage.csv").read_text().splitlines()[-1]
    area = float(line.split(",")[1])
    _edit(out / "coverage.csv", line, f"union_area_km2,{area * factor:.5e}")
    with pytest.raises(checker.CheckError, match="union"):
        _check(job, out)


def test_checker_rejects_missing_product(tmp_path):
    job, out = _products(tmp_path, "cli-default", "green")
    (out / "green.csv").unlink()
    with pytest.raises(checker.CheckError, match="missing"):
        _check(job, out)


def test_checker_reports_malformed_product_as_check_error(tmp_path):
    job, out = _products(tmp_path, "coverage-scaling", "coverage N=7")
    _edit(out / "coverage.csv", "cell_radius_km,", "cell_radius_km;")
    with pytest.raises(checker.CheckError, match="malformed"):
        _check(job, out)


def test_exact_union_area_matches_known_edge_counts():
    # full rings of k hexagons have 9k^2 + 3k adjacent pairs
    for count, rings in zip(scenarios.FULL_RING_COUNTS, (0, 1, 2, 4, 6)):
        assert checker.adjacent_pairs(checker.hex_lattice(count)) == 9 * rings**2 + 3 * rings
    assert checker.union_area_km2(1, 2.0) == pytest.approx(4.0 * math.pi)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_one_seed_generates_byte_identical_files(tmp_path, workload):
    first = scenarios.generate(workload, 11, tmp_path / "a")
    second = scenarios.generate(workload, 11, tmp_path / "b")
    other = scenarios.generate(workload, 12, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    assert [(j.label, j.flags) for j in first] == [(j.label, j.flags) for j in second]
    assert [j.scenario for j in first] != [j.scenario for j in other]


def test_self_time_on_synthetic_span_tree():
    tree = [
        spans.Span("cli.main", 0.0, 10.0, -1),
        spans.Span("exposure.sweep", 1.0, 5.0, 0),
        spans.Span("propagation.a", 2.0, 3.0, 1),
        spans.Span("propagation.b", 3.5, 4.0, 1),
        spans.Span("csvout.write", 6.0, 8.0, 0),
        spans.Span("odd.overlap", 7.0, 9.0, 0),  # overlaps its sibling: covered once
        spans.Span("other.root", 20.0, 21.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 4.0 - 3.0, 2.5, 1.0, 0.5, 2.0, 2.0, 1.0])


def test_tracer_records_nested_spans_and_restores_modules(tmp_path):
    from balloonlink import exposure

    job, _ = _products(tmp_path, "cli-default", "table1")
    original = cli.table_one
    tracer = spans.Tracer()
    saved = tracer.install(cli, exposure)
    try:
        assert run.in_process(job, tmp_path, tracer.wrap("cli.main", cli.main)).error is None
    finally:
        tracer.uninstall(saved)
    assert cli.table_one is original
    m = spans.layer_metrics(tracer)
    assert m["scenario.load_calls"] == 1
    assert m["exposure.points"] == 3
    assert m["propagation.calls"] == 3  # power_density per distance, via exposure
    assert m["csvout.write_calls"] == 1
    assert m["csvout.fmt_calls"] == 6
    main_ms = (tracer.spans[0][2] - tracer.spans[0][1]) * 1e3
    assert tracer.spans[0][0] == "cli.main"
    layers = sum(v for k, v in m.items() if k.startswith("layer."))
    assert layers == pytest.approx(main_ms)


def test_parse_importtime_sums_top_level_package_blocks():
    report = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:       500 |      70000 |     numpy",
            "import time:       200 |      80000 |   balloonlink.coverage",
            "import time:       300 |      90000 | balloonlink",
            "import time:        40 |       5000 | balloonlink.cli",
            "import time:        10 |         10 | locale",
        ]
    )
    assert spans.parse_importtime(report) == {
        "import.cli_cumulative_ms": 95.0,
        "import.numpy_cumulative_ms": 70.0,
        "import.modules_count": 4.0,
    }


def test_failures_are_counted_not_raised(tmp_path):
    job = scenarios.generate("cli-default", 3, tmp_path)[0]
    (tmp_path / "out").mkdir()
    (tmp_path / job.scenario_file).write_text("{ not json")
    in_proc = run.in_process(job, tmp_path, cli.main)
    assert in_proc.error.startswith("exit 1")
    spawned = run.run_process(job, tmp_path)
    assert spawned.error.startswith("exit code 1")
    assert "line 1" in spawned.error


def test_cli_process_is_timed_against_a_bare_start(tmp_path):
    job = next(j for j in scenarios.generate("cli-default", 3, tmp_path) if j.label == "green")
    (tmp_path / "out").mkdir()
    outcome = run.run_referenced(job, tmp_path)
    assert outcome.error is None
    assert outcome.products == 1
    # a bare `python -S -c pass` is far cheaper than a CLI process that imports numpy
    assert 0.0 < outcome.start_ref_s < outcome.wall_s / 2


def test_short_run_still_sets_up_every_repeat(tmp_path):
    record = {}
    metrics, outcomes = run.end_to_end("fine-sweeps", 5, 0.0, tmp_path, record)
    assert len(record["setup_ms_each"]) == run.SETUP_REPEATS
    median_ms = sorted(record["setup_ms_each"])[run.SETUP_REPEATS // 2]
    assert metrics["setup_s"][0] * 1e3 == pytest.approx(median_ms, abs=1e-3)
    assert not [o for o in outcomes if o.error]
