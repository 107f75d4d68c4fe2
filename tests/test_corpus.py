"""The byte contract: the outputs of a fixed set of CLI runs against a stored corpus.

Two sets of runs, each a ``cli.main`` call in process with its own output
directory:

- the bundled scenario's six subcommands at their flag defaults. Every
  file and stdout is stored as text under ``corpus/bundled/<command>/``,
  so a failure diffs the row that moved;
- every job of the benchmark's three workloads at seeds 1-3, from
  ``perfbench/scenarios.py`` (imported, not copied). Each job is stored in
  ``corpus/jobs.json`` as its exit code and the sha256 of each file it
  wrote and of its stdout.

stdout names the output directory in its ``wrote`` lines; that path is
replaced by ``OUT`` before it is compared. After a deliberate output
change, rewrite the corpus and say in CHANGES.md which files changed and
why:

    PYTHONPATH=src python tests/test_corpus.py --write

--write first checks every job's outputs with the benchmark's independent
oracle, ``perfbench/checker.py``, and writes nothing if it rejects one.
Without --write the script checks the corpus; it needs no pytest.

The bytes must not hang on the last ulp of libm's ``pow`` and ``log10``,
which IEEE 754 does not require to round correctly. So every float the
runs print through ``cli``'s three format seams is recorded, and each must
lie at least TIE_MARGIN_ULPS ulps from the nearest tie of its ``%.5e``
rounding (``too_close``). Script mode prints the smallest margin of each
kind of float.
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import importlib.util
import io
import json
import math
import shutil
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

from balloonlink import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus"
BUNDLED = CORPUS / "bundled"
JOBS = CORPUS / "jobs.json"
SEEDS = (1, 2, 3)
STDOUT = "stdout"


def _perfbench(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_corpus_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


scenarios = _perfbench("scenarios")
checker = _perfbench("checker")
WORKLOAD_SEEDS = [f"{workload}/{seed}" for workload in scenarios.WORKLOADS for seed in SEEDS]


def run(argv: list[str], out: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout (output directory as OUT) and the files in out after argv."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert not stderr.getvalue() or code != 0, stderr.getvalue()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.is_dir() else {}
    return code, stdout.getvalue().replace(str(out), "OUT"), files


def bundled(command: str, tmp: Path) -> dict[str, str]:
    """Each file the subcommand writes, plus its stdout, as text."""
    code, stdout, files = run([command, "--out", str(tmp / command)], tmp / command)
    assert code == 0, f"{command} exited {code}"
    return {**{name: data.decode() for name, data in files.items()}, STDOUT: stdout}


def jobs(workload_seed: str, tmp: Path, check: bool = False) -> dict[str, dict]:
    """Job label -> exit code and the sha256 of each file and of stdout.

    With check, the oracle checks each job's outputs and raises
    checker.CheckError at the first it rejects.
    """
    workload, seed = workload_seed.split("/")
    work = tmp / workload / seed
    result = {}
    for index, job in enumerate(scenarios.generate(workload, int(seed), work)):
        out = work / f"out{index}"
        code, stdout, files = run(job.argv(work, out), out)
        if check:
            checker.check(job.command, job.scenario, job.flags, out, stdout)
        result[job.label] = {
            "exit": code,
            "files": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
            STDOUT: hashlib.sha256(stdout.encode()).hexdigest(),
        }
    return result


TIE_MARGIN_ULPS = 1024
# what printed a float: cli.fmt, a row template's % or cli.float_column
KINDS = ("scalar", "value", "abscissa")


def tie_margin_ulps(x: float) -> Decimal:
    """The distance from x (finite, not 0) to its nearest %.5e rounding tie, in ulps of x.

    A tie is a decimal of seven significant digits ending in 5, where the
    six digits %.5e prints flip. Just above a power of ten the nearest tie
    below lies in the decade beneath: 9.999995 times a power of ten.
    """
    with decimal.localcontext() as context:
        context.prec = 800  # exact: a float has at most 767 significant decimal digits
        shift = 5 - Decimal(x).adjusted()
        q = abs(Decimal(x)).scaleb(shift)  # in units of the sixth digit: 100000 <= q < 1000000
        half = Decimal("0.5")
        n = (q + half).to_integral_value(rounding=decimal.ROUND_FLOOR)  # the ties n - 1/2 <= q < n + 1/2
        below = max(n - half, Decimal("99999.95"))
        return min(q - below, n + half - q).scaleb(-shift) / Decimal(math.ulp(x))


def _echoed(x: float) -> bool:
    """Whether x has at most seven significant digits, as an input echoed from a scenario does."""
    return float(format(x, ".6e")) == x


def too_close(printed: dict[str, list[float]]) -> list[tuple[str, float]]:
    """(kind, float) of each printed float within TIE_MARGIN_ULPS ulps of a %.5e tie.

    Abscissas are exempt, since they are sampled from the scenario's
    endpoints with +, * and / alone, which IEEE 754 rounds correctly; so are
    echoed inputs. A float passes at once when x nudged by 2**-32 of itself,
    over 2**20 ulps, down and up prints the same: no tie lies that near.
    """
    return [
        (kind, x)
        for kind in KINDS[:2]
        for x in printed[kind]
        if format(x * (1 - 2**-32), ".5e") != format(x * (1 + 2**-32), ".5e")
        and not _echoed(x)
        and tie_margin_ulps(x) < TIE_MARGIN_ULPS
    ]


@contextlib.contextmanager
def printed_floats():
    """Record, by kind, every float cli prints while in the block, through its three format seams."""
    printed = {kind: [] for kind in KINDS}
    fmt, float_column, row_template = cli.fmt, cli.float_column, cli.row_template

    class Rows(str):
        def __mod__(self, values):
            printed["value"].extend(values)
            return str.__mod__(self, values)

    cli.fmt = lambda x: printed["scalar"].append(x) or fmt(x)
    cli.float_column = lambda xs: printed["abscissa"].extend(xs) or float_column(xs)
    cli.row_template = lambda column, unit: Rows(row_template(column, unit))
    try:
        yield printed
    finally:
        cli.fmt, cli.float_column, cli.row_template = fmt, float_column, row_template


def smallest_margins(printed: dict[str, list[float]]) -> dict[str, Decimal]:
    """Each kind's smallest tie margin in ulps.

    It is taken over every abscissa but 0, since abscissas reach ties, and
    over every other float but echoed inputs, which the guard exempts.
    """
    return {
        kind: min(tie_margin_ulps(x) for x in set(values) if x and (kind == "abscissa" or not _echoed(x)))
        for kind, values in printed.items()
    }


def stored_bundled(command: str) -> dict[str, str]:
    directory = BUNDLED / command
    return {path.name: path.read_bytes().decode() for path in sorted(directory.iterdir())}


def stored_jobs() -> dict[str, dict]:
    return json.loads(JOBS.read_text(encoding="utf-8"))


def test_bundled_corpus_names_every_subcommand():
    assert sorted(path.name for path in BUNDLED.iterdir()) == sorted(cli.PRODUCTS)


def test_jobs_corpus_names_every_workload_and_seed():
    assert sorted(stored_jobs()) == sorted(WORKLOAD_SEEDS)


try:
    import pytest
except ImportError:  # script mode on an interpreter without pytest
    pass
else:

    @pytest.mark.parametrize("command", list(cli.PRODUCTS))
    def test_bundled_scenario(command, tmp_path):
        with printed_floats() as printed:
            actual = bundled(command, tmp_path)
        expected = stored_bundled(command)
        assert sorted(actual) == sorted(expected)
        for name in expected:
            assert actual[name] == expected[name], name
        assert too_close(printed) == []

    @pytest.mark.parametrize("workload_seed", WORKLOAD_SEEDS)
    def test_benchmark_jobs(workload_seed, tmp_path):
        with printed_floats() as printed:
            actual = jobs(workload_seed, tmp_path)
        assert actual == stored_jobs()[workload_seed]
        assert too_close(printed) == []

    def test_tie_margin_is_exact_in_ulps():
        tie = 369.5625  # 3.695625e+02: seven digits ending in 5, a double exactly
        assert tie_margin_ulps(tie) == tie_margin_ulps(-tie) == 0
        assert tie_margin_ulps(math.nextafter(tie, math.inf)) == 1
        assert tie_margin_ulps(math.nextafter(tie, 0.0)) == 1
        # 1000 lies between the ties 999.9995, in the decade beneath, and 1000.005
        assert tie_margin_ulps(1000.0) == Decimal("0.0005") / Decimal(math.ulp(1000.0))

    def test_a_float_one_ulp_from_a_tie_fails_the_guard():
        planted = math.nextafter(369.5625, math.inf)
        far = 369.5625 + 2**20 * math.ulp(369.5625)
        for kind in ("scalar", "value"):
            printed = {"scalar": [], "value": [], "abscissa": [], kind: [1.0, planted, far]}
            assert too_close(printed) == [(kind, planted)]
        # a tie itself has seven digits, as an echoed input; abscissas are exempt
        assert too_close({"scalar": [369.5625], "value": [], "abscissa": [planted]}) == []

    def test_the_seams_see_every_kind_and_are_restored(tmp_path):
        seams = cli.fmt, cli.float_column, cli.row_template
        with printed_floats() as printed:
            for command in ("exposure", "table1"):
                bundled(command, tmp_path)
        assert (cli.fmt, cli.float_column, cli.row_template) == seams
        assert all(printed[kind] for kind in KINDS)

    def test_write_refuses_a_corpus_the_oracle_rejects(tmp_path, monkeypatch, capsys):
        def reject(command, *args):
            raise checker.CheckError(f"{command}: rejected")

        monkeypatch.setattr(checker, "check", reject)
        monkeypatch.setitem(globals(), "BUNDLED", tmp_path / "bundled")
        monkeypatch.setitem(globals(), "JOBS", tmp_path / "jobs.json")
        assert main(["--write"]) == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("the oracle rejects a job, corpus not written: ")
        assert err.endswith(": rejected\n")


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print("usage: test_corpus.py [--write]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp, printed_floats() as printed:
        actual_bundled = {command: bundled(command, Path(tmp)) for command in cli.PRODUCTS}
        try:
            actual_jobs = {key: jobs(key, Path(tmp), check=write) for key in WORKLOAD_SEEDS}
        except checker.CheckError as exc:
            print(f"the oracle rejects a job, corpus not written: {exc}", file=sys.stderr)
            return 1
    for kind, margin in smallest_margins(printed).items():
        print(f"smallest tie margin, {kind}: {int(margin)} ulps")
    close = too_close(printed)
    for kind, x in close:
        print(f"{kind} {x!r} lies {tie_margin_ulps(x):.0f} ulps from a %.5e tie", file=sys.stderr)
    if write and close:
        print("corpus not written", file=sys.stderr)
        return 1
    if write:
        shutil.rmtree(BUNDLED, ignore_errors=True)
        for command, files in actual_bundled.items():
            (BUNDLED / command).mkdir(parents=True)
            for name, text in files.items():
                (BUNDLED / command / name).write_bytes(text.encode())
        JOBS.write_text(json.dumps(actual_jobs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {CORPUS}")
        return 0
    stored = {command: stored_bundled(command) for command in cli.PRODUCTS}
    moved = [f"bundled/{c}" for c in cli.PRODUCTS if actual_bundled[c] != stored[c]]
    moved += [f"jobs/{key}" for key, value in stored_jobs().items() if actual_jobs.get(key) != value]
    for entry in moved:
        print(f"differs: {entry}")
    print("corpus differs" if moved else "corpus matches")
    return 1 if moved or close else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
