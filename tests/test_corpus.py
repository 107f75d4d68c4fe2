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

Without --write the script checks the corpus; it needs no pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from balloonlink import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus"
BUNDLED = CORPUS / "bundled"
JOBS = CORPUS / "jobs.json"
SEEDS = (1, 2, 3)
STDOUT = "stdout"


def _perfbench_scenarios():
    path = ROOT / "perfbench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("_corpus_perfbench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


scenarios = _perfbench_scenarios()
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


def jobs(workload_seed: str, tmp: Path) -> dict[str, dict]:
    """Job label -> exit code and the sha256 of each file and of stdout."""
    workload, seed = workload_seed.split("/")
    work = tmp / workload / seed
    result = {}
    for index, job in enumerate(scenarios.generate(workload, int(seed), work)):
        out = work / f"out{index}"
        code, stdout, files = run(job.argv(work, out), out)
        result[job.label] = {
            "exit": code,
            "files": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
            STDOUT: hashlib.sha256(stdout.encode()).hexdigest(),
        }
    return result


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
        actual, expected = bundled(command, tmp_path), stored_bundled(command)
        assert sorted(actual) == sorted(expected)
        for name in expected:
            assert actual[name] == expected[name], name

    @pytest.mark.parametrize("workload_seed", WORKLOAD_SEEDS)
    def test_benchmark_jobs(workload_seed, tmp_path):
        assert jobs(workload_seed, tmp_path) == stored_jobs()[workload_seed]


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print("usage: test_corpus.py [--write]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        actual_bundled = {command: bundled(command, Path(tmp)) for command in cli.PRODUCTS}
        actual_jobs = {key: jobs(key, Path(tmp)) for key in WORKLOAD_SEEDS}
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
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
