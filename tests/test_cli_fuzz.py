"""Seeded fuzz of the CLI contract, run in-process through cli.main.

Each case mutates the bundled scenario with values from a pool of edge
cases, picks a random subcommand with random flags, and checks the
contract every input must keep: exit 0, 1 or 2, at most one `error:` line
and no traceback. A nonzero exit leaves the output tree as it was (no new
file or directory, no staged or temporary file); exit 0 names only
complete files, and neither they nor linkbudget's stdout print a NaN or an
infinity.
"""

import contextlib
import copy
import io
import json
import random
import re
import traceback
from pathlib import Path

import pytest

from balloonlink import cli
from balloonlink.scenario import default_scenario_path

SEED = 20190101
CASES = 300

# Stands for an int of over 4300 digits, which json.dumps cannot write.
_BIG = "<big int>"
_BIG_DIGITS = "1" + "0" * 4400

VALUE_POOL = (
    0, 0.0, -1, -2.5, -1e-300, 5e-324, 1e-310, 1e300, -1e300, _BIG, "-" + _BIG,
    "7", "", True, None, [], {}, [1.0], {"x": 1}, float("nan"), float("inf"),
)
FLAG_POOL = ("0", "-1", "2.5", "7", "127", "5e-324", "1e300", "-1e300", "nan", "inf", "abc", "", _BIG_DIGITS)
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO}
# a NaN or an infinity, as fmt and :g print them
NON_FINITE = re.compile(rb"\b(?:nan|inf)\b")


def _paths(node, prefix=()):
    """Every key path into the scenario: sections, fields and list elements."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


def _mutate(rng: random.Random, base: dict):
    scenario = copy.deepcopy(base)
    if rng.random() < 0.03:
        return copy.deepcopy(rng.choice(VALUE_POOL))  # a root that is not an object
    for _ in range(rng.randint(0, 3)):
        *parents, key = rng.choice(list(_paths(scenario)))
        parent = scenario
        for step in parents:
            parent = parent[step]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[key]
        else:
            # a copy, so no later mutation writes into the pool's lists
            # and dicts or makes a cycle through a shared one
            parent[key] = copy.deepcopy(rng.choice(VALUE_POOL))
    return scenario


def _scenario_text(scenario) -> str:
    text = json.dumps(scenario)
    return text.replace(f'"-{_BIG}"', "-" + _BIG_DIGITS).replace(f'"{_BIG}"', _BIG_DIGITS)


def _flags(rng: random.Random, command: str) -> list[str]:
    argv = []
    for flag, keywords in cli.PRODUCTS[command].flags.items():
        if rng.random() < 0.5:
            continue
        if "choices" in keywords:
            value = rng.choice([*keywords["choices"], "fig9"])
        elif flag == "--densities":
            value = ",".join(rng.choice(FLAG_POOL) for _ in range(rng.randint(1, 3)))
        else:
            value = rng.choice(FLAG_POOL)
        argv.append(f"{flag}={value}")
    return argv


def _tree(outputs) -> dict:
    """The entries a case may touch -> what would show a new, replaced or changed one.

    That is every entry of `outputs` and of `outputs/existing`; the other
    output directories are fresh per case.
    """
    entries = [*outputs.iterdir(), *(outputs / "existing").iterdir()]
    return {path: (path.stat().st_ino, path.stat().st_mtime_ns) for path in entries}


def _call(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "uncaught: " + traceback.format_exc()
    return code, stdout.getvalue(), stderr.getvalue()


def check_contract(seed: int, tmp_path: Path) -> None:
    """Run CASES fuzz cases drawn from seed in tmp_path and check each keeps the contract."""
    rng = random.Random(seed)
    base = json.loads(default_scenario_path().read_text(encoding="utf-8"))
    scenario_path, outputs = tmp_path / "scenario.json", tmp_path / "outputs"
    (outputs / "existing").mkdir(parents=True)
    (outputs / "blocker").write_text("not a directory", encoding="utf-8")
    codes = []
    for case in range(CASES):
        text = _scenario_text(_mutate(rng, base))
        scenario_path.write_text(text, encoding="utf-8")
        command = rng.choice(list(cli.PRODUCTS))
        out = outputs / rng.choice(["existing", "blocker", f"new{case}/sub"])
        argv = [command, "--scenario", str(scenario_path), "--out", str(out), *_flags(rng, command)]
        before = _tree(outputs)
        code, stdout, stderr = _call(argv)
        where = f"case {case}: {argv}\nscenario: {text[:300]}\nstderr: {stderr}"
        assert code in EXIT_CODES, f"exit {code!r}; {where}"
        assert "Traceback" not in stderr, where
        assert sum("error:" in line for line in stderr.splitlines()) <= 1, where
        after = _tree(outputs)
        assert not [p for p in after if p.name.endswith((".tmp", ".staged"))], where
        if code != cli.EXIT_OK:
            assert after == before, where
        for line in stdout.splitlines():
            if line.startswith("wrote "):
                content = Path(line.removeprefix("wrote ")).read_bytes()
                assert content.endswith(b"\n") and b"\n\n" not in content, where
                assert not NON_FINITE.search(content), f"{line}: {content[:300]!r}; {where}"
        if code == cli.EXIT_OK and command == "linkbudget":
            assert not NON_FINITE.search(stdout.encode()), f"stdout: {stdout}; {where}"
        codes.append(code)
    # the pool reaches every exit code, so no branch of the contract is vacuous
    assert set(codes) == EXIT_CODES


# At 23, 24 and 29 a case writes into a pool list or dict it drew before,
# which builds a cycle unless each draw is a copy. CI runs check_contract
# over seeds 1-40.
@pytest.mark.parametrize("seed", [SEED, 23, 24, 29])
def test_seeded_cli_cases_keep_the_contract(seed, tmp_path):
    check_contract(seed, tmp_path)


# The differential check of cli._parse_quick against argparse. Each argv is
# a command, a bad command, -h or --version, followed by pairs drawn from
# exact, abbreviated, `--flag=value` and foreign flags, `--`, help, and
# values argparse may read as a flag, refuse or convert.
DIFF_SEED = 20190102
DIFF_CASES = 3000
HEADS = (*cli.PRODUCTS, "bogus", "-h", "--version")
VALUES = ("7", "-5", "fig4", "fig9", "abc", "", "1,,2", "1e400", "nan", " 3 ", "2.5", "-", "--", "out/dir")
OTHER_TOKENS = ("--", "-h", "--help", "--version", "--out=x", "--num", "--sc", "--figure=fig4", "fig4", "--bogus")


def _token_pairs(rng: random.Random, head: str) -> list[str]:
    flags = [*cli._COMMON_FLAGS, *cli.PRODUCTS.get(head, cli.PRODUCTS["coverage"]).flags]
    argv = []
    for _ in range(rng.randint(0, 4)):
        draw = rng.random()
        if draw < 0.7:
            flag = rng.choice(flags)
        elif draw < 0.8:
            flag = rng.choice(flags)[: rng.randint(3, 6)]  # an abbreviation, or the flag itself
        elif draw < 0.9:
            flag = rng.choice([f for product in cli.PRODUCTS.values() for f in product.flags])
        else:
            flag = rng.choice(OTHER_TOKENS)
        argv.append(flag)
        if rng.random() < 0.95:
            argv.append(rng.choice(VALUES))
    return argv


def _argparse(parser, argv):
    """argparse's namespace for argv, or None where it exits (help, version, usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


def _same(quick, parsed) -> bool:
    # repr compares NaN equal to NaN, and an int unequal to an equal float
    return parsed is not None and repr(sorted(vars(quick).items())) == repr(sorted(vars(parsed).items()))


def test_quick_parse_declines_or_agrees_with_argparse():
    rng = random.Random(DIFF_SEED)
    parser = cli.build_parser()
    taken = declined = 0
    for _ in range(DIFF_CASES):
        head = rng.choice(HEADS)
        argv = [head, *_token_pairs(rng, head)]
        quick = cli._parse_quick(argv)
        if quick is None:
            declined += 1
            continue
        taken += 1
        parsed = _argparse(parser, argv)
        assert _same(quick, parsed), f"{argv}: quick {quick} != argparse {parsed}"
    # both branches are exercised, so neither side of the check is vacuous
    assert taken > DIFF_CASES // 10 and declined > DIFF_CASES // 10, (taken, declined)


def test_every_benchmark_job_takes_the_quick_path(tmp_path):
    from test_corpus import SEEDS, scenarios

    parser = cli.build_parser()
    for workload in scenarios.WORKLOADS:
        for seed in SEEDS:
            work = tmp_path / workload / str(seed)
            for job in scenarios.generate(workload, seed, work):
                argv = job.argv(work, work / "out")
                quick = cli._parse_quick(argv)
                assert quick is not None, f"{workload}/{seed} {job.label}: {argv} left to argparse"
                assert _same(quick, _argparse(parser, argv)), argv
