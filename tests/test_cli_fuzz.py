"""Seeded fuzz of the CLI contract, run in-process through cli.main.

Each case mutates the bundled scenario with values from a pool of edge
cases, picks a random subcommand with random flags, and checks the
contract every input must keep: exit 0, 1 or 2, at most one `error:` line
and no traceback. A nonzero exit leaves the output tree as it was (no new
file or directory, no staged or temporary file); exit 0 names only
complete files.
"""

import contextlib
import copy
import io
import json
import random
import traceback
from pathlib import Path

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


def _paths(node, prefix=()):
    """Every key path into the scenario: sections, fields and list elements."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


def _mutate(rng: random.Random, base: dict):
    scenario = copy.deepcopy(base)
    if rng.random() < 0.03:
        return rng.choice(VALUE_POOL)  # a root that is not an object
    for _ in range(rng.randint(0, 3)):
        *parents, key = rng.choice(list(_paths(scenario)))
        parent = scenario
        for step in parents:
            parent = parent[step]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = rng.choice(VALUE_POOL)
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


def test_seeded_cli_cases_keep_the_contract(tmp_path):
    rng = random.Random(SEED)
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
        codes.append(code)
    # the pool reaches every exit code, so no branch of the contract is vacuous
    assert set(codes) == EXIT_CODES
