"""Seeded workloads: scenario files plus the CLI argv list of one cycle.

Every value comes from ``random.Random`` seeded with the workload name and
the seed, and files are written with sorted keys, so one seed always gives
byte-identical scenario files and the same argv list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-default", "coverage-scaling", "fine-sweeps")

# Full hexagonal rings: 0, 1, 2, 4 and 6 rings around the centre cell.
FULL_RING_COUNTS = (1, 7, 19, 61, 127)
FINE_STEPS = (101, 1001, 10001)
DEFAULT_STEPS = 101


@dataclass(frozen=True)
class Job:
    """One CLI process: a subcommand, its scenario and its extra flags."""

    label: str
    command: str
    scenario_file: str
    scenario: dict
    flags: tuple[str, ...] = ()

    def argv(self, work_dir: Path, out_dir: Path) -> list[str]:
        return [
            self.command,
            "--scenario",
            str(work_dir / self.scenario_file),
            "--out",
            str(out_dir),
            *self.flags,
        ]


def _scenario(rng: random.Random, steps: int, num_distances: int) -> dict:
    """A variant of the bundled default scenario with seeded physics inputs."""
    gain_db = round(rng.uniform(12.0, 20.0), 3)
    freq_mhz = round(rng.uniform(700.0, 1400.0), 1)
    altitude_min = round(rng.uniform(120.0, 220.0), 2)
    return {
        "transmitter": {
            "power_w": round(rng.uniform(5.0, 40.0), 3),
            "gain_db": gain_db,
            "gain_linear": round(10.0 ** (gain_db / 10.0), 4),
            "freq_mhz": freq_mhz,
            "antenna_dim_m": 1.0,
        },
        "geometry": {
            "altitude_m": round(rng.uniform(100.0, 300.0), 2),
            "ground_offset_m": round(rng.uniform(0.0, 40.0), 2),
            "bs_antenna_height_m": round(rng.uniform(100.0, 250.0), 1),
            "rx_antenna_height_m": round(rng.uniform(1.0, 3.0), 2),
            "rx_gain_db": round(rng.uniform(0.0, 5.0), 2),
        },
        "thresholds": {"limit_w_m2": freq_mhz / 200.0, "caution_fraction": 0.1},
        "green": {
            "hours_per_year": 8760,
            "terrestrial": {
                "source_kind": "DIESEL",
                "fuel_liters_per_hour": round(rng.uniform(1.0, 3.0), 3),
                "emission_factor_kg_per_liter": 2.68,
            },
            "balloon": {"source_kind": "SOLAR"},
        },
        "sweeps": {
            "ground_offset": {"min": 0.0, "max": round(rng.uniform(10.0, 50.0), 2), "steps": steps},
            "altitude": {
                "min": altitude_min,
                "max": round(altitude_min + rng.uniform(100.0, 300.0), 2),
                "steps": steps,
            },
            "range": {
                "min": round(rng.uniform(5.0, 20.0), 2),
                "max": round(rng.uniform(300.0, 1000.0), 2),
                "steps": steps,
            },
            "distances_m": [round(rng.uniform(1.0, 1000.0), 3) for _ in range(num_distances)],
        },
        "output_dir": ".",
    }


def _path_loss_flag(rng: random.Random) -> tuple[str, str]:
    return ("--max-path-loss-db", repr(round(rng.uniform(120.0, 150.0), 4)))


def _green_flags(rng: random.Random) -> tuple[str, ...]:
    # keep (balloon/terrestrial)^2 away from an integer, where the
    # replaced-station count would hinge on rounding
    while True:
        balloon = round(rng.uniform(5.0, 15.0), 3)
        terrestrial = round(rng.uniform(0.5, 2.0), 3)
        ratio_sq = (balloon / terrestrial) ** 2
        if abs(ratio_sq - round(ratio_sq)) > 1e-6:
            break
    return ("--balloon-radius-km", repr(balloon), "--terrestrial-radius-km", repr(terrestrial))


def _zone_flags(rng: random.Random, scenario: dict) -> tuple[str, ...]:
    # one density well inside each zone: SAFE, CAUTION, EXCEEDS_LIMIT
    limit = scenario["thresholds"]["limit_w_m2"]
    densities = [
        limit * rng.uniform(0.001, 0.05),
        limit * rng.uniform(0.2, 0.8),
        limit * rng.uniform(1.5, 3.0),
    ]
    return ("--densities", ",".join(repr(round(d, 6)) for d in densities))


def _cli_default(rng: random.Random) -> tuple[dict[str, dict], list[Job]]:
    scenario = _scenario(rng, DEFAULT_STEPS, 3)
    name = "scenario.json"
    jobs = [
        Job("table1", "table1", name, scenario),
        Job("exposure", "exposure", name, scenario),
        Job("coverage N=7", "coverage", name, scenario, (*_path_loss_flag(rng), "--num-balloons", "7")),
        Job("green", "green", name, scenario, _green_flags(rng)),
        Job("zones", "zones", name, scenario, _zone_flags(rng, scenario)),
        Job("linkbudget", "linkbudget", name, scenario),
    ]
    return {name: scenario}, jobs


def _coverage_scaling(rng: random.Random) -> tuple[dict[str, dict], list[Job]]:
    scenario = _scenario(rng, DEFAULT_STEPS, 3)
    name = "scenario.json"
    jobs = [
        Job(f"coverage N={n}", "coverage", name, scenario, (*_path_loss_flag(rng), "--num-balloons", str(n)))
        for n in FULL_RING_COUNTS
    ]
    return {name: scenario}, jobs


def _fine_sweeps(rng: random.Random) -> tuple[dict[str, dict], list[Job]]:
    files: dict[str, dict] = {}
    jobs = []
    for steps in FINE_STEPS:
        name = f"scenario-{steps}.json"
        files[name] = _scenario(rng, steps, steps)
        jobs.append(Job(f"exposure steps={steps}", "exposure", name, files[name]))
        jobs.append(Job(f"table1 steps={steps}", "table1", name, files[name]))
    return files, jobs


_BUILDERS = {
    "cli-default": _cli_default,
    "coverage-scaling": _coverage_scaling,
    "fine-sweeps": _fine_sweeps,
}


def generate(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """Write the workload's scenario files into work_dir; return one cycle of jobs."""
    rng = random.Random(f"{workload}:{seed}")
    files, jobs = _BUILDERS[workload](rng)
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, scenario in files.items():
        text = json.dumps(scenario, indent=2, sort_keys=True) + "\n"
        (work_dir / name).write_text(text, encoding="utf-8", newline="\n")
    return jobs
