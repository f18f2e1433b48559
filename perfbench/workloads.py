"""Workload definitions: seeded config generation, outcome checks, digests.

A workload is a list of experiment configs that one ``canard-ctl run``
process executes.  The benchmark writes the configs as JSON files; the
program sees nothing else.  After each pass every config's artifacts are
checked by experiment id, from its ``metrics.json`` and ``trajectory.csv``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

MMO_PATTERN = "3L:0.75:0.01,4S:1.25:-0.01"
MMO_REPEAT = 4

# ic-sweep composition: fixed counts so every seed asks for the same kind
# and amount of work; only the starts move with the seed
SWEEP_K2 = 96
SWEEP_FOLD_FAST = 48
SWEEP_VERIFY = 4
SWEEP_FOLD_T_END = 50.0

H_GAP_LIMIT = 1e-7  # the k2 convergence watcher stops at |H2 - h| = 1e-7


@dataclass(frozen=True)
class Config:
    stem: str
    doc: Dict[str, object]

    @property
    def experiment(self) -> str:
        return str(self.doc["experiment"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int], List[Config]]
    # worker processes handed to `canard-ctl run --jobs`; 1 runs in-process
    jobs: int


def _fold_plant(seed: int) -> List[Config]:
    # registered defaults; the seed has nothing to vary here
    return [Config(e, {"experiment": e})
            for e in ("fold-fast", "fold-fast-hot", "fold-slow", "k2", "k2-hot")]


def _vdp_plant(seed: int) -> List[Config]:
    return [
        Config("k1-vdp", {"experiment": "k1-vdp"}),
        Config("vdp-mmo", {"experiment": "vdp-mmo",
                           "params": {"pattern": MMO_PATTERN,
                                      "repeat": MMO_REPEAT}}),
    ]


def _chart_start(rng: random.Random) -> List[float]:
    # the region the k2 runner samples its own ten starts from
    while True:
        x2, y2 = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        if abs(x2) + abs(y2) >= 0.1:
            return [x2, y2]


def _ic_sweep(seed: int) -> List[Config]:
    rng = random.Random(seed)
    out = []
    for i in range(SWEEP_K2):
        out.append(Config(f"k2-{i:03d}", {
            "experiment": "k2", "initial_conditions": [_chart_start(rng)]}))
    for i in range(SWEEP_FOLD_FAST):
        start = [0.2 + rng.uniform(-0.05, 0.05), 0.3 + rng.uniform(-0.05, 0.05)]
        out.append(Config(f"fold-fast-{i:03d}", {
            "experiment": "fold-fast", "params": {"t_end": SWEEP_FOLD_T_END},
            "initial_conditions": [start]}))
    for i in range(SWEEP_VERIFY):
        out.append(Config(f"verify-{i}", {"experiment": "verify"}))
    rng.shuffle(out)
    return out


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fold-plant",
             "long fold and central-chart integrations of the level-set laws "
             "in one process; composite_u and mmo do no work here",
             _fold_plant, 1),
    Workload("vdp-plant",
             "k1-vdp and a supervised LLLSSSS x4 run: integrate_vector, "
             "composite_u, one integration per MMO loop and a multi-MB "
             "trajectory; eval_level_term is never called",
             _vdp_plant, 1),
    Workload("ic-sweep",
             "148 short seeded k2, fold-fast and verify configs in one batch "
             "at --jobs 2, where start-up, validation, artifacts and pool "
             "dispatch weigh as much as integration",
             _ic_sweep, min(2, len(os.sched_getaffinity(0)))),
)}


def write_configs(workload: Workload, seed: int, directory: Path) -> List[Config]:
    directory.mkdir(parents=True, exist_ok=True)
    configs = workload.make(seed)
    for cfg in configs:
        (directory / f"{cfg.stem}.json").write_text(
            json.dumps(cfg.doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return configs


# outcome checks ------------------------------------------------------------

def _expected_labels(pattern: str, repeat: int) -> str:
    # "3L:0.75:0.01,4S:1.25:-0.01" asks for LLLSSSS per repetition
    cycle = ""
    for segment in pattern.split(","):
        head = segment.split(":")[0].strip()
        cycle += int(head[:-1]) * head[-1]
    return cycle * repeat


def _result_problem(cfg: Config, results: Dict[str, object]) -> Optional[str]:
    exp = cfg.experiment
    if exp in ("fold-fast", "fold-slow"):
        if results.get("time_below") is None:
            return "time_below is null"
    elif exp == "fold-fast-hot":
        if results.get("compensated", {}).get("time_below") is None:
            return "compensated time_below is null"
    elif exp in ("k2", "k2-hot"):
        gap = results.get("max_terminal_h_gap")
        if gap is None or not gap <= H_GAP_LIMIT:
            return f"max_terminal_h_gap {gap!r} > {H_GAP_LIMIT}"
    elif exp == "k1-vdp":
        ratio = results.get("contraction_ratio")
        if ratio is None or not ratio < 1.0:
            return f"contraction_ratio {ratio!r} >= 1"
    elif exp == "vdp-mmo":
        params = cfg.doc.get("params", {})
        want = _expected_labels(str(params.get("pattern", MMO_PATTERN)),
                                int(params.get("repeat", 1)))
        if results.get("labels") != want:
            return f"labels {results.get('labels')!r} != {want!r}"
    elif exp == "verify":
        if results.get("failures") != 0:
            return f"verify failures {results.get('failures')!r}"
    return None


def check_config(cfg: Config, outdir: Path, exit_code: int,
                 read_trajectory_csv) -> Optional[str]:
    """Return why a config's run failed its outcome check, or None."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads((outdir / "metrics.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"metrics.json unreadable: {exc}"
    if doc.get("status") != "ok":
        return f"status {doc.get('status')!r}"
    problem = _result_problem(cfg, doc.get("results", {}))
    if problem:
        return problem
    if cfg.experiment != "verify":
        path = outdir / "trajectory.csv"
        try:
            rows = read_trajectory_csv(path)
            with open(path, encoding="utf-8") as fh:
                lines = sum(1 for line in fh if line.strip())
        except (OSError, ValueError) as exc:
            return f"trajectory.csv does not re-parse: {exc}"
        if len(rows) != lines - 1 or len(rows) < 2:
            return f"trajectory.csv re-parses to {len(rows)} rows of {lines - 1}"
    return None


# artifact digests ------------------------------------------------------------

def _metrics_bytes(path: Path) -> bytes:
    # runtime_s is wall-clock time inside metrics.json; everything else in
    # the file is deterministic
    doc = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc.get("results"), dict):
        doc["results"].pop("runtime_s", None)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def artifact_digests(outdir: Path) -> Dict[str, str]:
    """SHA-256 of every CSV and SVG and of metrics.json without runtime_s."""
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.name == "metrics.json":
            data = _metrics_bytes(path)
        elif path.suffix in (".csv", ".svg"):
            data = path.read_bytes()
        else:
            continue
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


def combined_digest(digests: Dict[str, str]) -> str:
    text = "".join(f"{name} {d}\n" for name, d in sorted(digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
