"""Fold the reports of finished benchmark runs into ``baseline.json``.

    python3 perfbench/baseline.py [REPORT.json ...]

Each ``run.py`` invocation leaves ``.perfbench-work/report-<workload>-s<seed>
-t<trace>.json``; with no arguments every such report is read.  For each
workload the baseline keeps the median and quartiles of every end-to-end
metric over the untraced runs, the per-layer metrics of the traced runs, and
the artifact digests of the first pass of the lowest-seeded run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, combined_digest  # noqa: E402


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(paths):
    paths = paths or sorted(str(p) for p in (HERE.parent / ".perfbench-work").glob("report-*.json"))
    runs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    out = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workloads": {},
    }
    for name, wl in WORKLOADS.items():
        mine = [r for r in runs if r["args"]["workload"] == name]
        if not mine:
            continue
        plain = [r for r in mine if r["args"]["trace"] == 0]
        traced = [r for r in mine if r["args"]["trace"] == 1]
        entry = {"why": wl.why, "jobs": wl.jobs,
                 "seeds": sorted({r["args"]["seed"] for r in mine}),
                 "run_seconds": sorted({r["args"]["seconds"] for r in mine}),
                 "correct": all(not r["problems"] for r in mine)}
        if plain:
            entry["end_to_end"] = {
                m: _summary([r["metrics"][m] for r in plain])
                for m in plain[0]["metrics"]}
        if traced:
            # counts differ between ic-sweep seeds, so keep one seed's runs
            seed = min(r["args"]["seed"] for r in traced)
            traced = [r for r in traced if r["args"]["seed"] == seed]
            first = traced[0]["metrics"]
            entry["per_layer_seed"] = seed
            entry["per_layer"] = {
                m: (first[m] if isinstance(first[m], int)
                    else statistics.median([r["metrics"][m] for r in traced]))
                for m in first}
        combined = {r["args"]["seed"]: combined_digest(
            {s: c["digest"] for s, c in r["passes"][0]["configs"].items()})
            for r in mine}
        ref = min(mine, key=lambda r: r["args"]["seed"])
        configs = ref["passes"][0]["configs"]
        entry["artifacts"] = {
            "seed": ref["args"]["seed"],
            "all": combined[ref["args"]["seed"]],
            "same_for_every_seed": len(set(combined.values())) == 1,
            # per file for a few configs, one combined digest each otherwise
            "configs": ({s: c["digests"] for s, c in configs.items()}
                        if len(configs) <= 8 else
                        {s: c["digest"] for s, c in configs.items()}),
        }
        out["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
