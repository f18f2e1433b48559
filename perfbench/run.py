"""canard-ctl benchmark: end-to-end passes of the CLI, and a traced variant.

    python3 perfbench/run.py --workload fold-plant --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is taken from ``src``
exactly as the Tier-1 tests take it (``PYTHONPATH=src``), and nothing is
installed.  Workloads are defined in ``workloads.py``.

With ``--trace 0`` each pass is one fresh ``python -m canardctl.cli run``
process over the workload's generated configs, so every pass pays
interpreter start, import and config validation the way a CLI user does.
Passes repeat while another one fits into ``--seconds``; the medians are
reported.  ``setup_s`` is the median over fresh processes that only import the
CLI and load and validate the configs, three before the first pass and two
after every pass, so that they see the same host conditions as the passes.

A shared VM changes the speed it gives a CPU by 20 % or more within seconds,
so raw seconds of one pass and the next differ by as much, and runs minutes
apart more.  The run therefore pins itself to as many CPUs as the workload
has jobs and keeps a speed probe (``probe.py``) at nice 19 on each of them;
the probes get a thin slice of CPU time spread over every pass.  ``wall_s``,
``cpu_s`` and ``setup_s`` are raw seconds times the probes' speed during the
pass (or the group of set-up probes), divided by ``NOMINAL_SPEED``: seconds
on a host that runs the probe loop at that speed.  The probes take about
1.5 % of the CPU from the program.  Raw seconds and probe speeds are printed
and kept in the run's report.

With ``--trace 1`` the run makes one untraced CLI pass, then alternates
in-process ``plain`` and ``trace`` passes (see ``inproc.py``) and reports
per-layer counters, self times and the tracing overhead.

Every pass checks each config's exit code and outcome (see
``workloads.check_config``) and digests its artifacts; a config that fails
counts in ``failed``, and artifacts that differ between passes of one run, or
counters that differ between traced and plain passes, make the run incorrect.
The last line of standard output is the JSON result.  Scratch files live
under ``.perfbench-work`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    WORKLOADS,
    artifact_digests,
    check_config,
    combined_digest,
    write_configs,
)
from probe import LAYOUT  # noqa: E402

SETUP_FIRST = 3  # before any pass; they also prove the program imports
SETUP_PER_PASS = 2
MIN_PASSES = 3
# probe iterations per probe CPU second on the 2-vCPU Xeon of baseline.json,
# a typical value when its host was quiet; it only scales the timings
NOMINAL_SPEED = 3.0e6
DEADLINE_S = 170.0  # every child is killed by then; a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER_UNITS = {
    "sim.integrate_calls": "count", "sim.field_evals": "count",
    "sim.accepted_steps": "count", "sim.rejected_steps": "count",
    "sim.accept_ratio": "ratio", "sim.self_s": "s", "sim.self_us_per_step": "us",
    "sim.watcher_evals": "count", "sim.events": "count", "sim.watcher_s": "s",
    "sim.convergence_s": "s",
    "models.rhs_evals": "count", "models.self_s": "s",
    "blowup.field_evals": "count", "blowup.self_s": "s",
    "controllers.evals": "count", "controllers.evals_per_field_eval": "ratio",
    "controllers.self_s": "s",
    "core.level_evals": "count", "core.self_s": "s",
    "mmo.loops": "count", "mmo.self_s": "s",
    "svgplot.files": "count", "svgplot.bytes": "bytes", "svgplot.self_s": "s",
    "verify.self_s": "s",
    "cli.configs": "count", "cli.csv_bytes": "bytes", "cli.csv_s": "s",
    "cli.metrics_s": "s", "cli.self_s": "s", "cli.worker_idle_frac": "frac",
    "trace.overhead_frac": "frac",
}
# counters a plain pass reads from returned trajectories; a traced pass must
# reproduce them exactly
CROSS_CHECKED = ("cli.configs", "sim.integrate_calls", "sim.accepted_steps",
                 "sim.events")

_EXIT_LINE = re.compile(r"^(.*): exit (-?\d+) \(")


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, log, deadline):
    """Run a child to completion; return (exit code, wall s, cpu s, rss MB)."""
    report = f"{log}.measure.json"
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run([sys.executable, str(HERE / "measure.py"), report, str(timeout),
                    str(log), "--", *argv], cwd=ROOT, env=_env(), check=True)
    with open(report, encoding="utf-8") as fh:
        m = json.load(fh)
    if m["timed_out"]:
        raise BenchError(f"{argv[1:4]} still running at the deadline; killed")
    return m["exit"], m["wall_s"], m["cpu_s"], m["rss_mb"]


class Probes:
    """One host-speed probe (probe.py) per CPU the run is pinned to."""

    def __init__(self, cpus, directory):
        self.shared, self.procs = [], []
        try:
            for cpu in cpus:
                path = directory / f"probe{cpu}.bin"
                path.write_bytes(bytes(LAYOUT.size))
                with open(path, "r+b") as fh:
                    self.shared.append(mmap.mmap(fh.fileno(), LAYOUT.size))
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "probe.py"), str(path), str(cpu)]))
            deadline = time.monotonic() + 10.0
            while any(LAYOUT.unpack(m[:])[0] == 0.0 for m in self.shared):
                if time.monotonic() > deadline:
                    raise BenchError("a speed probe did not start")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def read(self):
        """(iterations, probe CPU seconds) of each probe."""
        out = []
        for m in self.shared:
            while True:
                seq, data, again = m[:8], m[8:], m[:8]
                if seq == again and LAYOUT.unpack(seq + data)[0] % 2 == 0:
                    break
                time.sleep(0.0005)  # the probe is inside a write
            out.append(LAYOUT.unpack(seq + data)[1:])
        return out

    def speed(self, before):
        """Probe iterations per probe CPU second since `before`, averaged over
        the CPUs; None when no probe got CPU time in between.  Not pooled: a
        probe on a CPU the workload leaves idle runs flat out and would
        outweigh the probe next to the work."""
        speeds = [(d1 - d0) / (c1 - c0)
                  for (d0, c0), (d1, c1) in zip(before, self.read()) if c1 > c0]
        return sum(speeds) / len(speeds) if speeds else None

    def stop(self):
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        for m in self.shared:
            m.close()


def _read_trajectory_csv(path):
    # the program's own reader: artifacts must re-parse through it
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from canardctl.cli import read_trajectory_csv
    return read_trajectory_csv(path)


def _tail(path, lines=20):
    try:
        return "\n".join(Path(path).read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


class Run:
    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.seconds = args.seconds
        self.started = time.perf_counter()
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.configs = write_configs(self.workload, args.seed, self.dir / "configs")
        self.paths = [str(self.dir / "configs" / f"{c.stem}.json") for c in self.configs]
        self.passes = []
        self.problems = []
        self.setup = []  # wall seconds of each set-up probe
        self.setup_speed = []  # probe speed over its group of set-up probes
        self.probes = None  # Probes, in untraced runs

    def setup_probes(self, count):
        before = self.probes.read() if self.probes else None
        for _ in range(count):
            log = self.dir / f"setup{len(self.setup)}.log"
            code, wall, _, _ = spawn(
                [sys.executable, str(HERE / "inproc.py"), "setup", "-", *self.paths],
                log, self.deadline)
            if code != 0:
                raise BenchError(f"set-up probe exited {code}:\n{_tail(log)}")
            self.setup.append(wall)
        self.setup_speed += [self.probes.speed(before) if self.probes else None] * count

    def one_pass(self, kind):
        """kind: 'cli' (untraced CLI process), 'plain' or 'trace' (inproc)."""
        idx = len(self.passes)
        out = self.dir / f"pass{idx}"
        log = self.dir / f"pass{idx}.log"
        report = self.dir / f"pass{idx}.json"
        cli_args = ["run", *self.paths, "--out", str(out)]
        # the traced pass runs in one process so every counter stays in it
        if kind != "trace" and self.workload.jobs > 1:
            cli_args += ["--jobs", str(self.workload.jobs)]
        if kind == "cli":
            argv = [sys.executable, "-m", "canardctl.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "inproc.py"), kind, str(report), *cli_args]
        before = self.probes.read() if self.probes else None
        code, wall, cpu, rss = spawn(argv, log, self.deadline)
        speed = self.probes.speed(before) if self.probes else None
        codes = {}
        with open(log, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                m = _EXIT_LINE.match(line)
                if m:
                    codes[m.group(1)] = int(m.group(2))
        result = {"kind": kind, "exit": code, "wall_s": wall, "cpu_s": cpu,
                  "rss_mb": rss, "speed": speed, "configs": {}}
        if kind != "cli":
            if not report.is_file():
                raise BenchError(f"{kind} pass wrote no report:\n{_tail(log)}")
            result["report"] = json.loads(report.read_text(encoding="utf-8"))
        for cfg, path in zip(self.configs, self.paths):
            d = out / cfg.stem  # a batch writes one subdirectory per config
            problem = check_config(cfg, d, codes.get(path, code),
                                   _read_trajectory_csv)
            digests = artifact_digests(d) if d.is_dir() else {}
            result["configs"][cfg.stem] = {"problem": problem, "digests": digests,
                                           "digest": combined_digest(digests)}
            if problem:
                self.problems.append(f"pass {idx} ({kind}) {cfg.stem}: {problem}")
        shutil.rmtree(out, ignore_errors=True)
        self.passes.append(result)
        # set-up probes spread over the run see the same host speed as passes
        self.setup_probes(SETUP_PER_PASS)

    def repeat(self, kinds, first):
        """Run the `first` passes, then cycle through `kinds` while another
        pass still fits into --seconds, counted from the start of the run."""
        t0 = time.perf_counter()
        for kind in first:
            self.one_pass(kind)
        i = 0
        while True:
            per = (time.perf_counter() - t0) / len(self.passes)
            elapsed = time.perf_counter() - self.started
            if len(self.passes) >= MIN_PASSES and elapsed + per > self.seconds:
                return
            if time.monotonic() + 2 * per > self.deadline:
                return
            self.one_pass(kinds[i % len(kinds)])
            i += 1

    def determinism_problems(self):
        ref = self.passes[0]["configs"]
        out = []
        for p_idx, p in enumerate(self.passes[1:], 1):
            for stem, rec in p["configs"].items():
                if rec["digests"] and ref[stem]["digests"] and \
                        rec["digest"] != ref[stem]["digest"]:
                    out.append(f"pass {p_idx} ({p['kind']}) {stem}: artifacts "
                               f"differ from pass 0")
        return out


def _scaled(seconds, speeds):
    """Median of seconds scaled to NOMINAL_SPEED, over the intervals in which
    the probes ran."""
    scaled = [s * v / NOMINAL_SPEED for s, v in zip(seconds, speeds) if v]
    if not scaled:
        raise BenchError("the speed probes got no CPU time")
    return median(scaled)


def end_to_end(run):
    passes = run.passes
    speeds = [p["speed"] for p in passes]
    attempted = len(run.configs) * len(passes)
    return {
        "wall_s": _scaled([p["wall_s"] for p in passes], speeds),
        "cpu_s": _scaled([p["cpu_s"] for p in passes], speeds),
        "setup_s": _scaled(run.setup, run.setup_speed),
        # a pass peaks near one of two values about 1 MB apart at random, so
        # a median of a few passes flips between them; the peak over passes
        # does not
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "ok_frac": 1.0 - len(run.problems) / attempted,
    }


def per_layer(run):
    plain = [p["report"] for p in run.passes if p["kind"] == "plain"]
    traced = [p["report"] for p in run.passes if p["kind"] == "trace"]
    counts = traced[0]["counts"]  # identical in every traced pass

    def c(name):
        return counts.get(name, 0)

    def t(layer):
        return median([r["self_s"].get(layer, 0.0) for r in traced])

    def ratio(a, b):
        return a / b if b else 0.0

    def busy(reports):
        return median([sum(r["busy_s"]) for r in reports])

    attempts = c("sim.attempted_steps")
    return {
        "sim.integrate_calls": c("sim.integrate_calls"),
        "sim.field_evals": c("sim.field_evals"),
        "sim.accepted_steps": c("sim.accepted_steps"),
        "sim.rejected_steps": attempts - c("sim.accepted_steps"),
        "sim.accept_ratio": ratio(c("sim.accepted_steps"), attempts),
        "sim.self_s": t("sim"),
        "sim.self_us_per_step": 1e6 * ratio(t("sim"), attempts),
        "sim.watcher_evals": c("sim.watcher_evals"),
        "sim.events": c("sim.events"),
        "sim.watcher_s": t("sim.watcher"),
        "sim.convergence_s": t("sim.convergence"),
        "models.rhs_evals": c("models.rhs_evals"),
        "models.self_s": t("models"),
        "blowup.field_evals": c("blowup.field_evals"),
        "blowup.self_s": t("blowup"),
        "controllers.evals": c("controllers.evals"),
        "controllers.evals_per_field_eval": ratio(c("controllers.evals"),
                                                  c("sim.field_evals")),
        "controllers.self_s": t("controllers"),
        "core.level_evals": c("core.level_evals"),
        "core.self_s": t("core"),
        "mmo.loops": c("mmo.loops"),
        "mmo.self_s": t("mmo"),
        "svgplot.files": c("svgplot.files"),
        "svgplot.bytes": c("svgplot.bytes"),
        "svgplot.self_s": t("svgplot"),
        "verify.self_s": t("verify"),
        "cli.configs": c("cli.configs"),
        "cli.csv_bytes": c("cli.csv.bytes"),
        "cli.csv_s": t("cli.csv"),
        "cli.metrics_s": t("cli.metrics"),
        "cli.self_s": t("cli"),
        # share of the batch's worker time not spent inside a config
        "cli.worker_idle_frac": median(
            [1.0 - sum(r["busy_s"]) / (run.workload.jobs * r["wall_s"]) for r in plain]),
        "trace.overhead_frac": busy(traced) / busy(plain) - 1.0,
    }


def count_problems(run):
    traced = [p["report"]["counts"] for p in run.passes if p["kind"] == "trace"]
    plain = [p["report"]["counts"] for p in run.passes if p["kind"] == "plain"]
    out = []
    for i, counts in enumerate(traced[1:], 1):
        if counts != traced[0]:
            out.append(f"traced pass {i} counters differ from traced pass 0")
    for i, counts in enumerate(plain):
        for name in CROSS_CHECKED:
            if counts.get(name, 0) != traced[0].get(name, 0):
                out.append(f"plain pass {i}: {name} {counts.get(name, 0)} != "
                           f"traced {traced[0].get(name, 0)}")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "canardctl" / "cli.py").is_file():
        print(f"error: no canardctl sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        if not args.trace:
            # the workload's processes and one probe share each CPU
            cpus = sorted(os.sched_getaffinity(0))[:run.workload.jobs]
            os.sched_setaffinity(0, cpus)
            run.probes = Probes(cpus, run.dir)
        run.setup_probes(SETUP_FIRST)
        if args.trace:
            run.repeat(["plain", "trace"], first=["cli", "plain", "trace"])
            metrics, units = per_layer(run), PER_LAYER_UNITS
            extra = count_problems(run)
        else:
            run.repeat(["cli"], first=["cli"])
            metrics, units = end_to_end(run), END_TO_END_UNITS
            extra = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if run.probes:
            run.probes.stop()
        shutil.rmtree(run.dir, ignore_errors=True)

    problems = run.problems + run.determinism_problems() + extra
    for p in run.passes:
        print(f"pass {p['kind']:5s} wall {p['wall_s']:.3f} s  cpu {p['cpu_s']:.3f} s  "
              f"rss {p['rss_mb']:.1f} MB  probe {p['speed'] or 0:.4g}/s  exit {p['exit']}")
    for p in run.passes:
        missing = p.get("report", {}).get("missing")
        if missing:
            print(f"note: not found, not wrapped: {', '.join(missing)}")
            break
    first = run.passes[0]["configs"]
    for stem in sorted(first):
        print(f"artifacts {stem} {first[stem]['digest']}")
    print(f"artifacts all {combined_digest({s: r['digest'] for s, r in first.items()})}")
    for line in problems:
        print(f"problem: {line}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    WORK.mkdir(exist_ok=True)
    (WORK / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "setup_s": run.setup,
                    "setup_speed": run.setup_speed, "passes": run.passes,
                    "problems": problems, "metrics": metrics}, indent=1),
        encoding="utf-8")
    attempted = len(run.configs) * len(run.passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
