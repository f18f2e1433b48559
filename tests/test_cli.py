"""Tests for the experiment runner: config validation, artifacts, exit codes.

Runner scenarios use deliberately short horizons so the whole module stays
fast; the physics itself is covered by the module tests and the acceptance
suite.
"""

import csv
import hashlib
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from canardctl import cli, cycles, sim
from canardctl.cli import (
    ExperimentConfig,
    main,
    read_trajectory_csv,
    run_experiment,
    _write_trajectory_csv,
)
from canardctl.core import PhasePoint
from canardctl.errors import ConfigError, StepLimitError
from canardctl.mmo import MmoPattern
from canardctl.sim import Trajectory, integrate


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig("warp-drive")

    def test_experiment_must_be_a_name(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig(["k2"])

    def test_raw_h_rejected_with_guidance(self):
        with pytest.raises(ConfigError, match="h0"):
            ExperimentConfig("k2", {"h": 1e-180})

    def test_unknown_parameter(self):
        # K and weights were config keys once; no run ever read them
        for key in ("c3", "K", "weights"):
            with pytest.raises(ConfigError, match="unknown parameter"):
                ExperimentConfig("k2", {key: 1.0})

    @pytest.mark.parametrize("experiment,key,value", [
        ("fold-fast", "y_h", 0.5), ("fold-fast", "k1", 5.0),
        ("fold-fast", "x_star", 0.5),
        ("k1-vdp", "eps", 0.3), ("k1-vdp", "alpha", 2.0), ("k1-vdp", "h0", 1.0),
        ("k1-vdp", "E", 3.0), ("k1-vdp", "c1", 9.0), ("k1-vdp", "c2", 7.0),
        ("vdp-mmo", "x_star", 0.5), ("vdp-mmo", "y_h", 1.0),
        ("vdp-mmo", "t_end", 3.0), ("vdp-mmo", "alpha", 4.0),
        ("vdp-mmo", "c2", 7.0),
        ("verify", "c1", 1.0), ("verify", "pattern", "2S:1.25:-0.01"),
    ])
    def test_key_the_run_ignores_is_rejected(self, experiment, key, value):
        with pytest.raises(ConfigError,
                           match=f"unknown parameter '{key}' for {experiment}"):
            ExperimentConfig(experiment, {key: value})

    def test_pattern_must_be_string(self):
        with pytest.raises(ConfigError, match="string"):
            ExperimentConfig("vdp-mmo", {"pattern": 3})

    def test_repeat_must_be_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            ExperimentConfig("vdp-mmo", {"repeat": 2.0})
        with pytest.raises(ConfigError, match="integer"):
            ExperimentConfig("vdp-mmo", {"repeat": True})

    def test_numeric_params_reject_bool_nan_string(self):
        with pytest.raises(ConfigError, match="number"):
            ExperimentConfig("k2", {"c1": True})
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig("k2", {"c1": float("nan")})
        with pytest.raises(ConfigError, match="number"):
            ExperimentConfig("k2", {"c1": "big"})

    def test_output_slots_checked(self):
        with pytest.raises(ConfigError, match="output slot"):
            ExperimentConfig("k2", outputs={"video": "x.mp4"})
        with pytest.raises(ConfigError, match="name a file"):
            ExperimentConfig("k2", outputs={"metrics": ""})
        # a name with a directory part would write outside --out
        for name in ("../escaped.csv", "sub/t.csv", "/tmp/t.csv", "t.csv/",
                     ".", ".."):
            with pytest.raises(ConfigError, match="bare file name"):
                ExperimentConfig("k2", outputs={"trajectory": name})
        # two slots on one file, also through a default the config keeps
        with pytest.raises(ConfigError, match="both name 'same.out'"):
            ExperimentConfig("k2", outputs={"trajectory": "same.out",
                                            "phase": "same.out"})
        with pytest.raises(ConfigError, match="both name 'phase.svg'"):
            ExperimentConfig("k2", outputs={"trajectory": "phase.svg"})
        # files a run writes next to the slots
        for experiment, name in (("fold-fast-hot", "plain.csv"),
                                 ("k2-hot", "phase-plain.svg"),
                                 ("k2", "plain.csv")):
            with pytest.raises(ConfigError, match="writes that file itself"):
                ExperimentConfig(experiment, outputs={"trajectory": name})
        # swapping two default names is one file per slot
        cfg = ExperimentConfig("k2", outputs={"phase": "controller.svg",
                                              "controller": "phase.svg"})
        assert cfg.outputs["phase"] == "controller.svg"

    def test_initial_conditions_coerced_and_checked(self):
        cfg = ExperimentConfig("k2", initial_conditions=[[1, 2], (0.5, -1)])
        assert cfg.initial_conditions == (PhasePoint(1.0, 2.0), PhasePoint(0.5, -1.0))
        with pytest.raises(ConfigError, match="non-finite"):
            ExperimentConfig("k2", initial_conditions=[(math.inf, 0.0)])


class TestConfigFile:
    def test_round_trip_all_sections(self, tmp_path):
        doc = {
            "experiment": "fold-fast",
            "params": {"eps": 0.02, "c1": 2.0},
            "initial_conditions": [[0.1, 0.2]],
            "outputs": {"metrics": "m.json"},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.experiment == "fold-fast"
        assert cfg.params == {"eps": 0.02, "c1": 2.0}
        assert cfg.initial_conditions == (PhasePoint(0.1, 0.2),)
        assert cfg.outputs == {"metrics": "m.json"}

    def test_malformed_inputs(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            ExperimentConfig.from_file(p)
        p.write_text(json.dumps({"params": {}}))
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_file(p)
        p.write_text(json.dumps({"experiment": "k2", "extras": 1}))
        with pytest.raises(ConfigError, match="sections"):
            ExperimentConfig.from_file(p)
        p.write_text(json.dumps({"experiment": "k2", "initial_conditions": [3]}))
        with pytest.raises(ConfigError, match="pairs"):
            ExperimentConfig.from_file(p)
        with pytest.raises(ConfigError, match="cannot read"):
            ExperimentConfig.from_file(tmp_path / "absent.json")

    @pytest.mark.parametrize("section,value,message", [
        ("params", [["eps", 0.01]], "params must be a JSON object"),
        ("params", "abc", "params must be a JSON object"),
        ("outputs", [["metrics", "m.json"]], "outputs must be a JSON object"),
        ("initial_conditions", ["12"], "pairs of numbers"),
        ("initial_conditions", [[0.2, 0.3, 9]], "pairs of numbers"),
        ("initial_conditions", [[0.2, "x"]], "pairs of numbers"),
        ("initial_conditions", [{"x": 1}], "pairs of numbers"),
        ("initial_conditions", [[True, 0.3]], "pairs of numbers"),
        ("initial_conditions", "12", "list of"),
        # integers too large for a float
        ("params", {"c1": 10 ** 400}, "parameter 'c1' must be finite"),
        ("initial_conditions", [[10 ** 400, 0.5]], "non-finite initial condition"),
    ], ids=["params-list", "params-string", "outputs-list", "ic-string",
            "ic-triple", "ic-string-coordinate", "ic-object", "ic-bool",
            "ics-string", "params-huge-int", "ic-huge-int"])
    def test_section_of_the_wrong_shape_exits_2(self, tmp_path, capsys,
                                                 section, value, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig("k2", **{section: value})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"experiment": "k2", section: value}))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_with_overrides_wins_and_preserves_original(self):
        cfg = ExperimentConfig("k2", {"c1": 1.0, "eps": 0.5})
        out = cfg.with_overrides({"c1": 7.0, "t_end": 10.0})
        assert out.params == {"c1": 7.0, "eps": 0.5, "t_end": 10.0}
        assert cfg.params["c1"] == 1.0

    def test_with_no_overrides_is_the_config_itself(self):
        # a batch run without override flags validates each config once
        cfg = ExperimentConfig("k2", {"c1": 1.0})
        assert cfg.with_overrides({}) is cfg


class TestTrajectoryCsv:
    def test_round_trip_full_precision(self, tmp_path):
        ts = (0.0, 1.0 / 3.0, math.pi)
        pts = (PhasePoint(1e-300, -2.5), PhasePoint(0.1 + 0.2, 4.0),
               PhasePoint(-1.5e208, math.sqrt(2.0)))
        us = (7.0, -1.0 / 7.0, 0.0)
        path = tmp_path / "trajectory.csv"
        _write_trajectory_csv(path, Trajectory(ts, pts, us))
        rows = read_trajectory_csv(path)
        assert rows == tuple(
            (t, p.x, p.y, u) for t, p, u in zip(ts, pts, us))

    def test_bytes_match_a_csv_writer(self, tmp_path):
        # the writer formats rows itself; csv.writer over the same four
        # "%.17g" fields is the reference, on every kind of float a run writes
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                    1e308, -1.7976931348623157e308, 2.0, -3.0, 1e16, 123456789.0,
                    1.0 / 3.0, 1e-300, 0.1 + 0.2]
        n = len(specials)
        ts = tuple(specials[i] for i in range(n))
        pts = tuple(PhasePoint(specials[(i + 3) % n], specials[(i + 7) % n])
                    for i in range(n))
        plain = tuple((specials[(i + 5) % n], specials[(i + 11) % n])
                      for i in range(n))
        us = tuple(specials[(i + 13) % n] for i in range(n))
        for states in (pts, plain):
            traj = Trajectory(ts, states, us)
            path = tmp_path / "trajectory.csv"
            _write_trajectory_csv(path, traj)
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(["t", "x", "y", "u"])
            for t, p, u in zip(ts, states, us):
                w.writerow([f"{t:.17g}", f"{p[0]:.17g}", f"{p[1]:.17g}",
                            f"{u:.17g}"])
            assert path.read_bytes() == buf.getvalue().encode("utf-8")

    def test_empty_trajectory_writes_the_header(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        _write_trajectory_csv(path, Trajectory((), (), ()))
        assert path.read_bytes() == b"t,x,y,u\n"

    def test_header_validated(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="not a trajectory file"):
            read_trajectory_csv(p)


class TestRunExperiment:
    def test_k2_artifacts_and_config_echo(self, tmp_path):
        cfg = ExperimentConfig("k2", {"t_end": 120.0},
                               outputs={"metrics": "renamed.json"})
        assert run_experiment(cfg, tmp_path) == 0
        for name in ("trajectory.csv", "phase.svg", "controller.svg",
                     "renamed.json"):
            assert (tmp_path / name).exists()
        m = json.loads((tmp_path / "renamed.json").read_text())
        assert m["status"] == "ok"
        assert m["experiment"] == "k2"
        # resolved config makes the run reproducible from the metrics alone
        echoed = m["config"]["params"]
        assert echoed["t_end"] == 120.0
        assert {"eps", "alpha", "c1", "c2", "h0", "E"} <= set(echoed)
        assert m["config"]["outputs"]["metrics"] == "renamed.json"
        assert m["results"]["max_terminal_h_gap"] < 1e-6

    def test_trajectory_csv_parses_back(self, tmp_path):
        cfg = ExperimentConfig("k2", {"t_end": 120.0})
        run_experiment(cfg, tmp_path)
        rows = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert len(rows) > 10
        assert all(len(r) == 4 for r in rows)

    def test_unwritable_outdir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = ExperimentConfig("k2")
        assert run_experiment(cfg, blocker / "out") == 2
        assert "not writable" in capsys.readouterr().err

    def test_integration_fault_exits_3(self, tmp_path, capsys, monkeypatch):
        charted = []

        def keeping_run(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            charted.append(traj)
            return traj

        monkeypatch.setattr(cli, "integrate", keeping_run)
        cfg = ExperimentConfig("k1-vdp", {"t_end": 10.0})
        assert run_experiment(cfg, tmp_path) == 3
        assert "never reached" in capsys.readouterr().err
        m = json.loads((tmp_path / "metrics.json").read_text())
        assert m["status"] == "integration-fault"
        assert "never reached" in m["results"]["message"]
        # the run that never reached the exit section is written blown down:
        # (x, y, u) = (r1 x1, r1^2, r1^2 mu1)
        [chart] = charted
        assert chart.final_time == 10.0
        assert read_trajectory_csv(tmp_path / "trajectory.csv") == tuple(
            (t, r1 * x1, r1 * r1, r1 * r1 * mu)
            for t, (r1, x1, _), mu in zip(chart.times, chart.states, chart.controls))
        assert m["results"]["last_time"] == 10.0

    def test_step_limit_leaves_metrics_and_partial_trajectory(self, tmp_path, capsys):
        cfg = ExperimentConfig("fold-fast", {"max_steps": 10})
        assert run_experiment(cfg, tmp_path) == 3
        assert "max_steps" in capsys.readouterr().err
        m = json.loads((tmp_path / "metrics.json").read_text())
        assert m["status"] == "step-limit"
        assert "max_steps = 10" in m["results"]["message"]
        rows = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert len(rows) > 1
        assert m["results"]["last_time"] == rows[-1][0]
        assert m["results"]["last_state"] == [rows[-1][1], rows[-1][2]]

    def test_k1_vdp_step_limit_leaves_blown_down_partial_trajectory(
            self, tmp_path, capsys, monkeypatch):
        charted = []

        def keeping_partial(*args, **kwargs):
            try:
                return integrate(*args, **kwargs)
            except StepLimitError as exc:
                charted.append(exc.trajectory)
                raise

        monkeypatch.setattr(cli, "integrate", keeping_partial)
        cfg = ExperimentConfig("k1-vdp", {"max_steps": 10})
        assert run_experiment(cfg, tmp_path) == 3
        assert "max_steps = 10" in capsys.readouterr().err
        m = json.loads((tmp_path / "metrics.json").read_text())
        assert m["status"] == "step-limit"
        # the partial run is written in original coordinates, as on success:
        # (x, y, u) = (r1 x1, r1^2, r1^2 mu1)
        [chart] = charted
        assert len(chart) > 1
        assert read_trajectory_csv(tmp_path / "trajectory.csv") == tuple(
            (t, r1 * x1, r1 * r1, r1 * r1 * mu)
            for t, (r1, x1, _), mu in zip(chart.times, chart.states, chart.controls))

    def test_pattern_deviation_exits_4_with_diagnostics(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            "vdp-canard",
            {"x_star": 0.01, "y_h": 0.75,
             "beta1": 1e-3, "beta2": 1e-3, "y_min": 0.02})
        assert run_experiment(cfg, tmp_path) == 4
        assert "deviation" in capsys.readouterr().err
        m = json.loads((tmp_path / "metrics.json").read_text())
        assert m["status"] == "pattern-deviation"
        assert m["results"]["expected"] == "LAO"
        assert m["results"]["got"] == "SAO"
        assert (tmp_path / "trajectory.csv").exists()


# SHA-256 of the default artifacts of the fold and central-chart runs, of
# k1-vdp and of the verify experiment's metrics.json.  Each run integrates a
# plain-tuple state (three components in k1-vdp); a digest that moves means
# a refactoring changed their bytes.
_PINNED_ARTIFACTS = {
    "fold-fast": {
        "controller.svg": "cb552f3928f141bb1caabe97bae3d2ab2e320c53a516024c87362eb4600e2782",
        "metrics.json": "2c193ff4b1bf177365d8cc5e05b5978972704ce0a326cca6b6ba87ac06d6ae5d",
        "phase.svg": "8f1f6ee6f1549e071236f3b9d90e1753db9c5114a28eff2f180ac827a6225093",
        "trajectory.csv": "8fd0f69113d9c1e70732fea2ecc91fd0a186087b61b527b2edf938e666733837",
    },
    "fold-fast-hot": {
        "controller.svg": "6bfcb2c421bb929d467b581da9004cd1004c2f0421a73657e947104a4505b230",
        "metrics.json": "84b1882a7500794acd90a75494ba43072b012d95abf41f3d31495498409b38b8",
        "phase.svg": "d9acc989cb97975dabbe09c097cb04c3eb0c44ebade6737f9d908eaf3061eae5",
        "plain.csv": "d579ee830fd80f652ce424e397684f0525d40d592d233f1d48fed3669c9b0c16",
        "trajectory.csv": "3ac218f90659be239afcf35835d41208a4cdcb8c8c47353f8391624f4846c76f",
    },
    "fold-slow": {
        "controller.svg": "a78c51883bb400defec33e5e6822776c461dd4a0557a874c42a347e32e3b2e04",
        "metrics.json": "b5f12ab88f6ecdb7acbd8855d4fb5c19046390d8273eb2039d255a3b698ca27a",
        "phase.svg": "8ce053323515989da5d017af71d478fb312004cdbb04164c4aea1ced14ae95df",
        "trajectory.csv": "e557feafa10db5c15c9604137c5369e8f823fa25fb1cfb0c4992e58c13ff8a13",
    },
    "k2": {
        "controller.svg": "2675d6b863b797c7d4f414888f2eb90cc0626fec80e895b36607c9a8e6f0148d",
        "metrics.json": "12fa6dd8f999a67c8fc751b9346fce6423aaac7d1f16eb34235de4c740afff4a",
        "phase.svg": "63ab1e3724e1baf35008596762d7d70e58cd8c63444d706df6edb9e5c7a71870",
        "trajectory.csv": "69a7fc8ba33dc0b0cb2d63cdbbd6b409c21e4ff06d54f9f59fd75b67a528bbe8",
    },
    "k2-hot": {
        "controller.svg": "1ec91583f3ccfd81e0e33dcfb8101efa3f9dd3138b5f0d906c59157f3718c7f6",
        "metrics.json": "1c7ec52a75b49673c613d8c52cdc73b24b04ba11a50d06032f8a43ecafd2b58a",
        "phase-plain.svg": "8c7e13d0a188225825d21d714e20b8f5b2ea9154593a5a2f388aa8859d66246c",
        "phase.svg": "ef9a7c18e91bdce5f666ab257844c90066524f50bdd579f9153da29625232afa",
        "trajectory.csv": "2be0750c322eb9c9d07bbe08667eb4a823c814d414dcf96949853d3f81347e8c",
    },
    "k1-vdp": {
        "controller.svg": "7361f7b28825e8bf6dc528a0a4fcb840c8465c65747e87bcb6c8f177c2877bac",
        "metrics.json": "6db4aac3b9512eb1c93bb5a5935699311252a1cc32c89d537a187b002d998dc1",
        "phase.svg": "4cace22ba01f58beedd3c9740e9eceeb7a826155b7f943d49d3aaab67a54f2aa",
        "trajectory.csv": "2d13b006a8e41d79e9c255c75c4b727d147b996170b1a0a67b6a33b5dab50fb2",
    },
    "vdp-canard": {
        "controller.svg": "35cd682c4fac9c31fa232f0526f1e1d23c2b3e29c47f105a184d2dcc307531fb",
        "metrics.json": "e48e3e197117c4191ea2918309988eacf155445bf29cbac822c8e94934ab0efb",
        "phase.svg": "2bcfa8eb585fcc60e955853a3f053bf52016091ec6a44691a957d8fb4f42ff41",
        "trajectory.csv": "ff2e7e3523b286b638b8f9c7148d419b817266aa323dbe2d0e7e22da5a8f908e",
    },
    "vdp-mmo": {
        "controller.svg": "6ad7f47897a8d279078083a492d82c2b5e1ba5e0d94885916a1eabfc693c357f",
        "metrics.json": "becfaa187025b0e15c314d30b778cd2d1a5a1cc4b18714cfac4aaeb557c6e900",
        "phase.svg": "7f094ad3f0b7eee57bfdc1c539c78eaa46d5aabedd94dea2614877101d6f769a",
        "trajectory.csv": "a1e261ab44d825f02288c39959323421341772862b7e318cb75ff32da730121a",
    },
    "verify": {
        "metrics.json": "5f79c8946c15c072c40844a04c2a243b3ce5c9c6eb89160839898ef19ba96c61",
    },
}


def _bisect_all_halvings(g, lo, hi):
    # the reference-cycle bisection as it was before it stopped at its
    # fixed point: it always runs its 200 halvings unless g(mid) == 0
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bisect_stops_on_the_bits_of_every_halving():
    rng = random.Random(20261018)
    brackets = [
        (0.0, 1.0, 0.25),  # g(mid) is an exact zero on the second halving
        (-0.005, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (2.0, 2.0, 2.0),
        # halving toward a zero end can flip the sign of the zero returned
        (-5e-324, 0.0, -5e-324), (0.0, -5e-324, 0.0), (-5e-324, 5e-324, 0.0),
        (1.0, math.nextafter(1.0, 2.0), 1.0), (0.3, -2.0, -1.0),
    ]
    for _ in range(400):
        lo = rng.choice([rng.uniform(-3.0, 3.0), 0.0, -0.0, 5e-324, -5e-324])
        hi = rng.choice([lo, math.nextafter(lo, math.inf),
                         lo + rng.uniform(-4.0, 4.0), lo + 1e-300])
        brackets.append((lo, hi, rng.choice(
            [lo, hi, 0.0, 0.5 * (lo + hi), rng.uniform(-3.0, 3.0)])))

    def bits(v):
        return struct.pack("<d", v)

    for lo, hi, root in brackets:
        for g in (lambda y: y - root, lambda y: root - y,
                  lambda y: 1.0 if y >= root else -1.0, lambda y: y + 9.0):
            assert bits(cycles._bisect(g, lo, hi)) == \
                bits(_bisect_all_halvings(g, lo, hi)), (lo, hi, root)


@pytest.mark.parametrize("experiment", sorted(_PINNED_ARTIFACTS))
def test_artifact_bytes_pinned(tmp_path, capsys, experiment):
    assert run_experiment(ExperimentConfig(experiment), tmp_path) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in _PINNED_ARTIFACTS[experiment]} == _PINNED_ARTIFACTS[experiment]


# the benchmark's supervised run: pattern LLLSSSS four times over, which
# drives composite_u through both neighborhoods and every segment switch
_VDP_PLANT_ARTIFACTS = {
    "controller.svg": "c4f1c8e46c3b7141edb9fb2541360b62420367ab870a5121b86a35e7c4caddb0",
    "metrics.json": "6e2c72a64dd7a48af7105eb732f028c6ae3a202a824a398c3eedc56399e15d44",
    "phase.svg": "c60300ea5c2f3344941e363d60731f8879c79d4ebe905ab3bba326f27cb88310",
    "trajectory.csv": "1e6e7686a7a8e07496eb9f47f0e6abe7e6a6ab3dd63928767b9675240fab2ffa",
}


def test_vdp_plant_artifact_bytes_pinned(tmp_path, capsys):
    cfg = ExperimentConfig("vdp-mmo", {"pattern": "3L:0.75:0.01,4S:1.25:-0.01",
                                       "repeat": 4})
    assert run_experiment(cfg, tmp_path) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in _VDP_PLANT_ARTIFACTS} == _VDP_PLANT_ARTIFACTS


# fold-fast at eps = 1e-4 overflows its level term at the start: the run is
# one sample with a nan control and no finite (t, u) pair, which pins the
# writers' non-finite paths end to end
_OVERFLOW_RUN_ARTIFACTS = {
    "controller.svg": "881ed5925e1dfcb23334ddd4644c32ba76bf359f954c585a66372c1fa23147e9",
    "phase.svg": "784ae7d10b4439438b7056b8af8a5c16513944dc05d1bb7de037801a934c681b",
    "trajectory.csv": "3373207a4bc03b0a8f05b41f461ea387e6701235e12ccf2206421eacb7732c97",
}


@pytest.mark.parametrize("experiment", ["fold-fast", "fold-slow"])
def test_fold_overflow_exits_3_and_keeps_the_fold_results(tmp_path, capsys,
                                                          experiment):
    cfg = ExperimentConfig(experiment, {"eps": 1e-4})
    assert run_experiment(cfg, tmp_path) == 3
    m = json.loads((tmp_path / "metrics.json").read_text())
    assert m["status"] == "overflow-fault"
    res = m["results"]
    assert res["overflow_events"] == 1
    assert res["time_below"] is None
    assert res["residual_initial"] == math.inf
    assert res["section_return_times"] == []
    assert res["message"].startswith("the control overflowed at t = ")
    rows = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert res["last_time"] == rows[-1][0]
    assert res["last_state"] == [rows[-1][1], rows[-1][2]]
    if experiment == "fold-fast":
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in _OVERFLOW_RUN_ARTIFACTS} == _OVERFLOW_RUN_ARTIFACTS
        assert res["last_time"] == 0.0 and res["last_state"] == [0.2, 0.3]
        assert math.isnan(rows[0][3]) and len(rows) == 1


# each config stops at the fault named; the first start of the fold-fast
# case runs to t_end and its second stops at once, as does vdp-canard at
# x = 1e120, whose x**3 overflows in the controller and the field
_FAULTING_RUNS = {
    "fold-fast-later-start": (
        {"experiment": "fold-fast", "params": {"t_end": 50.0},
         "initial_conditions": [[0.2, 0.3], [0.2, 30.0]]}, "overflow-fault"),
    "fold-fast-hot-step-limit": (
        {"experiment": "fold-fast-hot", "params": {"max_steps": 10}},
        "step-limit"),
    "k2-step-limit": (
        {"experiment": "k2", "params": {"max_steps": 10}}, "step-limit"),
    "k2-step-underflow": (
        {"experiment": "k2", "params": {"min_step": 0.05, "max_step": 1.0}},
        "step-underflow"),
    "vdp-canard-float-overflow": (
        {"experiment": "vdp-canard", "initial_conditions": [[1e120, 0.5]]},
        "overflow-fault"),
}


@pytest.mark.parametrize("name", sorted(_FAULTING_RUNS))
def test_fault_of_any_run_decides_exit_status_and_trajectory(tmp_path, capsys,
                                                             name):
    doc, status = _FAULTING_RUNS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 3
    assert "integration fault: " in capsys.readouterr().err
    for artifact in ("trajectory.csv", "metrics.json", "phase.svg",
                     "controller.svg"):
        assert (out / artifact).exists()
    m = json.loads((out / "metrics.json").read_text())
    assert m["status"] == status
    res = m["results"]
    # the faulted run is the one written: it ends where the fault happened
    rows = read_trajectory_csv(out / "trajectory.csv")
    assert res["last_time"] == rows[-1][0]
    assert res["last_state"] == [rows[-1][1], rows[-1][2]]
    assert f"at t = {res['last_time']:.6g}" in res["message"]


def test_min_step_above_the_first_step_estimate_binds_the_first_step(
        tmp_path, capsys):
    # the field alone picks a first step near 0.009 here; a smooth run at
    # min_step 0.03 used to stop there as a step underflow
    cfg = ExperimentConfig("vdp-mmo", {"pattern": "3S:1.25:-0.01",
                                       "min_step": 0.03, "max_step": 1.0})
    assert run_experiment(cfg, tmp_path) == 0
    m = json.loads((tmp_path / "metrics.json").read_text())
    assert m["status"] == "ok"
    assert m["results"]["labels"] == "SSS"


# every registered experiment, cut short where it takes t_end
_SHORT_RUNS = {"fold-fast": {"t_end": 5.0}, "fold-fast-hot": {"t_end": 5.0},
               "fold-slow": {"t_end": 5.0}, "k2": {"t_end": 5.0},
               "k2-hot": {"t_end": 5.0}, "k1-vdp": {"t_end": 5.0},
               "vdp-mmo": {"pattern": "1S:1.25:-0.01"}}


def test_no_registered_experiment_runs_the_generic_step_kernel(
        tmp_path, capsys, monkeypatch):
    # states of two and three components have written-out kernels; the
    # generic one is for every other length, which no runner integrates
    def generic(*args):
        raise AssertionError("a registered run reached sim._step_any")

    used = set()

    def counted(kernel):
        def step(rhs, u, y, *rest):
            used.add((name, len(y)))  # the experiment running now
            return kernel(rhs, u, y, *rest)
        return step

    monkeypatch.setattr(sim, "_step_any", generic)
    monkeypatch.setattr(sim, "_step_planar", counted(sim._step_planar))
    monkeypatch.setattr(sim, "_step_3", counted(sim._step_3))
    for name in sorted(cli._SPECS):
        cfg = ExperimentConfig(name, _SHORT_RUNS.get(name, {}))
        # k1-vdp ends as a fault when t_end comes before the exit section
        assert run_experiment(cfg, tmp_path / name) == (
            3 if name == "k1-vdp" else 0)
    assert {name for name, _ in used} == set(cli._SPECS)
    assert ("k1-vdp", 3) in used


def test_no_registered_experiment_builds_the_states_view(
        tmp_path, capsys, monkeypatch):
    # the runners, the supervisor and the writers read a trajectory's
    # columns; a states view would build one object per point
    built = []
    states = sim.Trajectory.states

    def recorded(traj):
        built.append((name, len(traj)))  # the experiment running now
        return states.fget(traj)

    monkeypatch.setattr(sim.Trajectory, "states", property(recorded))
    for name in sorted(cli._SPECS):
        cfg = ExperimentConfig(name, _SHORT_RUNS.get(name, {}))
        assert run_experiment(cfg, tmp_path / name) == (
            3 if name == "k1-vdp" else 0)
    assert built == []


# at these gains the compensated runs converge within the step budget and
# the plain ones do not
@pytest.mark.parametrize("experiment,params,plain_statuses", [
    ("fold-fast-hot", {"c1": 0.5, "max_steps": 2000},
     lambda res: [res["plain"]["status"]]),
    ("k2-hot", {"c1": 3.0, "max_steps": 2000},
     lambda res: [r["status"] for r in res["plain_per_ic"]]),
], ids=["fold-fast-hot", "k2-hot"])
def test_fault_of_a_plain_comparison_run_is_only_recorded(
        tmp_path, capsys, experiment, params, plain_statuses):
    assert run_experiment(ExperimentConfig(experiment, params), tmp_path) == 0
    m = json.loads((tmp_path / "metrics.json").read_text())
    assert m["status"] == "ok"
    assert "step-limit" in plain_statuses(m["results"])


def test_readme_lists_every_status_a_run_can_leave():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("The `status` in `metrics.json` is `ok` or one of:")[1]
    listed = re.findall(r"^- `([a-z-]+)`:", block.split("\n\n")[1], re.M)
    assert sorted(listed) == sorted(
        {status for _, status in cli._FAULT_STATUS} | {"failed"})


def test_vdp_canard_hands_the_exact_segment_to_run_pattern(tmp_path, monkeypatch):
    patterns = []
    run_pattern = cli.run_pattern

    def recording(pattern, *args):
        patterns.append(pattern)
        return run_pattern(pattern, *args)

    monkeypatch.setattr(cli, "run_pattern", recording)
    cfg = ExperimentConfig("vdp-canard", {"x_star": -0.0123456789,
                                          "y_h": 1.23456789, "repeat": 2})
    assert run_experiment(cfg, tmp_path) == 0
    [pattern] = patterns
    assert pattern.segments == ((3, "SAO", 1.23456789, -0.0123456789),)
    assert pattern.repeat == 2


def test_results_pattern_parses_back_to_the_exact_segment(tmp_path):
    cfg = ExperimentConfig("vdp-canard", {"x_star": -0.0123456789,
                                          "y_h": 1.23456789, "repeat": 1})
    assert run_experiment(cfg, tmp_path) == 0
    res = json.loads((tmp_path / "metrics.json").read_text())["results"]
    assert res["pattern"] == "3S:1.23456789:-0.0123456789"
    assert MmoPattern.parse(res["pattern"]).segments == (
        (3, "SAO", 1.23456789, -0.0123456789),)


def test_vdp_mmo_step_limit_in_a_later_loop_writes_the_whole_run(tmp_path,
                                                                  capsys):
    # 800 steps take the run through the preamble into the first loop
    cfg = ExperimentConfig("vdp-mmo", {"pattern": "3S:1.25:-0.01",
                                       "max_steps": 800})
    assert run_experiment(cfg, tmp_path) == 3
    m = json.loads((tmp_path / "metrics.json").read_text())
    assert m["status"] == "step-limit"
    rows = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert rows[0][:3] == (0.0, -1.0, 0.6)
    assert rows[-1][0] > 114.0  # past the preamble's disc entry
    res = m["results"]
    assert res["last_time"] == rows[-1][0]
    assert res["last_state"] == [rows[-1][1], rows[-1][2]]


def _write_cfg(path, experiment, **params):
    path.write_text(json.dumps({"experiment": experiment, "params": params}))
    return path


class TestMain:
    def test_run_with_flag_override(self, tmp_path):
        cfg = _write_cfg(tmp_path / "a.json", "k2", t_end=120.0)
        out = tmp_path / "out"
        rc = main(["run", str(cfg), "--out", str(out), "--c1", "3.0"])
        assert rc == 0
        m = json.loads((out / "metrics.json").read_text())
        assert m["config"]["params"]["c1"] == 3.0

    def test_batch_two_jobs_separate_outdirs(self, tmp_path):
        configs = [_write_cfg(tmp_path / "a.json", "k2", t_end=120.0),
                   _write_cfg(tmp_path / "b.json", "k2", t_end=150.0),
                   _write_cfg(tmp_path / "c.json", "fold-fast", t_end=50.0),
                   _write_cfg(tmp_path / "d.json", "verify")]
        digests = []
        for jobs in ("2", "1"):
            base = tmp_path / f"batch-{jobs}"
            rc = main(["run", *map(str, configs), "--jobs", jobs,
                       "--out", str(base)])
            assert rc == 0
            for stem in "abcd":
                assert (base / stem / "metrics.json").exists()
            # every artifact, metrics.json included, is byte-identical
            # whatever the worker count
            digests.append({
                p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in base.rglob("*") if p.is_file()})
        assert digests[0] == digests[1]

    def test_every_experiment_gives_the_same_bytes_under_any_jobs(self, tmp_path):
        # all registered experiments at their defaults, full length
        configs = [_write_cfg(tmp_path / f"{name}.json", name)
                   for name in sorted(cli._SPECS)]
        assert len(configs) == 9
        digests = []
        for jobs in ("1", "2"):
            base = tmp_path / f"batch-{jobs}"
            assert main(["run", *map(str, configs), "--jobs", jobs,
                         "--out", str(base)]) == 0
            digests.append({
                p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in base.rglob("*") if p.is_file()})
        assert {path.split("/")[0] for path in digests[0]} == set(cli._SPECS)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unexpected_exception_exits_5_and_batch_goes_on(
            self, tmp_path, monkeypatch, capfd, jobs):
        def broken(cfg, eff):
            raise ValueError("spec bug")

        # a --jobs batch forks its workers after this, so they see the patch
        monkeypatch.setitem(cli._SPECS, "verify",
                            cli._SPECS["verify"]._replace(run=broken))
        configs = [_write_cfg(tmp_path / "a.json", "verify"),
                   _write_cfg(tmp_path / "b.json", "k2", t_end=120.0)]
        base = tmp_path / "o"
        rc = main(["run", *map(str, configs), "--jobs", jobs, "--out", str(base)])
        out, err = capfd.readouterr()
        assert rc == 5
        assert "internal error: ValueError: spec bug" in err
        assert f"{configs[0]}: exit 5" in out and f"{configs[1]}: exit 0" in out
        assert (base / "b" / "metrics.json").exists()

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # no run loads a process pool; --jobs forks its own workers
        code = ("import sys, canardctl.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        cfg = _write_cfg(tmp_path / "a.json", "k2", t_end=120.0)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--jobs", jobs, "--out", str(out)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_beyond_the_batch_start_one_worker_per_config(
            self, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        configs = [_write_cfg(tmp_path / "a.json", "k2", t_end=120.0),
                   _write_cfg(tmp_path / "b.json", "k2", t_end=150.0)]
        base = tmp_path / "o"
        assert main(["run", *map(str, configs), "--jobs", "100000",
                     "--out", str(base)]) == 0
        assert len(forks) == 2
        assert (base / "a" / "metrics.json").exists()
        assert (base / "b" / "metrics.json").exists()

    def test_a_worker_that_dies_fails_only_its_config(
            self, tmp_path, monkeypatch, capfd):
        # the process ends inside the run, before its worker can report
        monkeypatch.setitem(cli._SPECS, "verify",
                            cli._SPECS["verify"]._replace(
                                run=lambda cfg, eff: os._exit(9)))
        configs = [_write_cfg(tmp_path / "a.json", "verify"),
                   _write_cfg(tmp_path / "b.json", "k2", t_end=120.0),
                   _write_cfg(tmp_path / "c.json", "k2", t_end=150.0)]
        base = tmp_path / "o"
        rc = main(["run", *map(str, configs), "--jobs", "2", "--out", str(base)])
        out, err = capfd.readouterr()
        assert rc == 5
        assert (f"internal error: {configs[0]}: its worker ended before it "
                f"reported (wait status {9 << 8}, exit status 9)") in err
        assert f"{configs[0]}: exit 5" in out
        assert f"{configs[1]}: exit 0" in out and f"{configs[2]}: exit 0" in out
        assert not (base / "a" / "metrics.json").exists()
        assert (base / "b" / "metrics.json").exists()
        assert (base / "c" / "metrics.json").exists()

    def test_configs_left_when_every_worker_died_run_in_a_new_round(
            self, tmp_path, monkeypatch, capfd):
        monkeypatch.setitem(cli._SPECS, "verify",
                            cli._SPECS["verify"]._replace(
                                run=lambda cfg, eff: os._exit(9)))
        configs = [_write_cfg(tmp_path / "a.json", "verify"),
                   _write_cfg(tmp_path / "b.json", "verify"),
                   _write_cfg(tmp_path / "c.json", "k2", t_end=120.0)]
        base = tmp_path / "o"
        rc = main(["run", *map(str, configs), "--jobs", "2", "--out", str(base)])
        out, err = capfd.readouterr()
        assert rc == 5
        assert err.count("its worker ended before it reported") == 2
        assert f"{configs[0]}: exit 5" in out and f"{configs[1]}: exit 5" in out
        assert f"{configs[2]}: exit 0" in out
        assert (base / "c" / "metrics.json").exists()

    def test_jobs_without_fork_run_in_process(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        ran = []
        run_one = cli._run_one
        monkeypatch.setattr(cli, "_run_one",
                            lambda job: ran.append(job[0]) or run_one(job))
        configs = [_write_cfg(tmp_path / "a.json", "k2", t_end=120.0),
                   _write_cfg(tmp_path / "b.json", "k2", t_end=150.0)]
        assert main(["run", *map(str, configs), "--jobs", "2",
                     "--out", str(tmp_path / "o")]) == 0
        assert ran == [str(c) for c in configs]  # both ran in this process

    def test_a_jobs_batch_loads_no_process_pool(self, tmp_path):
        configs = [_write_cfg(tmp_path / "a.json", "k2", t_end=120.0),
                   _write_cfg(tmp_path / "b.json", "k2", t_end=150.0)]
        code = (
            "import sys\n"
            "from canardctl.cli import main\n"
            f"rc = main(['run', {str(configs[0])!r}, {str(configs[1])!r}, "
            f"'--jobs', '2', '--out', {str(tmp_path / 'o')!r}])\n"
            "assert rc == 0, rc\n"
            "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120).returncode == 0
        assert (tmp_path / "o" / "a" / "metrics.json").exists()
        assert (tmp_path / "o" / "b" / "metrics.json").exists()

    def test_flag_for_ignored_key_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "a.json", "fold-fast", t_end=50.0)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--y_h", "0.5"]) == 2
        assert "unknown parameter 'y_h'" in capsys.readouterr().err
        for flag in ("--K", "--weights"):
            with pytest.raises(SystemExit) as exc:
                main(["run", str(cfg), "--out", str(out), flag, "1"])
            assert exc.value.code == 2

    def test_batch_duplicate_stems_rejected(self, tmp_path, capsys):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        d1.mkdir(), d2.mkdir()
        a = _write_cfg(d1 / "run.json", "k2", t_end=120.0)
        b = _write_cfg(d2 / "run.json", "k2", t_end=120.0)
        assert main(["run", str(a), str(b), "--out", str(tmp_path / "o")]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_batch_worst_exit_code_wins(self, tmp_path):
        good = _write_cfg(tmp_path / "good.json", "k2", t_end=120.0)
        bad = _write_cfg(tmp_path / "bad.json", "k1-vdp", t_end=10.0)
        rc = main(["run", str(good), str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_invalid_config_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text(json.dumps({"experiment": "k2", "params": {"h": 0.1}}))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "h0" in capsys.readouterr().err

    def test_mmo_subcommand(self, tmp_path):
        out = tmp_path / "mmo"
        rc = main(["mmo", "--pattern", "2S:1.25:-0.01", "--eps", "0.01",
                   "--out", str(out)])
        assert rc == 0
        m = json.loads((out / "metrics.json").read_text())
        assert m["results"]["labels"] == "SS"
        assert m["config"]["params"]["pattern"] == "2S:1.25:-0.01"
        # only the keys the run reads are echoed
        assert set(m["config"]["params"]) == {"eps", "c1", "k1", "pattern", "repeat"}

    def test_verify_subcommand(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "15/15" in out
