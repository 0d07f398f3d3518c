"""The refactor guard tools in `tools/`, run as their command lines are."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from openteam.config import NetConfig, default_config
from openteam.harness.run import run_training
from openteam.openness import OpennessConfig

ROOT = Path(__file__).resolve().parent.parent


def tiny_run(out_dir, **kw):
    cfg = default_config("wolfpack", "GPL-Q")
    cfg = replace(
        cfg,
        env=replace(cfg.env, horizon=20),
        parallel_envs=2,
        total_steps=24,
        checkpoint_interval=12,
        net=NetConfig(
            embedding_dim=8,
            utility_hidden=(8, 6),
            edge_hidden=(5, 6),
            node_hidden=(5, 6),
            decoder_hidden=(5,),
            rank=2,
        ),
        openness_train=OpennessConfig((5, 8), (2, 4), 3, ("wolf.H1", "wolf.H2")),
    )
    return run_training(replace(cfg, **kw).validate(), str(out_dir))


def tool(name, *args, timeout=120):
    """Run `tools/<name>` on `args` as its command line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def ckptdiff(a, b):
    return tool("ckptdiff.py", a, b)


class TestCkptdiff:
    def test_same_seed_runs_show_no_metric_difference(self, tmp_path):
        a, b = tiny_run(tmp_path / "a"), tiny_run(tmp_path / "b")
        out = ckptdiff(a, b)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines and all(" max abs 0.000e+00  max rel 0.000e+00" in line for line in lines)
        assert not any(line.startswith("metrics") for line in lines)

    def test_different_checkpoint_names_exit_one(self, tmp_path):
        a = tiny_run(tmp_path / "a")
        b = tiny_run(tmp_path / "b", checkpoint_interval=8)
        out = ckptdiff(a, b)
        assert out.returncode == 1
        assert "checkpoint names differ" in out.stderr


class TestFingerprint:
    def test_short_run_prints_one_row_per_algorithm_and_env(self):
        out = tool("fingerprint.py", "--steps", 32, "--every", 16, timeout=300)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "# steps=32 every=16 OPENBLAS_NUM_THREADS=1"
        row = re.compile(r"\| (\S+) \| (\S+) \| ([0-9a-f]{64}) \| ([0-9a-f]{64}) \|")
        rows = [m and m.groups()[:2] for m in map(row.fullmatch, lines[3:])]
        grid = [(a, e) for a in ("GPL-Q", "GPL-SPI", "QL", "QL-AM") for e in ("wolfpack", "lbf")]
        tails = [(kind, e) for kind in ("supervised", "random") for e in ("wolfpack", "lbf")]
        assert rows == grid + tails
