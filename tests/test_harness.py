import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import openteam
from openteam import nn
from openteam.config import (
    ConfigError,
    EpsilonSchedule,
    NetConfig,
    config_from_dict,
    config_to_dict,
    default_config,
)
from openteam.harness import checkpoint, run
from openteam.harness.analyze import action_mean, analyze_pairwise, deviation
from openteam.harness.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from openteam.harness.cli import cli
from openteam.harness.metrics import MetricRecord, read_records
from openteam.harness.run import (
    config_hash,
    evaluate,
    load_config,
    random_policy_record,
    run_training,
)
from openteam.learner.trainer import Trainer
from openteam.openness import OpennessConfig

SMALL_NET = NetConfig(
    embedding_dim=8,
    utility_hidden=(8, 6),
    edge_hidden=(5, 6),
    node_hidden=(5, 6),
    decoder_hidden=(5,),
    rank=2,
)


def tiny_cfg(algorithm="GPL-Q", env="wolfpack", **kw):
    cfg = default_config(env, algorithm)
    pool = ("wolf.H1", "wolf.H2") if env == "wolfpack" else ("lbf.H3", "lbf.H6")
    cfg = replace(
        cfg,
        env=replace(cfg.env, horizon=20),
        parallel_envs=2,
        total_steps=24,
        checkpoint_interval=12,
        net=SMALL_NET,
        openness_train=OpennessConfig((5, 8), (2, 4), 3, pool),
        openness_eval=OpennessConfig((5, 8), (2, 4), 5, pool),
    )
    return replace(cfg, **kw).validate()


# SHA-256 of the config.json text and config_hash of every default config.
DEFAULT_DIGESTS = {
    ("GPL-Q", "wolfpack"): (
        "317e60b95735137353ee8d691726bb426d0e1f5b9c61d572cab722bbf82a92ec",
        "16af3df65e918a88",
    ),
    ("GPL-Q", "lbf"): (
        "8e00c081e3769c4592b5b9e9ed907a16eb765f84bb475e85727a91c3107723e5",
        "4b260d7ebff2880a",
    ),
    ("GPL-SPI", "wolfpack"): (
        "378068d315ffa301ad8c7c8a1b5e33fb1de28f506a63fa405d632715a3d29a9d",
        "7643fe258ec32a88",
    ),
    ("GPL-SPI", "lbf"): (
        "d8fc84ec8eeeec7ef5c9967495085dc7a03602f6498d46f775676260614d5ca5",
        "926cae3836ec9faa",
    ),
    ("QL", "wolfpack"): (
        "1aebbc9a42e52e16e6e24380e75ef95b6888f391385eec4420ca9abb40ca8996",
        "6d8bf431be7ba034",
    ),
    ("QL", "lbf"): (
        "025178ff4f0da18d4560075ea969ff3b3f1b83a19f52d8417c3abadf2c6371f1",
        "c527d278b44bd45d",
    ),
    ("QL-AM", "wolfpack"): (
        "b4c639763d03cad1dc3c4214663e22283b244130eb1095427113c1b9993278cb",
        "b41f8bce15a17de1",
    ),
    ("QL-AM", "lbf"): (
        "61f5462d09e64f6f40d2d969cfa61846424542bf252ae9f64c66a7cdd7c4badb",
        "0da4a9a7075fdbc0",
    ),
}


def as_json(data):
    return json.loads(json.dumps(data))


def lookup(data, path):
    for key in path:
        data = data[key]
    return data


def every_field_changed(env):
    """A valid config that differs from `default_config(env)` in every key."""
    base = default_config(env)
    pool = base.openness_train.type_pool[:2]
    return replace(
        base,
        env=replace(
            base.env,
            width=base.env.width + 1,
            height=base.env.height + 2,
            horizon=30,
            n_objects=4,
            prey_count=3,
        ),
        openness_train=OpennessConfig((5, 8), (2, 4), 2, pool),
        openness_eval=OpennessConfig((6, 9), (3, 5), 4, pool),
        algorithm="QL-AM",
        net=NetConfig(8, (8, 6), (5, 6), (5, 7), (5,), 2),
        gamma=0.9,
        tau=0.3,
        lr=1e-3,
        epsilon=EpsilonSchedule(0.8, 0.1, 0.5),
        parallel_envs=2,
        total_steps=24,
        update_interval=2,
        polyak_alpha=0.01,
        checkpoint_interval=12,
        max_team_pad=6,
        seed=7,
    ).validate()


def _optional_keys(data, path=()):
    """Every key path a config dict may omit; an openness section counts as
    one key, since it needs all of its own."""
    for key, value in data.items():
        here = (*path, key)
        if here == ("environment", "name"):
            continue
        if isinstance(value, dict) and path != ("openness",):
            yield from _optional_keys(value, here)
        else:
            yield here


OPTIONAL_KEYS = list(_optional_keys(config_to_dict(default_config("wolfpack"))))


# Per config section, an edit that makes it something other than a JSON object.
NOT_OBJECTS = {
    "environment": lambda d: d.update(environment=["wolfpack"]),
    "openness": lambda d: d.update(openness=[]),
    "openness.train": lambda d: d["openness"].update(train=3),
    "openness.eval": lambda d: d["openness"].update(eval="x"),
    "network": lambda d: d.update(network="x"),
    "training": lambda d: d.update(training=[]),
    "training.epsilon": lambda d: d["training"].update(epsilon=5),
}


def grid_edit(width, height, team_limit, **counts):
    """A config edit to a `width` x `height` grid, `team_limit` agents at
    most and the prey or object `counts`."""

    def edit(data):
        data["environment"].update(width=width, height=height, **counts)
        for key in ("train", "eval"):
            data["openness"][key]["team_limit"] = team_limit

    return edit


def pool_edit(key, pool):
    return lambda data: data["openness"][key].update(type_pool=pool)


# Configs that used to load and then fail in the first steps of a run: a
# teammate type from no pool or from the other env's, a degenerate grid or
# horizon, a negative count, and grids with too few cells for the largest
# team plus the prey or objects (wolfpack needs one spare cell, since a
# capture respawns its prey while the old cell still counts as occupied).
IMPOSSIBLE = {
    "unknown type": ("wolfpack", pool_edit("train", ["wolf.H5"])),
    "lbf type on wolfpack": ("wolfpack", pool_edit("train", ["lbf.H1"])),
    "wolfpack type at eval on lbf": ("lbf", pool_edit("eval", ["lbf.H3", "wolf.H2"])),
    "width 0": ("wolfpack", lambda d: d["environment"].update(width=0)),
    "height 0": ("lbf", lambda d: d["environment"].update(height=0)),
    "horizon 0": ("lbf", lambda d: d["environment"].update(horizon=0)),
    "negative prey": ("wolfpack", lambda d: d["environment"].update(prey_count=-1)),
    "negative objects": ("lbf", lambda d: d["environment"].update(n_objects=-1)),
    "full wolfpack grid": ("wolfpack", grid_edit(2, 2, 2, prey_count=2)),
    "lbf grid one cell short": ("lbf", grid_edit(2, 2, 2, n_objects=3)),
    "negative seed": ("wolfpack", lambda d: d.update(seed=-3)),
}
# The tightest grids that load, one per env.
TIGHTEST = {"wolfpack": grid_edit(2, 2, 2, prey_count=1), "lbf": grid_edit(2, 2, 2, n_objects=2)}


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_cfg()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_defaults_mirror_documented_values(self):
        cfg = default_config("wolfpack")
        assert cfg.parallel_envs == 16
        assert cfg.lr == 2.5e-4
        assert cfg.update_interval == 4
        assert cfg.polyak_alpha == 1e-3
        assert cfg.net.rank == 5
        assert cfg.net.embedding_dim == 100
        assert cfg.net.utility_hidden == (70, 60)
        assert cfg.openness_train.active_range == (25, 35)
        assert cfg.openness_train.waiting_range == (15, 25)
        assert cfg.openness_train.team_limit == 3
        assert cfg.openness_eval.team_limit == 5
        lbf = default_config("lbf")
        assert lbf.openness_train.active_range == (15, 25)
        assert lbf.openness_train.waiting_range == (10, 20)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(algorithm="SARSA")
        with pytest.raises(ConfigError):
            tiny_cfg(gamma=1.5)
        with pytest.raises(ConfigError):
            tiny_cfg(algorithm="GPL-SPI", tau=0.0)
        with pytest.raises(ConfigError):
            config_from_dict({"environment": {"name": "chess"}})

    @pytest.mark.parametrize("pair", sorted(DEFAULT_DIGESTS), ids="-".join)
    def test_default_config_layout_is_frozen(self, pair, tmp_path, monkeypatch):
        # config_hash stamps every checkpoint, so neither may change.
        monkeypatch.setattr(run, "train", lambda cfg, on_record: None)
        cfg = default_config(pair[1], pair[0])
        text = (run_training(cfg, tmp_path) / "config.json").read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        assert (digest, config_hash(cfg)) == DEFAULT_DIGESTS[pair]

    @pytest.mark.parametrize("path", OPTIONAL_KEYS, ids=".".join)
    def test_omitted_key_loads_the_default(self, path):
        for env in ("wolfpack", "lbf"):
            changed = as_json(config_to_dict(every_field_changed(env)))
            default = as_json(config_to_dict(default_config(env)))
            assert lookup(changed, path) != lookup(default, path)
            data = as_json(changed)
            del lookup(data, path[:-1])[path[-1]]
            expected = as_json(changed)
            lookup(expected, path[:-1])[path[-1]] = lookup(default, path)
            assert as_json(config_to_dict(config_from_dict(data))) == expected, env

    def test_missing_environment_name_rejected(self):
        data = config_to_dict(tiny_cfg())
        del data["environment"]["name"]
        with pytest.raises(ConfigError, match="malformed config: 'name'"):
            config_from_dict(data)

    @pytest.mark.parametrize("key", ["active", "waiting", "team_limit", "type_pool"])
    def test_openness_section_needs_every_key(self, key):
        data = config_to_dict(tiny_cfg())
        del data["openness"]["eval"][key]
        with pytest.raises(ConfigError, match=f"malformed config: '{key}'"):
            config_from_dict(data)

    def test_unknown_keys_ignored(self):
        cfg = tiny_cfg()
        data = config_to_dict(cfg)
        for section in (data, data["environment"], data["network"], data["training"]):
            section["bogus"] = 1
        data["training"]["seed"] = 99  # the seed is a top-level key
        data["training"]["epsilon"]["bogus"] = 1
        assert config_from_dict(data) == cfg

    @pytest.mark.parametrize("where", list(NOT_OBJECTS))
    def test_section_must_be_an_object(self, where):
        data = config_to_dict(tiny_cfg())
        NOT_OBJECTS[where](data)
        with pytest.raises(ConfigError, match=f"section '{where}' must be a JSON object"):
            config_from_dict(data)

    @pytest.mark.parametrize("case", list(IMPOSSIBLE))
    def test_impossible_runs_rejected(self, case, tmp_path):
        env, edit = IMPOSSIBLE[case]
        data = config_to_dict(default_config(env))
        edit(data)
        with pytest.raises(ConfigError):
            config_from_dict(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("env", list(TIGHTEST))
    def test_tightest_grid_runs(self, env):
        data = config_to_dict(tiny_cfg(env=env))
        TIGHTEST[env](data)
        trainer = Trainer(config_from_dict(data))
        for _ in range(100):
            trainer.run_iteration()
        assert trainer.global_step == 200

    def test_unknown_environment_rejected(self):
        # A config built in Python may name any environment; JSON configs
        # are checked when they load (test_invalid_configs_rejected).
        for env in ("wolfpack", "lbf"):
            cfg = default_config(env)
            chess = replace(cfg, env=replace(cfg.env, name="chess"))
            with pytest.raises(ConfigError, match="unknown environment 'chess'"):
                chess.validate()
            with pytest.raises(ConfigError, match="unknown environment 'chess'"):
                Trainer(chess)

    def test_known_configs_load(self):
        for env in ("wolfpack", "lbf"):
            for algorithm in ("GPL-Q", "GPL-SPI", "QL", "QL-AM"):
                assert default_config(env, algorithm).validate().env.name == env
                assert tiny_cfg(algorithm, env).validate().env.name == env

    def test_team_pad_binds_only_the_padded_baselines(self):
        for algorithm in ("QL", "QL-AM"):
            with pytest.raises(ConfigError, match="padded input"):
                tiny_cfg(algorithm, max_team_pad=4)
        for algorithm in ("GPL-Q", "GPL-SPI"):
            assert tiny_cfg(algorithm, max_team_pad=4).max_team_pad == 4


def shape_edit(shape):
    """A manifest edit that gives the first parameter of store "value" `shape`."""

    def edit(manifest):
        manifest["stores"]["value"][0][1] = shape
        return manifest

    return edit


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        stores = {
            "value": nn.ParamStore({"w": rng.normal(size=(7, 3)), "b": rng.normal(size=3)}),
            "agent_model": nn.ParamStore({"w": rng.normal(size=(2, 2))}),
        }
        path = tmp_path / "x.otck"
        save_checkpoint(stores, path, config_hash="abc", global_step=17)
        loaded, manifest = load_checkpoint(path)
        assert manifest["global_step"] == 17 and manifest["config_hash"] == "abc"
        for name, store in stores.items():
            for pname in store.names():
                assert store[pname].data.tobytes() == loaded[name][pname].data.tobytes()

    def test_payload_is_the_store_vectors_in_manifest_order(self, tmp_path):
        rng = np.random.default_rng(1)
        stores = {
            "value": nn.ParamStore({"w": rng.normal(size=(7, 3)), "b": rng.normal(size=3)}),
            "agent_model": nn.ParamStore({"w": rng.normal(size=(2, 2)), "s": rng.normal(size=())}),
        }
        path = tmp_path / "x.otck"
        save_checkpoint(stores, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        assert manifest["stores"] == {
            "value": [["w", [7, 3]], ["b", [3]]],
            "agent_model": [["w", [2, 2]], ["s", []]],
        }
        vectors = [store.vector.astype("<f8").tobytes() for store in stores.values()]
        assert payload == b"".join(vectors)

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "QL-AM"])
    def test_saved_stores_do_not_change_while_training_goes_on(self, tmp_path, algorithm):
        # Updates write the trainer's stores in place, and `stores()` hands
        # out copies: the stores a checkpoint was written from still hold the
        # checkpoint's bytes after more Adam and Polyak steps.
        trainer = Trainer(tiny_cfg(algorithm))
        for _ in range(3):
            trainer.run_iteration()
        stores = trainer.stores()
        path = tmp_path / "x.otck"
        save_checkpoint(stores, path)
        for _ in range(8):
            trainer.run_iteration()
        assert trainer.value_fit.opt.step == 2
        assert trainer.value_params.vector.tobytes() != stores["value"].vector.tobytes()
        loaded, _ = load_checkpoint(path)
        for name, store in stores.items():
            for pname, t in store.items():
                assert loaded[name][pname].data.tobytes() == t.data.tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        stores = {"value": nn.ParamStore({"w": np.ones((4, 4))})}
        path = tmp_path / "x.otck"
        save_checkpoint(stores, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="length"):
            load_checkpoint(path)

    def test_manifest_shape_edit_rejected(self, tmp_path):
        stores = {"value": nn.ParamStore({"w": np.ones((4, 4))})}
        path = tmp_path / "x.otck"
        save_checkpoint(stores, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(header)
        manifest["stores"]["value"][0][1] = [2, 4]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "x.otck"
        save_checkpoint({"value": nn.ParamStore({"w": np.ones((4, 4))})}, path, global_step=1)
        before = path.read_bytes()

        class FullDisk:
            # Writes the first half of every chunk, then fails.
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(
            checkpoint, "open", lambda name, mode: FullDisk(open(name, mode)), raising=False
        )
        with pytest.raises(OSError):
            save_checkpoint({"value": nn.ParamStore({"w": np.zeros((4, 4))})}, path, global_step=2)
        assert path.read_bytes() == before

    def test_payload_reaches_disk_before_the_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "x.otck"
        stores = {"value": nn.ParamStore({"w": np.arange(12.0).reshape(3, 4)})}
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            # Everything written so far is in the file, not in Python's buffer.
            events.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.path.getsize(src)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        save_checkpoint(stores, path, global_step=3)
        size = path.stat().st_size
        assert events == [("fsync", size), ("replace", size)]
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded["value"]["w"].data, stores["value"]["w"].data)

    def test_garbage_manifest_rejected(self, tmp_path):
        path = tmp_path / "x.otck"
        path.write_bytes(b"\x80\x81 not json\n12345678")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda m: {k: v for k, v in m.items() if k != "stores"}, "stores is None"),
            (lambda m: [m], "a JSON list"),
            (shape_edit("ab"), "entry \\['w', 'ab'\\]"),
            (shape_edit([-2]), "entry \\['w', \\[-2\\]\\]"),
            (lambda m: {**m, "global_step": "12"}, "global step '12'"),
        ],
        ids=["no-stores", "list", "shape-string", "shape-negative", "step-string"],
    )
    def test_malformed_manifest_rejected(self, tmp_path, edit, problem):
        # Manifests that parse as JSON but do not describe the payload.
        path = tmp_path / "x.otck"
        save_checkpoint({"value": nn.ParamStore({"w": np.ones((4, 4))})}, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match=problem):
            load_checkpoint(path)


class TestRunTraining:
    def test_outputs_and_checkpoint_count(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        files = sorted(os.listdir(out))
        ckpts = [f for f in files if f.endswith(".otck")]
        # floor(total / interval) + 1 checkpoints, including step 0
        assert len(ckpts) == cfg.total_steps // cfg.checkpoint_interval + 1
        assert "config.json" in files and "metrics.jsonl" in files
        records = read_records(os.path.join(out, "metrics.jsonl"))
        assert [r.global_step for r in records] == [0, 12, 24]

    def test_run_directory_names_blas_threads(self, tmp_path):
        out = run_training(tiny_cfg(total_steps=0), tmp_path / "run")
        with open(os.path.join(out, "blas.json"), encoding="utf-8") as fh:
            blas = json.load(fh)
        # The test session pins OpenBLAS to one thread (conftest.py).
        assert blas == {"library": blas["library"], "threads": 1 if blas["library"] else None}

    def test_zero_steps_initial_checkpoint_only(self, tmp_path):
        cfg = tiny_cfg(total_steps=0)
        out = run_training(cfg, tmp_path / "run")
        ckpts = [f for f in os.listdir(out) if f.endswith(".otck")]
        assert ckpts == ["ckpt_000000000.otck"]

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg = tiny_cfg(total_steps=40, checkpoint_interval=20)
        out1 = run_training(cfg, tmp_path / "a")
        out2 = run_training(cfg, tmp_path / "b")
        m1 = open(os.path.join(out1, "metrics.jsonl"), "rb").read()
        m2 = open(os.path.join(out2, "metrics.jsonl"), "rb").read()
        assert m1 == m2
        for name in sorted(os.listdir(out1)):
            if name.endswith(".otck"):
                a = open(os.path.join(out1, name), "rb").read()
                b = open(os.path.join(out2, name), "rb").read()
                assert a == b, name

    def test_metric_stream_is_strict_jsonl(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        with open(os.path.join(out, "metrics.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                assert isinstance(record["global_step"], int)


class TestEvaluate:
    def test_limit3_checkpoint_evaluates_under_limit5(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        record = evaluate(ckpt, cfg, episodes=3, seed=5, team_limit=5)
        assert record.episodes == 3
        assert record.mean_return is not None and record.ci95 is not None

    def test_wolfpack_alone_cannot_score(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        record = evaluate(ckpt, cfg, episodes=4, seed=2, team_limit=1)
        assert record.mean_return <= 0.0

    def test_same_seed_identical_record(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        a = evaluate(ckpt, cfg, episodes=3, seed=9)
        b = evaluate(ckpt, cfg, episodes=3, seed=9)
        assert a == b

    def test_incompatible_checkpoint_rejected_with_diff(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        wider = replace(cfg, net=replace(cfg.net, embedding_dim=12)).validate()
        with pytest.raises(CheckpointError, match="expected"):
            evaluate(ckpt, wider, episodes=1, seed=0)

    @pytest.mark.parametrize("algorithm", ["GPL-Q", "GPL-SPI", "QL", "QL-AM"])
    def test_compatibility_check_draws_no_weights(self, algorithm, monkeypatch):
        cfg = tiny_cfg(algorithm)
        stores = Trainer(cfg).stores()

        def no_draw(*args):
            raise AssertionError("drew a weight")

        monkeypatch.setattr(nn, "_uniform_fan_in", no_draw)
        run._check_compatible(cfg, stores)
        wider = replace(cfg, net=replace(cfg.net, embedding_dim=12)).validate()
        with pytest.raises(CheckpointError, match="expected"):
            run._check_compatible(wider, stores)

    @pytest.mark.parametrize("algorithm", ["QL", "QL-AM"])
    def test_baseline_checkpoints_evaluate(self, tmp_path, algorithm):
        for env in ("wolfpack", "lbf"):
            cfg = tiny_cfg(algorithm, env)
            out = run_training(cfg, tmp_path / env)
            ckpt = os.path.join(out, "ckpt_000000024.otck")
            record = evaluate(ckpt, cfg, episodes=2, seed=3, team_limit=5)
            assert record.episodes == 2 and np.isfinite(record.mean_return), env

    def test_zero_episodes_rejected(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        with pytest.raises(ConfigError):
            evaluate(ckpt, cfg, episodes=0, seed=0)


class TestAnalysis:
    def test_zero_table_gives_zero_metrics(self):
        table = np.zeros((5, 5))
        assert action_mean(table, 2) == 0.0
        assert deviation(table, 1, 3) == 0.0

    def test_constant_table_has_zero_deviation(self):
        table = np.full((4, 4), 0.7)
        for a in range(4):
            for b in range(4):
                assert deviation(table, a, b) == pytest.approx(0.0, abs=1e-12)

    def test_random_tables_match_two_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            table = rng.normal(size=(5, 5))
            aj, ak = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            mean_oracle = sum(table[aj, b] for b in range(5)) / 5
            assert abs(action_mean(table, aj) - mean_oracle) <= 1e-12
            rest = sum(
                table[x, y] for x in range(5) for y in range(5) if (x, y) != (aj, ak)
            )
            dev_oracle = table[aj, ak] - rest / (25 - 1)
            assert abs(deviation(table, aj, ak) - dev_oracle) <= 1e-12
            literal_rest = sum(
                table[x, y] for x in range(5) for y in range(5) if x != aj and y != ak
            )
            literal_oracle = table[aj, ak] - literal_rest / (25 - 1)
            assert abs(deviation(table, aj, ak, literal=True) - literal_oracle) <= 1e-12

    def test_analyze_pairwise_end_to_end(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        result = analyze_pairwise(ckpt, cfg, episodes=2, seed=1)
        assert len(result["episodes"]) == 2
        assert "pair_action_value_vs_return" in result["correlations"]

    @pytest.mark.parametrize(
        "net", [{"rank": SMALL_NET.rank + 1}, {"embedding_dim": 12}], ids=["rank", "embedding"]
    )
    def test_incompatible_checkpoint_rejected_with_diff(self, tmp_path, net):
        # The same check as `evaluate`, before any episode runs.
        cfg = tiny_cfg()
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        other = replace(cfg, net=replace(cfg.net, **net)).validate()
        with pytest.raises(CheckpointError, match="expected"):
            analyze_pairwise(ckpt, other, episodes=1, seed=0)

    def test_non_gpl_checkpoint_rejected(self, tmp_path):
        cfg = tiny_cfg("QL")
        out = run_training(cfg, tmp_path / "run")
        ckpt = os.path.join(out, "ckpt_000000024.otck")
        with pytest.raises(CheckpointError):
            analyze_pairwise(ckpt, cfg, episodes=1, seed=0)


class TestCli:
    def test_main_pins_one_blas_thread(self):
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        found = sorted(libs.glob("*openblas*")) if libs.is_dir() else []
        if not found:
            pytest.skip("numpy bundles no OpenBLAS")
        # OPENBLAS_NUM_THREADS=2 sets the count at load; main() must still run on one.
        script = f"""
import ctypes
from openteam.harness import cli
lib = ctypes.CDLL({str(found[0])!r})
symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
get = next(getattr(lib, s) for s in symbols if hasattr(lib, s))
get.restype = ctypes.c_int
cli.cli = lambda argv: print(get()) or 0
cli.main()
"""
        src = str(Path(openteam.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1"]

    def write_cfg(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(config_to_dict(cfg), fh)
        return path

    def test_train_eval_analyze_chain(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        run_dir = tmp_path / "run"
        assert cli(["train", "--config", str(cfg_path), "--out", str(run_dir), "--seed", "3"]) == 0
        ckpt = str(run_dir / "ckpt_000000024.otck")
        assert cli(["eval", "--checkpoint", ckpt, "--config", str(cfg_path), "--episodes", "2"]) == 0
        out = tmp_path / "analysis.json"
        assert (
            cli(["analyze", "--checkpoint", ckpt, "--config", str(cfg_path), "--out", str(out)])
            == 0
        )
        assert out.exists()

    def test_bad_openness_range_exits_2(self, tmp_path, capsys):
        data = config_to_dict(tiny_cfg())
        data["openness"]["train"]["active"] = [5, 2]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert cli(["eval", "--checkpoint", "x", "--config", str(path), "--episodes", "1"]) == 2
        assert capsys.readouterr().err.count("invalid duration range [5, 2]") == 2

    def test_eval_team_limit_is_validated(self, tmp_path, capsys):
        for algorithm, limit, rc, message in (
            ("QL", "0", 2, "team limit must be >= 1"),
            ("QL", "8", 2, "padded input must cover the largest team limit"),
            ("GPL-Q", "8", 0, '"episodes":1'),
        ):
            cfg = tiny_cfg(algorithm, total_steps=0)
            run_dir = run_training(cfg, tmp_path / f"{algorithm}-{limit}")
            args = ["eval", "--checkpoint", os.path.join(run_dir, "ckpt_000000000.otck")]
            args += ["--config", os.path.join(run_dir, "config.json"), "--episodes", "1"]
            assert cli(args + ["--team-limit", limit]) == rc, (algorithm, limit)
            captured = capsys.readouterr()
            assert message in captured.out + captured.err

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        run_dir = run_training(tiny_cfg(total_steps=0), tmp_path / "run")
        cfg_path = os.path.join(run_dir, "config.json")
        fresh, analysis = tmp_path / "fresh", tmp_path / "analysis.json"
        assert cli(["train", "--config", cfg_path, "--out", str(fresh), "--seed", "-1"]) == 2
        args = ["--checkpoint", os.path.join(run_dir, "ckpt_000000000.otck")]
        args += ["--config", cfg_path, "--seed", "-1"]
        assert cli(["eval", *args, "--episodes", "1"]) == 2
        assert cli(["analyze", *args, "--out", str(analysis)]) == 2
        assert not fresh.exists() and not analysis.exists()
        assert capsys.readouterr().err.count("--seed must be >= 0") == 3

    def test_zero_episodes_usage_error(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        rc = cli(["eval", "--checkpoint", "x", "--config", str(cfg_path), "--episodes", "0"])
        assert rc == 2

    def test_unknown_flags_usage_error(self):
        assert cli(["train", "--bogus"]) == 2
        assert cli(["frobnicate"]) == 2

    def test_missing_config_usage_error(self, tmp_path):
        assert cli(["train", "--out", str(tmp_path)]) == 2

    def test_oracle_subcommand_passes(self):
        assert cli(["oracle", "--instances", "25"]) == 0

    def test_gradcheck_subcommand_passes(self):
        assert cli(["gradcheck", "--instances", "2"]) == 0


def test_random_policy_record_shape():
    cfg = tiny_cfg()
    record = random_policy_record(cfg, episodes=3, seed=0)
    assert record.episodes == 3 and record.ci95 >= 0
