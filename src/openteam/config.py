"""Run configuration: environment, openness, networks, training schedule.

Configs round-trip through plain JSON dicts with nested sections; a dict
that omits a key or section loads the value of `default_config`. Defaults
mirror the grid-world setup this package targets: 16 parallel environments,
Adam at 2.5e-4, updates every 4 parallel steps, Polyak 1e-3, rank-5 pairwise
factors, and the 100/70-60/30-70/20 layer widths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .envs import WORLDS
from .envs.base import EnvConfig
from .openness import OpennessConfig

GPL_ALGORITHMS = ("GPL-Q", "GPL-SPI")
ALGORITHMS = (*GPL_ALGORITHMS, "QL", "QL-AM")
ENVS = tuple(WORLDS)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class NetConfig:
    embedding_dim: int = 100
    utility_hidden: tuple[int, ...] = (70, 60)
    edge_hidden: tuple[int, ...] = (30, 70)
    node_hidden: tuple[int, ...] = (30, 70)
    decoder_hidden: tuple[int, ...] = (20,)
    rank: int = 5

    def validate(self):
        sizes = (
            self.embedding_dim,
            *self.utility_hidden,
            *self.edge_hidden,
            *self.node_hidden,
            *self.decoder_hidden,
            self.rank,
        )
        if any(s < 1 for s in sizes):
            raise ConfigError("network sizes must be positive")
        return self


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 1.0
    end: float = 0.05
    anneal_fraction: float = 0.75

    def value(self, step: int, total_steps: int) -> float:
        horizon = max(1, int(self.anneal_fraction * total_steps))
        frac = min(1.0, step / horizon)
        return self.start + frac * (self.end - self.start)

    def validate(self):
        if not (0 <= self.end <= 1 and 0 <= self.start <= 1):
            raise ConfigError("epsilon must stay within [0, 1]")
        if not 0 < self.anneal_fraction <= 1:
            raise ConfigError("anneal fraction must be in (0, 1]")
        return self


@dataclass(frozen=True)
class RunConfig:
    env: EnvConfig
    openness_train: OpennessConfig
    openness_eval: OpennessConfig
    algorithm: str = "GPL-Q"
    net: NetConfig = field(default_factory=NetConfig)
    gamma: float = 0.99
    tau: float = 0.1
    lr: float = 2.5e-4
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    parallel_envs: int = 16
    total_steps: int = 200_000
    update_interval: int = 4
    polyak_alpha: float = 1e-3
    checkpoint_interval: int = 10_000
    max_team_pad: int = 5
    seed: int = 0

    def validate(self) -> "RunConfig":
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.env.name not in ENVS:
            raise ConfigError(f"unknown environment {self.env.name!r}")
        self.net.validate()
        self.epsilon.validate()
        try:
            self.openness_train.validate()
            self.openness_eval.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.algorithm == "GPL-SPI" and self.tau <= 0:
            raise ConfigError("GPL-SPI needs a positive temperature")
        if not 0 <= self.gamma <= 1:
            raise ConfigError("gamma must be in [0, 1]")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.parallel_envs < 1:
            raise ConfigError("need at least one environment")
        if self.total_steps < 0:
            raise ConfigError("total steps must be >= 0")
        if self.update_interval < 1 or self.checkpoint_interval < 1:
            raise ConfigError("intervals must be >= 1")
        if not 0 < self.polyak_alpha <= 1:
            raise ConfigError("polyak alpha must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # Only the padded-input baselines read `max_team_pad`.
        limit = max(self.openness_train.team_limit, self.openness_eval.team_limit)
        if self.algorithm not in GPL_ALGORITHMS and self.max_team_pad < limit:
            raise ConfigError("padded input must cover the largest team limit")
        env, world = self.env, WORLDS[self.env.name]
        for openness in (self.openness_train, self.openness_eval):
            unknown = [t for t in openness.type_pool if t not in world.TEAMMATE_TYPES]
            if unknown:
                raise ConfigError(f"teammate types {unknown} are not {env.name} types")
        if min(env.width, env.height, env.horizon) < 1:
            raise ConfigError("grid width, height and horizon must be >= 1")
        if min(env.prey_count, env.n_objects) < 0:
            raise ConfigError("prey and object counts must be >= 0")
        need = limit + world.cells_needed(env)
        if env.width * env.height < need:
            raise ConfigError(f"a {env.width}x{env.height} grid has fewer than {need} cells")
        return self


def _default_openness(env_name: str, team_limit: int) -> OpennessConfig:
    world = WORLDS[env_name]
    return OpennessConfig(world.ACTIVE_RANGE, world.WAITING_RANGE, team_limit, world.TEAMMATE_TYPES)


def default_config(env_name: str, algorithm: str = RunConfig.algorithm) -> RunConfig:
    return RunConfig(
        env=EnvConfig.defaults(env_name),
        openness_train=_default_openness(env_name, 3),
        openness_eval=_default_openness(env_name, 5),
        algorithm=algorithm,
    ).validate()


def _openness_to_dict(o: OpennessConfig) -> dict:
    return {
        "active": list(o.active_range),
        "waiting": list(o.waiting_range),
        "team_limit": o.team_limit,
        "type_pool": list(o.type_pool),
    }


def _openness_from_dict(d: dict) -> OpennessConfig:
    return OpennessConfig(
        tuple(d["active"]), tuple(d["waiting"]), int(d["team_limit"]), tuple(d["type_pool"])
    )


# `RunConfig` fields with a JSON section or key of their own; every other
# field (gamma ... max_team_pad, in field order) goes into "training".
_OWN_SECTIONS = ("env", "openness_train", "openness_eval", "algorithm", "net", "seed")
_TRAINING = tuple(f.name for f in fields(RunConfig) if f.name not in _OWN_SECTIONS)


def config_to_dict(cfg: RunConfig) -> dict:
    training = {name: getattr(cfg, name) for name in _TRAINING}
    training["epsilon"] = asdict(cfg.epsilon)
    return {
        "environment": asdict(cfg.env),
        "openness": {
            "train": _openness_to_dict(cfg.openness_train),
            "eval": _openness_to_dict(cfg.openness_eval),
        },
        "algorithm": cfg.algorithm,
        "network": asdict(cfg.net),
        "training": training,
        "seed": cfg.seed,
    }


_MISSING = object()


def _object(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"config section {where!r} must be a JSON object")
    return section


def _merged(base, section, where: str, names=None):
    """`base` with each field (of `names`, when given) that `section` (named
    `where`) holds replaced by its value, cast to the type of the value it
    replaces; nested dataclasses merge their own sections. Other keys are
    ignored."""
    section = _object(section, where)
    changes = {}
    for name in names or [f.name for f in fields(base)]:
        new = section.get(name, _MISSING)
        if new is not _MISSING:
            old = getattr(base, name)
            if is_dataclass(old):
                changes[name] = _merged(old, new, f"{where}.{name}")
            else:
                changes[name] = type(old)(new)
    return replace(base, **changes)


def config_from_dict(data: dict) -> RunConfig:
    """The config that `data` describes; omitted keys and sections take the
    values of `default_config` for its environment and algorithm."""
    try:
        env_section = _object(data["environment"], "environment")
        base = default_config(env_section["name"], data.get("algorithm", RunConfig.algorithm))
        cfg = replace(base, env=_merged(base.env, env_section, "environment"))
        openness = _object(data.get("openness", {}), "openness")
        for key in ("train", "eval"):
            if key in openness:
                section = _object(openness[key], f"openness.{key}")
                cfg = replace(cfg, **{f"openness_{key}": _openness_from_dict(section)})
        cfg = replace(cfg, net=_merged(base.net, data.get("network", {}), "network"))
        cfg = _merged(cfg, data.get("training", {}), "training", _TRAINING)
        cfg = _merged(cfg, data, "config", ("seed",))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc
    return cfg.validate()
