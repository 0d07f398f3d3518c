"""Command line interface.

Subcommands: train, eval, analyze, gradcheck, oracle. Exit codes: 0 success,
1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ..config import ConfigError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="openteam")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training job")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--config", required=True)
    ev.add_argument("--episodes", type=int, required=True)
    ev.add_argument("--team-limit", type=int, default=None)
    ev.add_argument("--seed", type=int, default=0)

    an = sub.add_parser("analyze", help="pairwise utility analysis")
    an.add_argument("--checkpoint", required=True)
    an.add_argument("--config", required=True)
    an.add_argument("--out", required=True)
    an.add_argument("--episodes", type=int, default=10)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--literal-deviation", action="store_true")

    gc = sub.add_parser("gradcheck", help="run the gradient-check suite")
    gc.add_argument("--instances", type=int, default=20)
    gc.add_argument("--seed", type=int, default=0)

    orc = sub.add_parser("oracle", help="run the marginalization brute-force suite")
    orc.add_argument("--instances", type=int, default=1000)
    orc.add_argument("--seed", type=int, default=0)

    return parser


def cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    try:
        if args.command == "train":
            from .run import load_config, run_training

            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed).validate()
            out = run_training(cfg, args.out)
            print(f"run complete: {out}")
            return 0

        if args.command == "eval":
            from .run import evaluate, load_config

            if args.episodes < 1:
                print("error: --episodes must be >= 1", file=sys.stderr)
                return 2
            cfg = load_config(args.config)
            record = evaluate(
                args.checkpoint, cfg, args.episodes, args.seed, team_limit=args.team_limit
            )
            print(record.to_json())
            return 0

        if args.command == "analyze":
            from .analyze import analyze_pairwise, write_analysis
            from .run import load_config

            cfg = load_config(args.config)
            result = analyze_pairwise(
                args.checkpoint,
                cfg,
                episodes=args.episodes,
                seed=args.seed,
                literal=args.literal_deviation,
            )
            write_analysis(result, args.out)
            print(f"analysis written: {args.out}")
            return 0

        if args.command == "gradcheck":
            from .suites import gradient_suite

            label, err = gradient_suite(instances=args.instances, seed=args.seed)
            print(f"max gradient error {err:.3e} ({label})")
            return 0 if err <= 1e-4 else 1

        if args.command == "oracle":
            from .suites import marginalization_suite

            worst = marginalization_suite(instances=args.instances, seed=args.seed)
            print(f"worst marginalization relative error {worst:.3e}")
            return 0 if worst <= 1e-6 else 1
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


# (prefix, suffix) of the thread-count symbols of the OpenBLAS builds numpy ships.
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def _openblas(verb):
    """(library file name, `<verb>_num_threads` function) of the OpenBLAS
    that numpy loaded, or (None, None) without one."""
    import ctypes
    from pathlib import Path

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
            if fn is not None:
                return path.name, fn
    return None, None


def pin_blas_threads():
    """Run the OpenBLAS that numpy loaded on one thread (no-op without one).

    Training bytes differ between BLAS thread counts, and a second job on the
    machine makes extra threads contend. The library is already loaded by the
    time `main` runs, so an environment variable would come too late.
    """
    import ctypes

    _, fn = _openblas("set")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(1)


def blas_threads() -> dict:
    """The loaded OpenBLAS's file name and the thread count it reports (both
    None without OpenBLAS)."""
    import ctypes

    name, fn = _openblas("get")
    if fn is None:
        return {"library": None, "threads": None}
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return {"library": name, "threads": int(fn())}


def main():
    pin_blas_threads()
    sys.exit(cli(sys.argv[1:]))
