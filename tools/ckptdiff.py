"""Parameter and metric differences between two training run directories.

For every pair of same-named checkpoints prints, per store, the largest
absolute and the largest relative parameter difference; then prints every
``metrics.jsonl`` field that differs. Exits 1 when the checkpoint, store or
parameter names or a parameter shape differ.

    PYTHONPATH=src python3 tools/ckptdiff.py RUN_A RUN_B
"""

import json
import sys
from pathlib import Path

import numpy as np

from openteam.harness.checkpoint import load_checkpoint


def main(a, b):
    ckpts = sorted(p.name for p in Path(a).glob("ckpt_*.otck"))
    if ckpts != sorted(p.name for p in Path(b).glob("ckpt_*.otck")):
        sys.exit(f"checkpoint names differ between {a} and {b}")
    for name in ckpts:
        sa, sb = load_checkpoint(Path(a) / name)[0], load_checkpoint(Path(b) / name)[0]
        if list(sa) != list(sb):
            sys.exit(f"{name}: stores {list(sa)} != {list(sb)}")
        for store in sa:
            if sa[store].shapes() != sb[store].shapes():
                sys.exit(f"{name} {store}: parameter names or shapes differ")
            x, y = sa[store].vector, sb[store].vector
            diff = float(np.max(np.abs(x - y), initial=0.0))
            rel = float(
                np.max(np.abs(x - y) / np.maximum(np.maximum(abs(x), abs(y)), 1e-300), initial=0.0)
            )
            print(f"{name} {store}: max abs {diff:.3e}  max rel {rel:.3e}")
    lines = [(Path(d) / "metrics.jsonl").read_text().splitlines() for d in (a, b)]
    if len(lines[0]) != len(lines[1]):
        sys.exit(f"metrics.jsonl: {len(lines[0])} records != {len(lines[1])}")
    for ra, rb in zip(*([json.loads(line) for line in side] for side in lines)):
        for key in ra:
            if ra[key] != rb.get(key):
                print(f"metrics step {ra['global_step']} {key}: {ra[key]!r} != {rb.get(key)!r}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
