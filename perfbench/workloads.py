"""The benchmark's workloads and run constants (standard library only, so the
launcher can import it without numpy or openteam).

Each workload is a closed loop: one trainer or one policy steps its
environments synchronously, and the next step starts only when the previous
one has finished. Why each workload exists is recorded in BENCHMARK.json and
README.md.
"""

WORKLOADS = {
    # Headline: batched GPL-Q learner; runs the marginalization on the
    # online and target pathways, BFS-planning wolfpack teammates.
    "train-gplq-wolfpack": {
        "kind": "train",
        "env": "wolfpack",
        "algorithm": "GPL-Q",
        "trace_rate": 25.0,
    },
    # Per-env agent-model loop on padded inputs; never calls utility_rows
    # or the marginalization, so coordination-graph changes must read as
    # "no change" here.
    "train-qlam-lbf": {
        "kind": "train",
        "env": "lbf",
        "algorithm": "QL-AM",
        "trace_rate": 14.0,
    },
    # Forward-only acting at batch size one with teams of up to 5; never
    # calls backward, Adam, Polyak or checkpoint writes.
    "eval-gpl-wolfpack-limit5": {
        "kind": "eval",
        "env": "wolfpack",
        "algorithm": "GPL-Q",
        "team_limit": 5,
        "trace_rate": 1.25,
    },
}

# ``trace_rate``: iterations (train) or episodes (eval) per requested second
# in each fixed-work pass of a traced run; about half the untraced rate, so
# the two passes together take about --seconds.

# Training: iterations run before the timed window opens, and the checkpoint
# interval (env steps) that makes several checkpoints land in every run.
TRAIN_WARMUP_ITERATIONS = 25
CHECKPOINT_INTERVAL = 800
# Evaluation: episodes of the warm-up call, which also sizes the timed call.
EVAL_WARMUP_EPISODES = 2
# Evaluation: act+step calls per latency sample, the 16 env steps a training
# iteration makes. Per-call latency has one mode per team size, and its
# median falls between the one-agent and two-agent modes, where a few
# percent of mass moved by the host's speed phases shifts it by up to 15%.
EVAL_BLOCK_STEPS = 16

# Every pass runs with BLAS pinned to this many threads. On a 2-core host
# OpenBLAS's default second thread only spins (same throughput, twice the CPU)
# and makes each run hostage to when the host schedules both vCPUs.
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh processes timed from spawn to first step, on top of the measured one.
SETUP_PROBES = 10

# Every child process must finish within this many seconds of the launch.
TIME_BUDGET_S = 170.0
