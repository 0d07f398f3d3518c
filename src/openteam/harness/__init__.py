"""Training runs, evaluation, checkpoints, analysis and the command line."""
