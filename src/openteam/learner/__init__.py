"""The coordination-graph learner, its padded-input baselines and the trainer."""
