"""Open-team grid worlds: wolfpack and level-based foraging."""
