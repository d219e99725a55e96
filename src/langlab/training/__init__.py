"""Training regimes, batching, the composite step, evaluation, and random
search."""
