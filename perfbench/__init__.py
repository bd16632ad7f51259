"""Seeded benchmark, correctness oracles and span tracer for fluctuation_bounds."""
