"""Benchmark for the SWAT reproduction: four seeded workloads, end-to-end and per-layer metrics."""
