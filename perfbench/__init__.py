"""Benchmark for stepquiver; see README.md."""
