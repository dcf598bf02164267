"""Benchmark harness for varorder; the entry point is ``bench/run.py``."""
