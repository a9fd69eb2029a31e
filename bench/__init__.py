"""Benchmark harness for chronolm: see run.py."""
