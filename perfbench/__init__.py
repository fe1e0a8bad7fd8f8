"""Benchmark of the fewner toolkit; see README.md in this directory."""
