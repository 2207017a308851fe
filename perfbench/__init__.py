"""Benchmark of the CSD detection stack (see ``perfbench/run.py``)."""
