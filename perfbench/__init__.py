"""Offline benchmark for spokenud; run it with ``python3 perfbench/run.py``."""
