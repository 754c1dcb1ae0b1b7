"""The repository benchmark: two seeded workloads, checked answers, per-layer traces.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
