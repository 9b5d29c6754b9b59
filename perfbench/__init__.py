"""The repository's wall-clock benchmark: ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, the metrics and how to run
untraced, traced and baseline comparisons.
"""
