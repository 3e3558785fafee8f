"""The repository's end-to-end benchmark (``python3 perfbench/run.py``).

See :mod:`perfbench.run` for the workloads, the metrics and how to run it.
"""
