"""The exploration-session benchmark (see README.md in this directory).

``run.py`` measures one workload per invocation and prints the result line
the driver reads; ``python -m benchmarks.e2e`` runs sets of them, writes
``result.json`` and compares two sets.  Every layer is timed from outside,
through public functions only: nothing under ``src/`` knows it is measured.
"""
