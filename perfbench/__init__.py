"""External benchmark harness for the Skil reproduction (``repro``).

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
