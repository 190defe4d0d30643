"""The repository's benchmark of record (``python3 perfbench/run.py``)."""
