"""Standalone benchmark of the ``repro`` package (see ``run.py``)."""
