"""Steady end-to-end and per-layer benchmark of the 9/5 pipeline and service.

Entry point: ``python3 perfbench/run.py`` (see its docstring).
"""
