"""Layered benchmark of the admission engine (see ``run.py`` for usage)."""
