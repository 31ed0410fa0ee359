"""Pseudospectral laboratory for the Holm-Staley b-family of equations; each
name is imported from the module that defines it, not from the package root."""

__version__ = "0.1.0"
