"""Functional verification substrate."""

from .equiv import networks_equivalent

__all__ = ["networks_equivalent"]
