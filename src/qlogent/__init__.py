"""Logical entropies of classical partitions and quantum states."""

__version__ = "0.1.0"
