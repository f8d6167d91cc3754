"""Offline backward Q-learning with tolerance-based near-equivalent policy sets."""

__version__ = "0.1.0"
