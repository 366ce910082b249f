"""Likelihood-ratio norms and spiked-matrix experiments for the six
quadratic-variance exponential families."""

__version__ = "0.1.0"
