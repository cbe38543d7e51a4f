"""Desk-scale range-Doppler detection workbench.

Synthesizes FMCW IF data cubes with extended fluctuating targets, forms
range-Doppler maps, and compares two detectors on them: a histogram-driven
spline-network (KAN) classifier swept over RD segments, and a 2-D
ordered-statistic CFAR baseline.
"""

__version__ = "0.1.0"
