"""Passive-radar-aided mmWave link configuration, at desk scale.

A passive array at a roadside unit overhears automotive FMCW radars, a
mixing filter bank isolates each vehicle's transmission and estimates its
spatial covariance, small neural networks translate those radar-band
covariance features into communication-band features, and a link-level
simulator quantifies the beam-training overhead those predictions save
against an exhaustive search.
"""

__version__ = "0.1.0"
