"""Deterministic two-robot simulator for vision-tethered leader following.

An underwater robot holds depth and attitude with its own sensors while a
surface robot tracks waypoints; each watches a fiducial tag on the other and
converts the tag's image position into velocity commands, forming a virtual
elastic tether with no communication link. A conventional one-way visual
servo is included as the comparison baseline.
"""

__version__ = "0.1.0"
