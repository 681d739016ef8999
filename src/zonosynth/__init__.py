"""Decentralized viable-set and controller synthesis for coupled linear systems.

Subpackages/modules:

- ``geom``      zonotopes and the LP-based set operations on them
- ``lpcore``    sparse linear programs over column and row indices (HiGHS)
- ``sysmodel``  network/subsystem data model and JSON I/O
- ``viability`` finite-horizon viable sets and robust control invariant sets
- ``contracts`` parametric assume-guarantee contracts and the potential function
- ``synthesis`` compositional (a level master by default, the paper's
                subgradient rule as the baseline) and centralized synthesis
- ``runtime``   decentralized controllers and Monte-Carlo invariance checks
- ``cli``       command-line entry points
"""

__version__ = "0.1.0"
