"""Finite-element solver for 2D time-dependent superconductivity dynamics.

The package integrates the gauged order-parameter / vector-potential system
on triangle meshes with a decoupled scheme: an implicit step for the vector
potential and a stabilized exponential step for the order parameter, with
per-step runtime verification of energy dissipation and the unit modulus
bound. See ``README.md`` for the command line and the config format.

Import from the submodules (``tdglfem.stepper``, ``tdglfem.scenarios``, ...).
This file imports none of them, so the command line can configure the
environment (thread caps) before numpy loads.
"""

__version__ = "0.1.0"
