"""Spatio-temporal lattice models for dense irradiance sensor networks.

The package root holds only the version; library code imports from the
submodules (``skylattice.core``, ``skylattice.fcar``, ``skylattice.fcsar``,
``skylattice.spatial``, ``skylattice.evaluation``, ``skylattice.simulation``).
"""

__version__ = "0.1.0"
