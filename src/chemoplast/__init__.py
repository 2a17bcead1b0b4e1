"""chemoplast: 2-D plane-strain finite elements for transient coupled
stress-diffusion in elastoplastic solids, with built-in closed-form oracles
for verification."""

from . import analytic, assembly, constitutive, mesh, scenarios, sparse_linalg, transient

__version__ = "0.1.0"
