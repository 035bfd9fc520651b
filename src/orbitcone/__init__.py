"""Polyhedral verification of Iwasawa projections of symmetric subgroup orbits.

The library checks, on small matrix realizations, that the a_q-part of the
Iwasawa decomposition maps an orbit a*H onto the convex hull of a finite
reflection orbit plus an explicitly generated polyhedral cone, and that the
critical points of the associated linear functionals behave as predicted.
"""
from .harness import (CheckResult, ConfigError, IoError, Report,
                      VerificationConfig, config_from_mapping, emit_report,
                      run)
from .matrixgrp import Realization, h_pq, iwasawa, realization
from .parabolic import PositiveSystem, from_chamber, h_extremize
from .polyhedra import Polyhedron, gamma_cone, omega

__all__ = [
    "CheckResult", "ConfigError", "IoError", "Polyhedron", "PositiveSystem",
    "Realization", "Report", "VerificationConfig",
    "config_from_mapping", "emit_report", "from_chamber", "gamma_cone",
    "h_extremize", "h_pq", "iwasawa", "omega", "realization", "run",
]

__version__ = "0.1.0"
