"""Exact Wigner 3nj symbols and their semiclassical tetrahedron asymptotics."""

from .halfint import HalfInt, triad_allowed
from .primefac import DEFAULT_LEDGER, FactorialLedger
from .sqrtrat import SqrtRational
from .exact import (
    PIVOTS,
    Symbol3nj,
    Symbol9j,
    Wigner9jResult,
    wigner3j,
    wigner3nj,
    wigner6j,
    wigner9j,
    wigner15j,
)
from .geometry import (
    SignConfig,
    Tetrahedron,
    dihedral_external,
    dihedral_internal,
    edge_length_from_spin,
    euler_from_glued_triangles,
    f_phase,
    omega_classify,
    regge_action,
    triangle_angle,
    volume,
)
from .wigner_d import small_d
from .asymptotics import (
    AsymDiagnostics,
    SmallSpinMarking,
    asym_3nj,
    asym_9j_one_small,
    asym_15j_four_small,
    asym_15j_one_small,
    asym_15j_three_small,
    asym_15j_two_small,
    edmonds_6j,
    pr_6j,
    validate_hypotheses,
)
from .harness import SweepConfig, SweepResult, fig4_suite, run_sweep

__all__ = [
    "HalfInt", "triad_allowed",
    "FactorialLedger", "DEFAULT_LEDGER",
    "SqrtRational",
    "Symbol9j", "Symbol3nj", "Wigner9jResult", "PIVOTS",
    "wigner3j", "wigner6j", "wigner9j", "wigner15j", "wigner3nj",
    "Tetrahedron", "SignConfig", "triangle_angle", "volume",
    "dihedral_internal", "dihedral_external", "regge_action",
    "euler_from_glued_triangles",
    "omega_classify", "f_phase", "edge_length_from_spin",
    "small_d",
    "AsymDiagnostics", "SmallSpinMarking", "pr_6j", "edmonds_6j",
    "asym_9j_one_small", "asym_3nj", "validate_hypotheses",
    "asym_15j_one_small", "asym_15j_two_small", "asym_15j_three_small",
    "asym_15j_four_small",
    "SweepConfig", "SweepResult", "run_sweep", "fig4_suite",
]
