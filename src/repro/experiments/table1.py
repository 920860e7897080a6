"""Table 1: chosen parameters for each problem.

Paper values:

    Sparse linear system             Non-linear problem
    ---------------------            ---------------------
    matrix size  2000000 x 2000000   discretization grid 600 x 600
    non-zeros    30 sub-diagonals    time interval 2160 s
                                     time step     180 s

This experiment simply materialises the paper's parameter sets (kept
as the ``PAPER_*`` configuration constants) next to the scaled-down
defaults used by the reproduction, and checks the structural claims
that matter: the generated matrix really has the requested number of
off-diagonals and a Jacobi spectral radius below one, and the chemical
time grid really has 2160/180 = 12 steps.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.spec import render_table
from repro.problems.chemical import PAPER_CHEMICAL, ChemicalConfig
from repro.problems.sparse_linear import (
    PAPER_SPARSE_LINEAR,
    SparseLinearConfig,
    SparseLinearProblem,
)


def run_table1(
    scaled_linear: SparseLinearConfig = SparseLinearConfig(n=2_400),
    scaled_chemical: ChemicalConfig = ChemicalConfig(nx=24, nz=24),
) -> Dict[str, object]:
    """Materialise paper and scaled parameters, with structural checks."""
    problem = SparseLinearProblem(scaled_linear)
    offdiagonals = len(problem.matrix.offsets) - 1
    spectral_bound = problem.spectral_bound()
    return {
        "paper_linear": PAPER_SPARSE_LINEAR,
        "paper_chemical": PAPER_CHEMICAL,
        "scaled_linear": scaled_linear,
        "scaled_chemical": scaled_chemical,
        "checks": {
            "off_diagonals": offdiagonals,
            "jacobi_spectral_bound": spectral_bound,
            "spectral_radius_below_one": spectral_bound < 1.0,
            "paper_n_steps": PAPER_CHEMICAL.n_steps,
            "scaled_n_steps": scaled_chemical.n_steps,
        },
    }


def format_table1(outcome: Dict[str, object]) -> str:
    pl = outcome["paper_linear"]
    pc = outcome["paper_chemical"]
    sl = outcome["scaled_linear"]
    sc = outcome["scaled_chemical"]
    checks = outcome["checks"]
    rows = [
        ["matrix size", f"{pl.n} x {pl.n}", f"{sl.n} x {sl.n}"],
        ["non-zero repartition", f"{pl.n_diagonals} sub-diagonals",
         f"{checks['off_diagonals']} sub-diagonals"],
        ["Jacobi spectral bound", "< 1 (by design)",
         f"{checks['jacobi_spectral_bound']:.3f}"],
        ["discretization grid", f"{pc.nx} x {pc.nz}", f"{sc.nx} x {sc.nz}"],
        ["time interval", f"{pc.t_end - pc.t0:.0f} s", f"{sc.t_end - sc.t0:.0f} s"],
        ["time step", f"{pc.dt:.0f} s", f"{sc.dt:.0f} s"],
        ["number of time steps", str(checks["paper_n_steps"]), str(checks["scaled_n_steps"])],
    ]
    return render_table(
        ["Parameter", "Paper value", "Scaled reproduction"],
        rows,
        title="Table 1 -- chosen parameters for each problem",
    )


__all__ = ["run_table1", "format_table1"]
