"""The non-linear chemical problem of the paper (Section 4.2).

Evolution of the concentrations of two chemical species in a 2-D
domain: an advection-diffusion system (Eq. 7)

    dc_i/dt = Kh d2c_i/dx2 + V dc_i/dx + d/dz( Kv(z) dc_i/dz ) + R_i(c1, c2, t)

with the reaction terms, coefficients, diurnal photolysis rates
q3(t), q4(t) and initial conditions of Eqs. (8)-(10).  This is the
classical stratospheric ozone "diurnal kinetics" problem; the paper's
printed beta(z) contains an obvious typo (it would produce negative
concentrations over the whole domain), so we use the standard form
``beta(z) = 1 - (0.1 z - 4)^2 + (0.1 z - 4)^4 / 2`` on the usual domain
x in [0, 20], z in [30, 50] km -- documented in DESIGN.md.

Discretisation: centred finite differences on an ``nx x nz`` grid with
zero-flux (mirror) boundaries; implicit Euler in time; each time step
solved by Newton, each Newton correction by matrix-free GMRES
(Section 4.2).  The parallel decomposition is the paper's: horizontal
strips along z, nearest-neighbour halo exchange, multisplitting Newton
(one synchronisation per time step only).

Hot-path layout
---------------
All RHS evaluations run through one kernel on a strip state in a
preallocated ghost-padded buffer (:class:`_StripWorkspace`), read
*flat*: the **window** from the first to the last interior cell holds
every cell's five stencil neighbours at lane offsets ``0, +-(nx+2),
+-1`` of the same buffer (:func:`_window`), so each ufunc sees
contiguous operands.  The ghost cells and corners inside the window are
**junk lanes** -- computed along, never read back, kept finite by
zero-initialised buffers and coefficient windows that are ``0.0`` there
-- and interior lanes see the operands, operations and order of the
cell-by-cell stencil, so results are bitwise layout-independent
(``DESIGN.md``, "The chemical strip kernel and the Krylov scalars").
One Newton update (:func:`scaled_newton_update`) calls a strip's
:class:`_StripEvaluator` directly and hands :func:`repro.linalg.gmres.gmres`
a closure for the finite-difference Jacobian action.

One Newton update is a pure function of its inputs, so the chemical
units of one ``local`` sweep on the simulated backend share a
:class:`SolveMemo`: a grid whose points advance the same trajectory on
differently-timed hardware solves each update once (``DESIGN.md``,
"The solve memo").
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.linalg.gmres import gmres
from repro.linalg.partition import BlockPartition
from repro.problems.base import LocalIteration, SteppedLocalSolver

BYTES_PER_VALUE = 8.0

# Physical coefficients of Eq. (8) of the paper.
KH = 4.0e-6
V_ADV = 1.0e-3
C3 = 3.7e16
Q1 = 1.63e-16
Q2 = 4.66e-16
A3 = 22.62
A4 = 7.601
OMEGA = math.pi / 43200.0

X_MIN, X_MAX = 0.0, 20.0
Z_MIN, Z_MAX = 30.0, 50.0

_Q1C3 = Q1 * C3


def kv(z: np.ndarray | float) -> np.ndarray | float:
    """Vertical diffusivity ``Kv(z) = 1e-8 exp(z / 5)`` (Eq. 8)."""
    return 1.0e-8 * np.exp(np.asarray(z) / 5.0)


def q3(t: float) -> float:
    """Diurnal photolysis rate ``q3(t) = exp(-a3 / sin(w t))`` (daytime only)."""
    s = math.sin(OMEGA * t)
    return math.exp(-A3 / s) if s > 0.0 else 0.0


def q4(t: float) -> float:
    """Diurnal photolysis rate ``q4(t) = exp(-a4 / sin(w t))`` (daytime only)."""
    s = math.sin(OMEGA * t)
    return math.exp(-A4 / s) if s > 0.0 else 0.0


def alpha(x: np.ndarray) -> np.ndarray:
    """Horizontal initial profile of Eq. (10)."""
    u = 0.1 * x - 1.0
    return 1.0 - u**2 + u**4 / 2.0


def beta(z: np.ndarray) -> np.ndarray:
    """Vertical initial profile (typo-corrected, see module docstring)."""
    w = 0.1 * z - 4.0
    return 1.0 - w**2 + w**4 / 2.0


@dataclass(frozen=True)
class ChemicalConfig:
    """Parameters of the chemical problem (Table 1 + solver knobs)."""

    nx: int = 20
    nz: int = 20
    t0: float = 0.0
    t_end: float = 2160.0        # paper Table 1: time interval 2160 s
    dt: float = 180.0            # paper Table 1: time step 180 s
    rtol: float = 1.0e-5         # weighting of the scaled norms
    atol_c1: float = 1.0e-1      # absolute floors per species (c1 ~ 1e6)
    atol_c2: float = 1.0e5       # (c2 ~ 1e12)
    newton_tol: float = 1.0e-6   # scaled norm of G below which Newton stops
    max_newton_iterations: int = 20
    inner_eps: float = 1.0e-6    # AIAC convergence threshold on scaled change
    # Safety cap "to avoid infinite execution when one of these processes
    # does not converge" (Section 4.3).  Generous on purpose: converged
    # AIAC workers keep iterating cheaply until the stop signal arrives,
    # so the cap must comfortably exceed the detection latency.
    max_inner_iterations: int = 2_000
    gmres_tol: float = 1.0e-4
    gmres_restart: int = 20
    gmres_max_iterations: int = 200
    stability_count: int = 2
    paper_reaction_signs: bool = True  # keep the signs exactly as printed

    @property
    def n_steps(self) -> int:
        steps = (self.t_end - self.t0) / self.dt
        n = int(round(steps))
        if abs(steps - n) > 1e-9 or n < 1:
            raise ValueError("t_end - t0 must be a positive multiple of dt")
        return n


#: The paper's experiment used a 600 x 600 grid (Table 1).
PAPER_CHEMICAL = ChemicalConfig(nx=600, nz=600)


class _StripWorkspace:
    """Preallocated buffers and views for one strip's RHS evaluation.

    ``pad`` is the ghost-padded state ``(2, rows+2, nx+2)``; ``out``
    (the RHS accumulator) and ``t2`` (scratch) share its layout and its
    flat windows, ``t0``/``t1`` cover one species' sub-window, ``dtf``
    is the contiguous ``dt * f`` the callers subtract.  ``zeros``, not
    ``empty``: the never-written corner ghosts are inside the window.

    Slicing tiny arrays costs as much as operating on them, so the five
    stencil windows, the ghost rows/columns and the scratch views are
    built once here and reused by every kernel call.  ``last_top`` /
    ``last_bot`` name the halo arrays whose bytes occupy the ghost rows
    (``None``: a mirror, refreshed every call).
    """

    __slots__ = (
        "rows", "pad", "out", "t2", "t0", "t1", "dtf", "last_top", "last_bot",
        "interior", "c", "up", "down", "left", "right",
        "acc", "out_interior", "dtf_grid", "tmp",
        "c1", "c2", "o1", "o2", "tr",
        "top_ghost", "top_row", "bot_ghost", "bot_row",
        "side_ghosts", "side_src",
    )

    def __init__(self, rows: int, nx: int) -> None:
        width = nx + 2
        self.rows = rows
        self.pad = pad = np.zeros((2, rows + 2, width))
        self.out = np.zeros((2, rows + 2, width))
        self.t2 = np.zeros((2, rows + 2, width))
        species = (rows + 2) * width - 2 * (nx + 3)  # window head and tail
        self.t0 = np.zeros(species)
        self.t1 = np.zeros(species)
        self.dtf = np.zeros(2 * rows * nx)
        self.last_top: Optional[np.ndarray] = None
        self.last_bot: Optional[np.ndarray] = None
        self.interior = pad[:, 1:-1, 1:-1]
        self.c = _window(pad)
        self.up = _window(pad, -width)
        self.down = _window(pad, width)
        self.left = _window(pad, -1)
        self.right = _window(pad, 1)
        self.acc = _window(self.out)
        self.out_interior = self.out[:, 1:-1, 1:-1]
        self.dtf_grid = self.dtf.reshape(2, rows, nx)
        self.tmp = _window(self.t2)
        self.c1 = self.c[:species]
        self.c2 = self.c[-species:]
        self.o1 = self.acc[:species]
        self.o2 = self.acc[-species:]
        self.tr = self.tmp[:species]
        self.top_ghost = pad[:, 0, 1:-1]
        self.top_row = pad[:, 1, 1:-1]
        self.bot_ghost = pad[:, -1, 1:-1]
        self.bot_row = pad[:, -2, 1:-1]
        # Columns (0, nx+1) mirror columns (2, nx-1).  At nx = 3 both
        # read column 2: the slice is that one column, broadcast.
        self.side_ghosts = pad[:, 1:-1, :: width - 1]
        self.side_src = pad[:, 1:-1, 2 : width - 2 : max(width - 5, 1)]


def _window(a: np.ndarray, shift: int = 0) -> np.ndarray:
    """The kernel window of a padded ``(..., 2, rows+2, nx+2)`` array:
    flat over the last three axes, first to last interior cell, moved
    by ``shift`` lanes (``+-1`` the x neighbours, ``+-(nx+2)`` the z
    neighbours)."""
    lo = a.shape[-1] + 1
    flat = a.reshape(a.shape[:-3] + (-1,))
    return flat[..., lo + shift : flat.shape[-1] - lo + shift]


def _fill_ghosts(
    ws: _StripWorkspace,
    halo_top: Optional[np.ndarray],
    halo_bottom: Optional[np.ndarray],
) -> None:
    """Fill the ghost frame of the padded strip (interior already written).

    Vertical ghosts are the received halo row, or -- at a physical
    boundary -- the mirror of the strip's own edge row, which *is* the
    zero-flux condition: the boundary face flux ``kv_half * (c_edge -
    ghost)`` vanishes identically because ghost equals the edge row.
    Horizontal ghosts mirror across the edge nodes (node-mirror
    stencil).

    A halo-backed ghost row is skipped when it already holds that exact
    array's bytes (halo arrays are immutable by contract: every payload
    is a fresh copy).  Mirror ghosts depend on the interior and are
    refreshed every call.
    """
    if halo_top is None:
        np.copyto(ws.top_ghost, ws.top_row)
    elif halo_top is not ws.last_top:
        np.copyto(ws.top_ghost, halo_top)
    ws.last_top = halo_top
    if halo_bottom is None:
        np.copyto(ws.bot_ghost, ws.bot_row)
    elif halo_bottom is not ws.last_bot:
        np.copyto(ws.bot_ghost, halo_bottom)
    ws.last_bot = halo_bottom
    np.copyto(ws.side_ghosts, ws.side_src)


def _strip_rhs_kernel(
    ws: _StripWorkspace,
    windows: Sequence[np.ndarray],
    cl: float,
    cr: float,
    r3term: float,
    r4: float,
    paper_signs: bool,
) -> None:
    """Transport + reaction on the ghost-filled pad, into ``ws.out``.

    ``windows`` holds the coefficient windows ``kva``, ``kvb``, ``kctr``
    (:meth:`ChemicalProblem._coefficient_windows`): the interface
    diffusivities already divided by ``dz**2`` and the combined centre
    coefficient ``-2 Kh/dx^2 - kva - kvb``; ``cl``/``cr`` are the
    combined horizontal advection-diffusion neighbour weights;
    ``r3term`` is ``2 q3 c3`` and ``r4`` the photolysis rate.  Every
    step is an in-place ufunc on precomputed contiguous windows -- the
    kernel allocates and slices nothing, and element-wise ops give the
    interior lanes the cell-by-cell results (junk lanes: finite, never
    read).
    """
    kva, kvb, kctr = windows
    out = ws.acc
    t1 = ws.t1
    t2 = ws.tmp

    # Transport: kva c_down + kvb c_up + kctr c + cl c_left + cr c_right
    # (the centre terms of vertical diffusion and horizontal diffusion
    # are folded into the precomputed kctr).
    np.multiply(ws.down, kva, out=out)
    np.multiply(ws.up, kvb, out=t2)
    np.add(out, t2, out=out)
    np.multiply(ws.c, kctr, out=t2)
    np.add(out, t2, out=out)
    np.multiply(ws.left, cl, out=t2)
    np.add(out, t2, out=out)
    np.multiply(ws.right, cr, out=t2)
    np.add(out, t2, out=out)
    # Reaction terms R1, R2 of Eq. (8), on the per-species sub-windows.
    c1 = ws.c1
    c2 = ws.c2
    o1 = ws.o1
    o2 = ws.o2
    t0 = ws.t0
    tr = ws.tr
    np.multiply(c1, c2, out=t0)
    np.multiply(t0, Q2, out=t0)          # t0 = q2 c1 c2
    np.multiply(c2, r4, out=t1)          # t1 = q4 c2
    np.multiply(c1, _Q1C3, out=tr)       # tr = q1 c3 c1
    if paper_signs:
        np.subtract(t1, t0, out=t1)      # t1 = q4 c2 - q2 c1 c2 (shared)
        np.add(o1, t1, out=o1)
        np.subtract(o1, tr, out=o1)
        np.add(o1, r3term, out=o1)
        np.add(o2, t1, out=o2)
        np.add(o2, tr, out=o2)
    else:  # the physically standard sign (ozone consumed by photolysis)
        np.subtract(o1, tr, out=o1)
        np.add(o2, tr, out=o2)
        np.subtract(o1, t0, out=o1)
        np.subtract(o2, t0, out=o2)
        np.add(o1, t1, out=o1)
        np.subtract(o2, t1, out=o2)
        np.add(o1, r3term, out=o1)


class ChemicalProblem:
    """Grid, right-hand side and sequential reference solver."""

    def __init__(self, config: ChemicalConfig) -> None:
        if config.nx < 3 or config.nz < 3:
            raise ValueError("grid must be at least 3 x 3")
        self.config = config
        self.x = np.linspace(X_MIN, X_MAX, config.nx)
        self.z = np.linspace(Z_MIN, Z_MAX, config.nz)
        self.dx = self.x[1] - self.x[0]
        self.dz = self.z[1] - self.z[0]
        # Diffusivity at the vertical interfaces z_{g+1/2}, g = -1..nz-1.
        z_half = np.concatenate(([self.z[0] - self.dz / 2.0], self.z + self.dz / 2.0))
        self.kv_half = kv(z_half)
        # Precomputed stencil coefficients of the RHS kernel:
        # interface diffusivities pre-divided by dz^2 and the combined
        # horizontal weights cl*c_left + cr*c_right + cc*c.
        dz2 = self.dz**2
        kva = self.kv_half[1:] / dz2   # rows g: interface above
        kvb = self.kv_half[:-1] / dz2  # rows g: interface below
        hd = KH / self.dx**2
        ad = V_ADV / (2.0 * self.dx)
        self._cl = hd - ad
        self._cr = hd + ad
        # (kva, kvb, kctr) per row, kctr the combined centre coefficient
        # (vertical + horizontal diffusion); full z extent -- strips slice
        # it, which keeps strip and full-grid evaluations bitwise identical.
        self._row_coefficients = np.stack([kva, kvb, -2.0 * hd - kva - kvb])
        self._tls: Optional[threading.local] = None
        self._windows: Dict[Tuple[int, int], np.ndarray] = {}
        # Transport diagonal of dG/dy per strip geometry -- depends only
        # on (z_lo, rows, physical_top, physical_bottom), not on the
        # state or the time, so it is computed once per geometry.
        self._diag_transport: Dict[Tuple[int, int, bool, bool], np.ndarray] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_tls"] = None  # thread-local workspaces never travel
        state["_windows"] = {}  # nor do the coefficient windows: rebuilt lazily
        return state

    def _coefficient_windows(self, z_lo: int, rows: int) -> np.ndarray:
        """``(kva, kvb, kctr)`` of rows ``[z_lo, z_lo + rows)`` as one
        ``(3, L)`` array of kernel windows (:func:`_window`): each row's
        coefficient repeated along x on interior lanes, ``0.0`` on junk
        lanes."""
        windows = self._windows.get((z_lo, rows))
        if windows is None:
            padded = np.zeros((3, 2, rows + 2, self.config.nx + 2))
            padded[:, :, 1:-1, 1:-1] = self._row_coefficients[:, None, z_lo : z_lo + rows, None]
            windows = self._windows[z_lo, rows] = _window(padded)
        return windows

    def _workspace(self, rows: int) -> _StripWorkspace:
        """The calling thread's cached workspace for ``rows``-row strips."""
        tls = self._tls
        if tls is None:
            tls = self._tls = threading.local()
        cache: Dict[int, _StripWorkspace] = getattr(tls, "cache", None)
        if cache is None:
            cache = tls.cache = {}
        ws = cache.get(rows)
        if ws is None:
            ws = cache[rows] = _StripWorkspace(rows, self.config.nx)
        return ws

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        return (2, self.config.nz, self.config.nx)

    @property
    def n_unknowns(self) -> int:
        return 2 * self.config.nz * self.config.nx

    def initial_state(self) -> np.ndarray:
        """Initial concentrations of Eq. (9): c1 = 1e6 a(x) b(z), c2 = 1e12 a(x) b(z)."""
        a = alpha(self.x)[None, :]
        b = beta(self.z)[:, None]
        profile = b * a
        c = np.empty(self.shape)
        c[0] = 1.0e6 * profile
        c[1] = 1.0e12 * profile
        return c

    def atol_vector(self, rows: int) -> np.ndarray:
        """Per-component absolute tolerances for a strip of ``rows`` z-rows."""
        cfg = self.config
        atol = np.empty((2, rows, cfg.nx))
        atol[0] = cfg.atol_c1
        atol[1] = cfg.atol_c2
        return atol.ravel()

    # ------------------------------------------------------------------
    # right-hand side
    # ------------------------------------------------------------------
    def reaction(self, c: np.ndarray, t: float) -> np.ndarray:
        """The reaction terms R1, R2 of Eq. (8)."""
        c1, c2 = c[0], c[1]
        r3, r4 = q3(t), q4(t)
        out = np.empty_like(c)
        out[0] = -Q1 * c1 * C3 - Q2 * c1 * c2 + 2.0 * r3 * C3 + r4 * c2
        if self.config.paper_reaction_signs:
            out[1] = Q1 * c1 * C3 - Q2 * c1 * c2 + r4 * c2
        else:  # the physically standard sign (ozone consumed by photolysis)
            out[1] = Q1 * c1 * C3 - Q2 * c1 * c2 - r4 * c2
        return out

    def rhs_strip(
        self,
        c: np.ndarray,
        t: float,
        z_lo: int,
        halo_top: Optional[np.ndarray],
        halo_bottom: Optional[np.ndarray],
    ) -> np.ndarray:
        """``f`` of Eq. (11) on rows ``[z_lo, z_lo + rows)``.

        ``halo_top`` is the row at global index ``z_lo - 1`` (``None``
        at the physical boundary -> zero-flux mirror), ``halo_bottom``
        the row at ``z_lo + rows``.  ``c`` has shape ``(2, rows, nx)``.
        """
        cfg = self.config
        rows = c.shape[1]
        if c.shape != (2, rows, cfg.nx):
            raise ValueError(f"bad strip shape {c.shape}")
        ws = self._workspace(rows)
        ws.interior[...] = c
        _fill_ghosts(ws, halo_top, halo_bottom)
        _strip_rhs_kernel(
            ws, self._coefficient_windows(z_lo, rows), self._cl, self._cr,
            2.0 * C3 * q3(t), q4(t), cfg.paper_reaction_signs,
        )
        return ws.out_interior.copy()

    def rhs(self, c: np.ndarray, t: float) -> np.ndarray:
        """``f`` on the full grid."""
        return self.rhs_strip(c, t, 0, None, None)

    def rhs_flops(self, rows: int) -> float:
        """Analytic flop estimate of one strip RHS evaluation."""
        return 40.0 * 2.0 * rows * self.config.nx

    def g_diag_strip(
        self,
        c: np.ndarray,
        t: float,
        z_lo: int,
        physical_top: bool,
        physical_bottom: bool,
    ) -> np.ndarray:
        """Diagonal of ``dG/dy`` for ``G(y) = y - y_prev - dt f(y)``.

        Analytic: reaction self-derivatives plus the diffusion stencil
        diagonals.  Used as a Jacobi (right) preconditioner for the
        inner GMRES solves -- it collapses the huge stiffness spread of
        the c1 photochemistry (``q1 c3 ~ 6 s^-1`` against transport
        scales of ``1e-4 s^-1``), without which GMRES stagnates.
        """
        cfg = self.config
        rows = c.shape[1]
        c1, c2 = c[0], c[1]
        r4 = q4(t)
        key = (z_lo, rows, physical_top, physical_bottom)
        transport = self._diag_transport.get(key)
        if transport is None:
            # Transport diagonals (mirror boundaries keep the -2 in x).
            kv_above = self.kv_half[z_lo + 1 : z_lo + 1 + rows].copy()
            kv_below = self.kv_half[z_lo : z_lo + rows].copy()
            if physical_top:
                kv_below[0] = 0.0
            if physical_bottom:
                kv_above[-1] = 0.0
            transport = (
                -2.0 * KH / self.dx**2
                - (kv_above + kv_below)[None, :, None] / self.dz**2
            )
            self._diag_transport[key] = transport
        # Reaction self-derivatives dR_i/dc_i, built in place.  The
        # reassociations are all bitwise-exact in IEEE arithmetic:
        # ``a - b == (-b) + a`` and ``-(q*c) == (-q)*c``.
        diag_f = np.empty_like(c)
        np.multiply(c2, -Q2, out=diag_f[0])
        diag_f[0] += -Q1 * C3
        np.multiply(c1, -Q2, out=diag_f[1])
        if cfg.paper_reaction_signs:
            diag_f[1] += r4
        else:
            diag_f[1] -= r4
        diag_f += transport
        # 1 - dt*diag_f, in place (== (-dt)*diag_f + 1 bitwise).
        diag_f *= -cfg.dt
        diag_f += 1.0
        return diag_f.ravel()

    # ------------------------------------------------------------------
    # sequential reference solver
    # ------------------------------------------------------------------
    def step_sequential(
        self, c: np.ndarray, t_new: float
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """One implicit-Euler step solved by global Newton-GMRES."""
        cfg = self.config
        y_prev = c.ravel().copy()
        scale = cfg.rtol * np.abs(y_prev) + self.atol_vector(cfg.nz)
        g = _StripEvaluator(self, cfg.nz, y_prev, scale, 0, None, None, t_new)
        y = y_prev.copy()
        fevals = 0
        gmres_iters = 0
        newton_iters = 0
        scaled_res = float("inf")
        for _ in range(cfg.max_newton_iterations):
            y, info = scaled_newton_update(
                self, g, y, y_prev, t_new, z_lo=0, rows=cfg.nz, scale=scale,
            )
            fevals += info["function_evaluations"]
            gmres_iters += info["gmres_iterations"]
            newton_iters += 1
            scaled_res = info["scaled_residual_after"]
            if scaled_res < cfg.newton_tol:
                break
        return y.reshape(self.shape), {
            "newton_iterations": newton_iters,
            "gmres_iterations": gmres_iters,
            "function_evaluations": fevals,
            "residual": scaled_res,
        }

    def solve_sequential(self) -> Tuple[np.ndarray, Dict[str, float]]:
        """Run the whole time loop sequentially; returns final state."""
        cfg = self.config
        c = self.initial_state()
        totals: Dict[str, float] = {
            "newton_iterations": 0, "gmres_iterations": 0, "function_evaluations": 0,
        }
        for step in range(cfg.n_steps):
            t_new = cfg.t0 + (step + 1) * cfg.dt
            c, info = self.step_sequential(c, t_new)
            for key in totals:
                totals[key] += info[key]
        return c, totals

    def make_local(self, rank: int, size: int) -> "ChemicalLocal":
        return ChemicalLocal(self, rank, size)


class _StripEvaluator:
    """The scaled implicit-Euler residual of one strip for one Newton update.

    Holds the constants of the update -- previous state, scale vector,
    coefficient windows, photolysis rates -- plus the thread's cached
    workspace; the halo references are refreshed per iterate.  Calling
    it at a y-space point evaluates ``Ghat(u) = (y - y_prev - dt f(y)) /
    s`` with ``y = y_prev + s u``.
    """

    def __init__(
        self,
        problem: ChemicalProblem,
        rows: int,
        y_prev: np.ndarray,
        scale: np.ndarray,
        z_lo: int,
        halo_top: Optional[np.ndarray],
        halo_bottom: Optional[np.ndarray],
        t_new: float,
    ) -> None:
        cfg = problem.config
        self.dt = cfg.dt
        self.paper_signs = cfg.paper_reaction_signs
        self.cl = problem._cl
        self.cr = problem._cr
        self.y_prev = y_prev
        self.scale = scale
        # A tuple: unpacking the (3, L) array in the kernel would build
        # three views per evaluation.
        self.windows = tuple(problem._coefficient_windows(z_lo, rows))
        self.r3term = 2.0 * C3 * q3(t_new)
        self.r4 = q4(t_new)
        self.halo_top = halo_top
        self.halo_bottom = halo_bottom
        self.ws = problem._workspace(rows)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        ws = self.ws
        ws.interior[...] = y.reshape(ws.interior.shape)
        _fill_ghosts(ws, self.halo_top, self.halo_bottom)
        _strip_rhs_kernel(
            ws, self.windows, self.cl, self.cr,
            self.r3term, self.r4, self.paper_signs,
        )
        # res = (y - y_prev - dt f(y)) / s, built in place on a fresh
        # array: callers own the result (it may outlive the workspace).
        res = y - self.y_prev
        np.multiply(ws.out_interior, self.dt, out=ws.dtf_grid)
        res -= ws.dtf
        res /= self.scale
        return res


#: A Newton update's result: the new state and its ``info`` dict.
_Outcome = Tuple[np.ndarray, Dict[str, Any]]

#: sqrt(machine epsilon): the base step of the FD directional derivative.
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def fd_epsilon(x_norm: float, v_norm: float) -> float:
    """The FD perturbation size ``e = sqrt(eps) * (1 + ||x||) / ||v||``.

    The standard scaling keeps the perturbation well conditioned across
    the huge dynamic range of the chemical concentrations.
    """
    return SQRT_EPS * (1.0 + x_norm) / v_norm


def scaled_newton_update(
    problem: ChemicalProblem,
    g: _StripEvaluator,
    y_flat: np.ndarray,
    y_prev: np.ndarray,
    t_new: float,
    z_lo: int,
    rows: int,
    scale: np.ndarray,
    fu0: Optional[np.ndarray] = None,
) -> _Outcome:
    """One Newton linearisation + GMRES correction, in scaled variables.

    The implicit-Euler residual ``G(y) = y - y_prev - dt f(y)`` is
    transformed with ``y = y_prev + S u`` and ``Ghat(u) = G(y)/s``
    (``S = diag(s)``, ``s = rtol |y_prev| + atol``).  All components of
    ``u`` and ``Ghat`` are then O(1), which keeps the finite-difference
    Jacobian-vector products accurate despite the 8-orders-of-magnitude
    spread between the two species.  The linear solve is additionally
    right-preconditioned with the analytic diagonal of ``dG/dy``
    (:meth:`ChemicalProblem.g_diag_strip`), which absorbs the
    photochemical stiffness of c1.

    ``g`` is the strip's :class:`_StripEvaluator` (``Ghat`` at an
    *unscaled* state, with its halos); each call is one function
    evaluation.  Returns the updated (unscaled) state and an info dict
    with the evaluation counts used for flop accounting.

    ``fu0`` is an optional precomputed ``Ghat(y_flat)``: the previous
    Newton update finished with exactly that evaluation, so when
    neither the state nor the halos changed since, the caller passes
    it in and the host-side evaluation is skipped.  Like the
    memoization in :class:`ChemicalLocal`, this is purely a host
    optimization: the evaluation is still *charged* (``fevals``
    counts it), so simulated flops -- and therefore every counter of
    the run -- are bit-identical with and without the carry.
    """
    cfg = problem.config
    fu = g(y_flat) if fu0 is None else fu0
    fevals = 1
    scaled_res_before = math.sqrt(float(np.dot(fu, fu)) / fu.size)
    info: Dict[str, Any] = {
        "gmres_iterations": 0,
        "function_evaluations": fevals,
        "scaled_residual_before": scaled_res_before,
        "scaled_residual_after": scaled_res_before,
        "early_exit": False,
        "_fu": None,
    }
    if scaled_res_before < cfg.newton_tol * 1e-2:
        # Already at the solution: skip the linear solve entirely (the
        # AIAC workers keep iterating after local convergence).
        info["early_exit"] = True
        info["_fu"] = fu
        return y_flat.copy(), info

    # Diagonal preconditioner in scaled space: W (dG/dy)_diag S has the
    # same diagonal as dG/dy because the scalings cancel entrywise.
    diag = problem.g_diag_strip(
        y_flat.reshape((2, rows, cfg.nx)),
        t_new, z_lo, z_lo == 0, z_lo + rows == cfg.nz,
    )
    un = (y_flat - y_prev) / scale
    u_norm = math.sqrt(float(np.dot(un, un)))

    def jacobian(v: np.ndarray) -> np.ndarray:
        # Right-preconditioned FD Jacobian action: A v = J (v/diag),
        # J w ~ (Ghat(u + e w) - Ghat(u)) / e, evaluated at the unscaled
        # point y + e (s * w).  A zero direction short-circuits to zeros
        # without an evaluation.
        nonlocal fevals
        vp = v / diag
        v_norm = math.sqrt(float(np.dot(vp, vp)))
        if v_norm == 0.0:
            return vp  # already all zeros
        e = fd_epsilon(u_norm, v_norm)
        # vp is ours: finish the step in place (scale, then perturb off
        # y); gu is a fresh evaluation result, so the difference
        # quotient can reuse it too.
        vp *= scale
        vp *= e
        vp += y_flat
        gu = g(vp)
        fevals += 1
        np.subtract(gu, fu, out=gu)
        gu /= e
        return gu

    lin = gmres(
        jacobian, -fu, tol=cfg.gmres_tol, restart=cfg.gmres_restart,
        max_iterations=cfg.gmres_max_iterations,
    )
    y_new = y_flat + scale * (lin.x / diag)
    fu_new = g(y_new)
    fevals += 1
    info.update(
        gmres_iterations=lin.iterations,
        function_evaluations=fevals,
        scaled_residual_after=math.sqrt(float(np.dot(fu_new, fu_new)) / fu_new.size),
        _fu=fu_new,
    )
    return y_new, info


#: Byte budget of one :class:`SolveMemo`: the key bytes and outcome
#: arrays of its entries (interpreter overhead comes on top).
MEMO_BYTES = 32 << 20


def _bytes(a: Optional[np.ndarray]) -> Optional[bytes]:
    return None if a is None else a.tobytes()


def _copied(outcome: _Outcome) -> _Outcome:
    """A private copy of a Newton outcome ``(y_new, info)``: a consumer
    keeps references to its arrays (the new state, the residual carry)."""
    y_new, info = outcome
    info = dict(info)
    info["_fu"] = info["_fu"].copy()
    return y_new.copy(), info


class SolveMemo:
    """Newton-update outcomes shared by the worlds of one ``local`` sweep.

    Keyed by every input of one update (:meth:`ChemicalLocal._memo_key`),
    and the update is a deterministic function of them, so a hit is
    bit-identical to recomputing -- and charges the same flops, since
    they follow from the stored ``info``.  Entries are dropped least
    recently used once their bytes exceed :data:`MEMO_BYTES`; every
    consumer gets copies.  Single-threaded, and never pickled with a
    solver: a memo serves the simulated worlds of one process.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple, Tuple[_Outcome, int]]" = OrderedDict()
        self.nbytes = 0
        self.hits = 0

    def get(self, key: Tuple) -> Optional[_Outcome]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return _copied(entry[0])

    def put(self, key: Tuple, outcome: _Outcome) -> None:
        y_new, info = outcome
        size = y_new.nbytes + info["_fu"].nbytes + sum(
            len(part) for part in key if isinstance(part, bytes)
        )
        if size > MEMO_BYTES:
            return
        self._entries[key] = (_copied(outcome), size)
        self.nbytes += size
        while self.nbytes > MEMO_BYTES:
            _key, (_outcome, dropped) = self._entries.popitem(last=False)
            self.nbytes -= dropped


class ChemicalLocal(SteppedLocalSolver):
    """Per-processor strip of the multisplitting-Newton solver.

    The 2-D domain is "vertically decomposed into horizontal strips"
    and each processor depends only on its two direct neighbours
    (Section 4.3).  One call to :meth:`iterate` performs one Newton
    linearisation + GMRES correction on the local implicit-Euler
    residual with the halo rows frozen at their last received values --
    this is why "the process actually continues to evolve between data
    receptions" in the non-linear case (Section 5.1).

    ``memo`` is the :class:`SolveMemo` that the ``local`` sweep placement
    hands the solvers of its simulated worlds (``None`` everywhere
    else): :meth:`iterate` looks each Newton update up there before
    solving it.
    """

    def __init__(self, problem: ChemicalProblem, rank: int, size: int) -> None:
        cfg = problem.config
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        if size > cfg.nz:
            raise ValueError(f"more processors ({size}) than grid rows ({cfg.nz})")
        self.problem = problem
        self.rank = rank
        self.size = size
        self.partition = BlockPartition(cfg.nz, size)
        self.z_lo, self.z_hi = self.partition.bounds(rank)
        self.rows = self.z_hi - self.z_lo
        self.c = problem.initial_state()[:, self.z_lo : self.z_hi, :].copy()
        self.halo_top: Optional[np.ndarray] = None      # row z_lo - 1
        self.halo_bottom: Optional[np.ndarray] = None   # row z_hi
        self._y_prev = self.c.ravel().copy()
        self._scale = np.ones_like(self._y_prev)
        self._t_new = cfg.t0
        self._atol = problem.atol_vector(self.rows)
        self._evaluator: Optional[_StripEvaluator] = None
        self.memo: Optional[SolveMemo] = None
        # Memoization of converged spins: an early-exit Newton result is
        # a pure function of (halos, state, step constants), so while a
        # converged worker keeps iterating without new receptions the
        # cached outcome is bit-identical to recomputing it.  Simulated
        # flops are still charged in full -- the cache only removes
        # host-side work, never changes any counter or payload.
        self._halo_rev = 0
        self._state_rev = 0
        self._cache_key: Optional[Tuple[int, int]] = None
        self._cache_li: Optional[LocalIteration] = None
        # Residual carry-over: the final evaluation of a full Newton
        # update doubles as the next iterate's initial residual while
        # (halos, state) stay unchanged.
        self._fu_carry: Optional[np.ndarray] = None
        self._fu_key: Optional[Tuple[int, int]] = None
        self.step = -1
        self.inner_iterations = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_evaluator"] = None  # rebuilt lazily; keeps pickles lean
        state["memo"] = None  # a memo never leaves its process
        return state

    # ------------------------------------------------------------------
    @property
    def n_steps(self) -> int:
        return self.problem.config.n_steps

    def providers(self) -> Set[int]:
        deps = set()
        if self.rank > 0:
            deps.add(self.rank - 1)
        if self.rank < self.size - 1:
            deps.add(self.rank + 1)
        return deps

    def _boundary_payloads(self) -> Dict[int, Tuple[object, float]]:
        cfg = self.problem.config
        size_bytes = BYTES_PER_VALUE * 2 * cfg.nx
        out: Dict[int, Tuple[object, float]] = {}
        if self.rank > 0:
            out[self.rank - 1] = ((self.rank, "first_row", self.c[:, 0, :].copy()), size_bytes)
        if self.rank < self.size - 1:
            out[self.rank + 1] = ((self.rank, "last_row", self.c[:, -1, :].copy()), size_bytes)
        return out

    def initial_outgoing(self) -> Dict[int, Tuple[object, float]]:
        return self._boundary_payloads()

    def integrate(self, src: int, payload) -> None:
        src_rank, which, row = payload
        self._halo_rev += 1
        if src_rank == self.rank - 1 and which == "last_row":
            self.halo_top = row
        elif src_rank == self.rank + 1 and which == "first_row":
            self.halo_bottom = row
        else:
            raise ValueError(
                f"rank {self.rank}: unexpected payload ({src_rank}, {which})"
            )

    # ------------------------------------------------------------------
    def begin_step(self, step: int) -> None:
        cfg = self.problem.config
        self.step = step
        self._t_new = cfg.t0 + (step + 1) * cfg.dt
        self._y_prev = self.c.ravel().copy()
        self._scale = cfg.rtol * np.abs(self._y_prev) + self._atol
        self._evaluator = None  # y_prev/scale/t changed: invalidate
        self._cache_key = None
        self._cache_li = None
        self._fu_carry = None  # Ghat depends on y_prev/scale/t_new
        self._fu_key = None

    def end_step(self, step: int) -> None:
        if step != self.step:
            raise RuntimeError(f"end_step({step}) without begin_step({step})")

    def _solve(self, fu0: Optional[np.ndarray]) -> _Outcome:
        """One Newton update of the strip: ``(y_new, info)``.

        ``y_prev``/``scale``/``t_new`` are step constants, so the
        evaluator is built once per step; only the halo references
        (which change on every reception) are refreshed per iterate.
        """
        g = self._evaluator
        if g is None:
            g = self._evaluator = _StripEvaluator(
                self.problem, self.rows, self._y_prev, self._scale, self.z_lo,
                self.halo_top, self.halo_bottom, self._t_new,
            )
        else:
            g.halo_top = self.halo_top
            g.halo_bottom = self.halo_bottom
        return scaled_newton_update(
            self.problem, g, self.c.ravel(), self._y_prev, self._t_new,
            self.z_lo, self.rows, self._scale, fu0=fu0,
        )

    def _memo_key(self, fu0: Optional[np.ndarray]) -> Tuple:
        """Every input of this iterate's Newton update: the config,
        the strip's place, the step time, the state, both halos
        (``None`` = a mirror) and the carried residual.  ``_scale`` is
        left out because it follows from ``_y_prev``, the config and
        ``rows`` (:meth:`begin_step`; before the first step it is all
        ones and ``_t_new`` is ``t0``, which no step has)."""
        return (
            self.problem.config, self.rows, self.z_lo, self._t_new,
            self.c.tobytes(), self._y_prev.tobytes(),
            _bytes(self.halo_top), _bytes(self.halo_bottom), _bytes(fu0),
        )

    def _finish_iterate(self, outcome) -> LocalIteration:
        """Turn a Newton update's ``(y_new, info)`` into a
        :class:`LocalIteration`."""
        y_new, info = outcome
        y = self.c.ravel()
        d = y_new - y
        d /= self._scale
        change = math.sqrt(float(np.dot(d, d)) / d.size)
        self.c = y_new.reshape((2, self.rows, self.problem.config.nx))
        self.inner_iterations += 1

        n_local = y_new.size
        flops = (
            info["function_evaluations"] * self.problem.rhs_flops(self.rows)
            + info["gmres_iterations"] * 8.0 * n_local
            + 6.0 * n_local
        )
        return LocalIteration(
            residual=change,
            flops=flops,
            outgoing=self._boundary_payloads(),
            meta={
                "gmres_iterations": info["gmres_iterations"],
                "function_evaluations": info["function_evaluations"],
                "scaled_newton_residual": info["scaled_residual_after"],
            },
        )

    def _finish_outcome(self, key: Tuple[int, int], outcome) -> LocalIteration:
        """Record carry/cache state for ``outcome``, then finish it."""
        fu = outcome[1].pop("_fu", None)
        if outcome[1]["early_exit"]:
            # Early exit: the state did not move, so the same inputs
            # would reproduce this outcome bit-for-bit.  The residual
            # carry (if any) stays valid for the same reason.
            self._cache_key = key
        else:
            # The state moved: the final evaluation of the update is
            # exactly the next iterate's initial residual as long as
            # (halos, state) stay put.
            self._state_rev += 1
            self._fu_carry = fu
            self._fu_key = (self._halo_rev, self._state_rev)
            self._cache_key = None
            self._cache_li = None
        li = self._finish_iterate(outcome)
        if self._cache_key == key:
            self._cache_li = li
        return li

    def _finish_cached(self) -> LocalIteration:
        """Re-emit the memoized early-exit iteration (bit-identical)."""
        self.inner_iterations += 1
        # The cached LocalIteration (payloads, outgoing dict and meta
        # included) is shared across emissions: consumers only read it
        # (the workers copy ``meta`` before annotating).
        return self._cache_li

    def iterate(self) -> LocalIteration:
        key = (self._halo_rev, self._state_rev)
        if key == self._cache_key and self._cache_li is not None:
            return self._finish_cached()
        fu0 = self._fu_carry if self._fu_key == key else None
        memo = self.memo
        if memo is None:
            return self._finish_outcome(key, self._solve(fu0))
        memo_key = self._memo_key(fu0)
        outcome = memo.get(memo_key)
        if outcome is None:
            outcome = self._solve(fu0)
            memo.put(memo_key, outcome)
        return self._finish_outcome(key, outcome)

    def local_solution(self) -> np.ndarray:
        return self.c.ravel().copy()


def make_chemical_problem(nx: int = 20, nz: int = 20, **kwargs) -> ChemicalProblem:
    """Convenience constructor used by examples and benchmarks."""
    return ChemicalProblem(ChemicalConfig(nx=nx, nz=nz, **kwargs))


__all__ = [
    "ChemicalConfig",
    "ChemicalProblem",
    "ChemicalLocal",
    "PAPER_CHEMICAL",
    "SolveMemo",
    "make_chemical_problem",
    "scaled_newton_update",
    "kv",
    "q3",
    "q4",
    "alpha",
    "beta",
]
