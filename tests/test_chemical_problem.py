"""Tests for the chemical advection-diffusion problem (Section 4.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems.chemical import (
    A3,
    A4,
    OMEGA,
    PAPER_CHEMICAL,
    ChemicalConfig,
    ChemicalProblem,
    alpha,
    beta,
    kv,
    q3,
    q4,
)


def _problem(nx=10, nz=12, **kw):
    return ChemicalProblem(ChemicalConfig(nx=nx, nz=nz, **kw))


# ----------------------------------------------------------------------
# coefficients of Eq. (8)-(10)
# ----------------------------------------------------------------------
def test_paper_parameters_match_table1():
    assert PAPER_CHEMICAL.nx == 600 and PAPER_CHEMICAL.nz == 600
    assert PAPER_CHEMICAL.t_end == 2160.0 and PAPER_CHEMICAL.dt == 180.0
    assert PAPER_CHEMICAL.n_steps == 12


def test_kv_exponential_profile():
    assert kv(0.0) == pytest.approx(1e-8)
    assert kv(5.0) == pytest.approx(1e-8 * math.e)


def test_photolysis_rates_daytime_only():
    assert q3(0.0) == 0.0 and q4(0.0) == 0.0            # sin(0) = 0
    noon = math.pi / (2 * OMEGA)                        # sin = 1
    assert q3(noon) == pytest.approx(math.exp(-A3))
    assert q4(noon) == pytest.approx(math.exp(-A4))
    night = 1.5 * math.pi / OMEGA
    assert q3(night) == 0.0 and q4(night) == 0.0


def test_initial_profiles_positive_on_domain():
    x = np.linspace(0.0, 20.0, 50)
    z = np.linspace(30.0, 50.0, 50)
    assert np.all(alpha(x) > 0.0)
    assert np.all(beta(z) > 0.0)


def test_initial_state_scales():
    p = _problem()
    c = p.initial_state()
    assert c.shape == (2, 12, 10)
    assert 1e5 < c[0].max() < 2e6       # c1 ~ 1e6
    assert 1e11 < c[1].max() < 2e12     # c2 ~ 1e12
    assert np.all(c > 0.0)


def test_n_steps_validation():
    with pytest.raises(ValueError):
        ChemicalConfig(t_end=100.0, dt=180.0).n_steps
    with pytest.raises(ValueError):
        ChemicalProblem(ChemicalConfig(nx=2, nz=5))


# ----------------------------------------------------------------------
# right-hand side consistency
# ----------------------------------------------------------------------
def test_rhs_strip_decomposition_matches_full_grid():
    """KEY consistency property: evaluating the RHS strip by strip with
    exact halo rows must equal the full-grid evaluation."""
    p = _problem(nx=8, nz=15)
    rng = np.random.default_rng(0)
    c = p.initial_state() * rng.uniform(0.5, 1.5, p.shape)
    t = 400.0
    full = p.rhs(c, t)
    for cuts in [(0, 5, 10, 15), (0, 7, 15), (0, 1, 14, 15)]:
        pieces = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            halo_top = c[:, lo - 1, :] if lo > 0 else None
            halo_bottom = c[:, hi, :] if hi < 15 else None
            pieces.append(
                p.rhs_strip(c[:, lo:hi, :], t, lo, halo_top, halo_bottom)
            )
        assert np.allclose(np.concatenate(pieces, axis=1), full)


def test_rhs_strip_full_extent_is_rhs_bitwise():
    """Audit: a strip covering all rows with no halos IS the full-grid
    RHS, bit for bit (``rhs`` delegates to ``rhs_strip``)."""
    p = _problem(nx=8, nz=15)
    rng = np.random.default_rng(3)
    c = p.initial_state() * rng.uniform(0.5, 1.5, p.shape)
    t = 400.0
    assert np.array_equal(p.rhs_strip(c, t, 0, None, None), p.rhs(c, t))


def test_rhs_strip_decomposition_bitwise():
    """Audit: adjacent strips fed exact halo rows reproduce the
    full-grid evaluation *bitwise*, not just approximately -- the strip
    kernel slices precomputed full-extent coefficients, so no operand
    or operation order differs between the two evaluations."""
    p = _problem(nx=8, nz=15)
    rng = np.random.default_rng(7)
    for trial in range(5):
        c = p.initial_state() * rng.uniform(0.25, 4.0, p.shape)
        t = float(rng.uniform(0.0, 7200.0))
        full = p.rhs(c, t)
        n_cuts = int(rng.integers(2, 6))
        interior = sorted(rng.choice(np.arange(1, 15), size=n_cuts - 1, replace=False))
        cuts = [0] + [int(i) for i in interior] + [15]
        pieces = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            halo_top = c[:, lo - 1, :].copy() if lo > 0 else None
            halo_bottom = c[:, hi, :].copy() if hi < 15 else None
            pieces.append(p.rhs_strip(c[:, lo:hi, :], t, lo, halo_top, halo_bottom))
        assert np.array_equal(np.concatenate(pieces, axis=1), full), cuts


def test_zero_flux_boundaries_conserve_diffused_mass():
    """The mirror ghost IS the zero-flux condition: no mass crosses the
    physical boundaries.  With reactions off (night, ``c1 = 0``) and a
    state constant in x (no horizontal transport), the RHS is pure
    vertical diffusion, whose column sum telescopes to the two boundary
    interface fluxes -- identically zero.  A spurious boundary
    correction term (the dead lines removed from ``rhs_strip``) would
    show up here as a mass drift."""
    p = _problem(nx=6, nz=14)
    night = 1.5 * math.pi / OMEGA
    assert q3(night) == 0.0 and q4(night) == 0.0
    c = np.zeros(p.shape)
    rng = np.random.default_rng(11)
    c[1] = rng.uniform(1e11, 2e12, p.config.nz)[:, None]  # z-profile, flat in x
    f = p.rhs(c, night)
    # c1 = 0 and no photolysis: species 1 has no sources at all.
    assert np.all(f[0] == 0.0)
    drift = abs(float(f[1].sum()))
    flux_scale = float(np.abs(f[1]).sum())
    assert flux_scale > 0.0
    assert drift <= 1e-12 * flux_scale


def test_rhs_conserves_nothing_but_is_finite():
    p = _problem()
    f = p.rhs(p.initial_state(), 100.0)
    assert np.all(np.isfinite(f))


def test_reaction_signs_toggle():
    p_paper = _problem(paper_reaction_signs=True)
    p_std = _problem(paper_reaction_signs=False)
    c = p_paper.initial_state()
    noon = math.pi / (2 * OMEGA)
    r_paper = p_paper.reaction(c, noon)
    r_std = p_std.reaction(c, noon)
    # R1 identical; R2 differs by 2*q4*c2.
    assert np.allclose(r_paper[0], r_std[0])
    assert np.allclose(r_paper[1] - r_std[1], 2 * q4(noon) * c[1])


def test_g_diag_matches_fd_jacobian_diagonal():
    """The analytic preconditioner diagonal must match dG/dy."""
    p = _problem(nx=6, nz=8)
    cfg = p.config
    c = p.initial_state()
    y_prev = c.ravel().copy()
    t = 180.0

    def residual(y_flat):
        y = y_flat.reshape(p.shape)
        return y_flat - y_prev - cfg.dt * p.rhs(y, t).ravel()

    diag_analytic = p.g_diag_strip(c, t, 0, True, True)
    y = y_prev.copy()
    base = residual(y)
    n = y.size
    rng = np.random.default_rng(1)
    for idx in rng.choice(n, size=20, replace=False):
        h = max(1e-6 * abs(y[idx]), 1e-2)
        y_pert = y.copy()
        y_pert[idx] += h
        fd = (residual(y_pert)[idx] - base[idx]) / h
        assert fd == pytest.approx(diag_analytic[idx], rel=2e-2, abs=1e-8)


# ----------------------------------------------------------------------
# sequential solver
# ----------------------------------------------------------------------
def test_sequential_step_converges_newton():
    p = _problem(t_end=180.0)
    c1, info = p.step_sequential(p.initial_state(), 180.0)
    assert info["residual"] < p.config.newton_tol
    assert info["newton_iterations"] >= 1
    assert np.all(np.isfinite(c1))


def test_sequential_matches_scipy_reference():
    """Cross-check one implicit-Euler step against scipy's BDF on the
    same ODE system (they integrate the same f, so one 180 s step
    should agree to within the truncation error of implicit Euler)."""
    from scipy.integrate import solve_ivp

    p = _problem(nx=6, nz=6)
    c0 = p.initial_state()
    ours, _ = p.step_sequential(c0, 180.0)
    sol = solve_ivp(
        lambda t, y: p.rhs(y.reshape(p.shape), t).ravel(),
        (0.0, 180.0),
        c0.ravel(),
        method="BDF",
        rtol=1e-8,
        atol=1e-3,
    )
    reference = sol.y[:, -1].reshape(p.shape)
    # c1 is photochemically stiff (time constant q1*c3 ~ 0.17 s): one
    # 180 s implicit-Euler step damps the transient to ~c1_0/(1+dt/tau)
    # instead of ~0, a genuine first-order error.  Require only that
    # the stiff species collapsed by >= 3 orders of magnitude.
    c0 = p.initial_state()
    assert ours[0].max() < 1e-3 * c0[0].max()
    # c2 (the slow species) must agree tightly with the reference.
    rel_c2 = np.max(np.abs(ours[1] - reference[1]) / (np.abs(reference[1]) + 1.0))
    assert rel_c2 < 5e-3


def test_solve_sequential_runs_all_steps():
    p = _problem(t_end=360.0)
    c, totals = p.solve_sequential()
    assert totals["newton_iterations"] >= 2
    assert np.all(np.isfinite(c))


# ----------------------------------------------------------------------
# strip-local solver
# ----------------------------------------------------------------------
def test_local_neighbour_dependencies():
    p = _problem()
    assert p.make_local(0, 4).providers() == {1}
    assert p.make_local(1, 4).providers() == {0, 2}
    assert p.make_local(3, 4).providers() == {2}
    assert p.make_local(2, 4).receivers() == {1, 3}


def test_local_boundary_payloads_shapes():
    p = _problem()
    local = p.make_local(1, 3)
    outgoing = local.initial_outgoing()
    assert set(outgoing) == {0, 2}
    (src, which, row), nbytes = outgoing[0]
    assert src == 1 and which == "first_row"
    assert row.shape == (2, p.config.nx)
    assert nbytes == 8.0 * 2 * p.config.nx


def test_local_integrate_sets_halos():
    p = _problem()
    local = p.make_local(1, 3)
    row = np.ones((2, p.config.nx))
    local.integrate(0, (0, "last_row", row))
    assert np.array_equal(local.halo_top, row)
    local.integrate(2, (2, "first_row", 2 * row))
    assert np.array_equal(local.halo_bottom, 2 * row)
    with pytest.raises(ValueError):
        local.integrate(0, (0, "first_row", row))


def test_multisplitting_fixed_point_matches_sequential():
    """Lockstep-driven strips converge to the global Newton solution."""
    p = _problem(nx=8, nz=12, t_end=360.0)
    reference, _ = p.solve_sequential()
    size = 3
    locals_ = [p.make_local(r, size) for r in range(size)]

    def exchange():
        for solver in locals_:
            for dst, (payload, _) in solver.initial_outgoing().items():
                locals_[dst].integrate(solver.rank, payload)

    exchange()
    for step in range(p.config.n_steps):
        for solver in locals_:
            solver.begin_step(step)
        for _ in range(60):
            results = [s.iterate() for s in locals_]
            for solver, res in zip(locals_, results):
                for dst, (payload, _) in res.outgoing.items():
                    locals_[dst].integrate(solver.rank, payload)
            if max(r.residual for r in results) < 1e-9:
                break
        exchange()
        for solver in locals_:
            solver.end_step(step)
    parallel = np.concatenate([s.local_state() for s in locals_], axis=1)
    rel = np.max(np.abs(parallel - reference) / (np.abs(reference) + 1.0))
    assert rel < 1e-8


def test_end_step_requires_begin_step():
    p = _problem()
    local = p.make_local(0, 2)
    with pytest.raises(RuntimeError):
        local.end_step(3)


def test_more_ranks_than_rows_rejected():
    p = _problem(nz=4)
    with pytest.raises(ValueError):
        p.make_local(0, 10)


def _drive_lockstep(p, size, steps, memo=None):
    """Run the strip solvers in lockstep (sharing ``memo`` if given);
    return the final states' bytes and a log of every iterate."""
    locals_ = [p.make_local(r, size) for r in range(size)]
    for solver in locals_:
        solver.memo = memo

    def exchange():
        for solver in locals_:
            for dst, (payload, _) in solver.initial_outgoing().items():
                locals_[dst].integrate(solver.rank, payload)

    log = []
    exchange()
    for step in range(steps):
        for solver in locals_:
            solver.begin_step(step)
        for _ in range(40):
            results = [s.iterate() for s in locals_]
            log.append([
                (r.residual, r.flops, r.meta,
                 {dst: payload[2].tobytes() for dst, (payload, _) in r.outgoing.items()})
                for r in results
            ])
            for solver, res in zip(locals_, results):
                for dst, (payload, _) in res.outgoing.items():
                    locals_[dst].integrate(solver.rank, payload)
            if max(r.residual for r in results) < 1e-9:
                break
        exchange()
        for solver in locals_:
            solver.end_step(step)
    return [s.local_state().tobytes() for s in locals_], log


def test_memo_hit_is_bit_identical_to_recomputing():
    """A second set of strips replaying the first's trajectory through a
    shared memo solves nothing and reproduces every iterate exactly:
    residuals, flop charges, ``meta``, outgoing rows and final states."""
    from repro.problems.chemical import SolveMemo

    p = _problem(nx=8, nz=12, t_end=360.0)
    steps = p.config.n_steps
    reference = _drive_lockstep(p, 3, steps)
    memo = SolveMemo()
    assert _drive_lockstep(p, 3, steps, memo) == reference
    solved, hits = len(memo), memo.hits
    assert _drive_lockstep(p, 3, steps, memo) == reference
    assert len(memo) == solved  # nothing new was solved
    assert memo.hits - hits >= solved


def _stepped_strip(p, memo=None):
    """Rank 1 of 3 after its first step began, halos received."""
    solvers = [p.make_local(r, 3) for r in range(3)]
    for solver in solvers:
        for dst, (payload, _) in solver.initial_outgoing().items():
            solvers[dst].integrate(solver.rank, payload)
    strip = solvers[1]
    strip.memo = memo
    strip.begin_step(0)
    return strip


def test_memo_misses_a_mutated_halo_or_carry():
    """Every solve input is in the key: one ulp in a halo row misses,
    as do a missing halo (a mirror) and a changed carried residual."""
    from repro.problems.chemical import SolveMemo

    p = _problem(nx=6, nz=9, t_end=360.0)
    memo = SolveMemo()
    _stepped_strip(p, memo).iterate()
    assert (len(memo), memo.hits) == (1, 0)
    _stepped_strip(p, memo).iterate()
    assert (len(memo), memo.hits) == (1, 1)

    strip = _stepped_strip(p, memo)
    halo = strip.halo_top.copy()
    halo[0, 0] = np.nextafter(halo[0, 0], np.inf)
    strip.halo_top = halo
    strip.iterate()
    assert (len(memo), memo.hits) == (2, 1)
    strip = _stepped_strip(p, memo)
    strip.halo_bottom = None
    strip.iterate()
    assert (len(memo), memo.hits) == (3, 1)

    # The carry: the residual a full update ends with starts the next.
    strip = _stepped_strip(p)
    strip.iterate()
    fu0 = strip._fu_carry
    assert fu0 is not None
    nudged = fu0.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    keys = {strip._memo_key(fu0), strip._memo_key(nudged), strip._memo_key(None)}
    assert len(keys) == 3


def test_memo_evicts_least_recently_used_within_its_bound(monkeypatch):
    """The byte bound holds after every insertion, eviction drops the
    least recently *used* entry, and an outcome larger than the whole
    bound is not kept."""
    from repro.problems import chemical

    memo = chemical.SolveMemo()
    y = np.zeros(10)
    outcome = (y, {"_fu": y})
    entry = 3 * y.nbytes  # two outcome arrays plus the key's bytes
    monkeypatch.setattr(chemical, "MEMO_BYTES", 2 * entry)
    for key in ("a", "b"):
        memo.put((key, y.tobytes()), outcome)
    assert memo.get(("a", y.tobytes())) is not None  # "b" is now the oldest
    memo.put(("c", y.tobytes()), outcome)
    assert memo.nbytes == 2 * entry and len(memo) == 2
    assert memo.get(("b", y.tobytes())) is None
    assert memo.get(("a", y.tobytes())) is not None
    huge = np.zeros(100)
    memo.put(("d",), (huge, {"_fu": huge}))
    assert memo.get(("d",)) is None and len(memo) == 2


def test_memo_key_may_leave_out_the_scale():
    """The key omits ``_scale``: at every step it is exactly
    ``rtol |y_prev| + atol(rows)``, and before the first step (all ones)
    ``_t_new`` is ``t0``, which no step has."""
    p = _problem(nx=6, nz=9, t_end=540.0)
    strip = p.make_local(1, 3)
    assert strip._t_new == p.config.t0 and (strip._scale == 1.0).all()
    for step in range(p.config.n_steps):
        strip.begin_step(step)
        assert strip._t_new != p.config.t0
        expected = p.config.rtol * np.abs(strip._y_prev) + p.atol_vector(strip.rows)
        assert strip._scale.tobytes() == expected.tobytes()
        strip.iterate()
        strip.end_step(step)


def test_residual_carry_skips_one_evaluation_and_charges_it():
    """Passing the residual a previous update ended with as ``fu0``
    saves exactly one strip evaluation and changes nothing else: the
    same ``y_new`` bytes and the same ``info``, ``function_evaluations``
    included -- on a full update and on an early exit."""
    from repro.problems.chemical import _StripEvaluator, scaled_newton_update

    p = _problem(nx=6, nz=9, t_end=360.0)
    strip = _stepped_strip(p)
    evaluator = _StripEvaluator(
        p, strip.rows, strip._y_prev, strip._scale, strip.z_lo,
        strip.halo_top, strip.halo_bottom, strip._t_new,
    )
    calls = [0]

    def counted(y):
        calls[0] += 1
        return evaluator(y)

    def update(y, fu0):
        before = calls[0]
        y_new, info = scaled_newton_update(
            p, counted, y, strip._y_prev, strip._t_new, strip.z_lo,
            strip.rows, strip._scale, fu0=fu0,
        )
        return y_new, info, calls[0] - before

    def same_outcome(y, fu0):
        y_new, info, evaluations = update(y, None)
        carried_y, carried, carried_evaluations = update(y, fu0.copy())
        assert carried_y.tobytes() == y_new.tobytes()
        assert carried["_fu"].tobytes() == info["_fu"].tobytes()
        assert {**carried, "_fu": None} == {**info, "_fu": None}
        assert carried_evaluations == evaluations - 1
        return y_new, info

    y, info, _ = update(strip.c.ravel(), None)
    assert not info["early_exit"]
    seen = set()
    for _ in range(p.config.max_newton_iterations):
        y, info = same_outcome(y, info["_fu"])
        seen.add(info["early_exit"])
        if info["early_exit"]:
            break
    assert seen == {False, True}


# ----------------------------------------------------------------------
# the strip kernel against a cell-by-cell oracle
# ----------------------------------------------------------------------
DAY, NIGHT = 10_800.0, 50_000.0  # q3, q4 > 0 / both zero


def _oracle_rhs(p, c, t, z_lo, halo_top, halo_bottom):
    """Oracle: the strip RHS on 4-D neighbour views of an ``np.pad``-style copy.

    The formula ``_strip_rhs_kernel`` had before it moved to flat
    windows -- neighbours as shifted interior views, row coefficients
    broadcast along x, the same operations in the same order -- on a
    fresh array whose never-read corners are NaN.  Not derived from
    the current kernel: they must agree to the last bit.
    """
    from repro.problems import chemical as ch

    rows = c.shape[1]
    pad = np.full((2, rows + 2, p.config.nx + 2), np.nan)
    pad[:, 1:-1, 1:-1] = c
    pad[:, 0, 1:-1] = c[:, 0] if halo_top is None else halo_top
    pad[:, -1, 1:-1] = c[:, -1] if halo_bottom is None else halo_bottom
    pad[:, 1:-1, 0] = pad[:, 1:-1, 2]
    pad[:, 1:-1, -1] = pad[:, 1:-1, -3]
    hd, ad = ch.KH / p.dx**2, ch.V_ADV / (2.0 * p.dx)
    kva = (p.kv_half[1:] / p.dz**2)[z_lo : z_lo + rows].reshape(1, rows, 1)
    kvb = (p.kv_half[:-1] / p.dz**2)[z_lo : z_lo + rows].reshape(1, rows, 1)
    out = pad[:, 2:, 1:-1] * kva
    out = out + pad[:, :-2, 1:-1] * kvb
    out = out + pad[:, 1:-1, 1:-1] * (-2.0 * hd - kva - kvb)
    out = out + pad[:, 1:-1, :-2] * (hd - ad)
    out = out + pad[:, 1:-1, 2:] * (hd + ad)
    c1, c2 = c
    o1, o2 = out
    t0 = (c1 * c2) * ch.Q2
    t1 = c2 * q4(t)
    tr = c1 * (ch.Q1 * ch.C3)
    r3term = 2.0 * ch.C3 * q3(t)
    if p.config.paper_reaction_signs:
        t1 = t1 - t0
        o1 = ((o1 + t1) - tr) + r3term
        o2 = (o2 + t1) + tr
    else:
        o1 = (((o1 - tr) - t0) + t1) + r3term
        o2 = ((o2 + tr) - t0) - t1
    return np.stack([o1, o2])


def _oracle_ghat(p, y, member):
    """``(y - y_prev - dt f(y)) / s`` with ``f`` from :func:`_oracle_rhs`."""
    y_prev, scale, z_lo, halo_top, halo_bottom, t = member
    c = y.reshape(2, -1, p.config.nx)
    f = _oracle_rhs(p, c, t, z_lo, halo_top, halo_bottom)
    return ((y - y_prev) - f.ravel() * p.config.dt) / scale


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_strip_kernel_is_bit_identical_to_the_cellwise_oracle(data):
    """``rhs_strip`` and the strip evaluator reproduce the cell-by-cell
    formula bit for bit, for every shape the flat-window layout
    distinguishes: ``nx`` from the mirror edge case 3 up, one-row
    strips, halos present or mirrored per side, both sign conventions,
    day and night, and strips sharing the thread's workspace."""
    from repro.problems.chemical import _StripEvaluator

    nx = data.draw(st.integers(3, 12), label="nx")
    rows = data.draw(st.integers(1, 6), label="rows")
    k = data.draw(st.integers(1, 4), label="strips")
    nz = max(3, rows + data.draw(st.integers(0, 4), label="extra rows"))
    p = _problem(nx=nx, nz=nz, paper_reaction_signs=data.draw(st.booleans(), label="signs"))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))

    def state(shape):
        c = rng.uniform(0.5, 1.5, (2,) + shape)
        c[0] *= 1.0e6
        c[1] *= 1.0e12
        return c

    members, points = [], []
    for _ in range(k):
        halos = [
            state((nx,)) if data.draw(st.booleans(), label="halo") else None
            for _side in range(2)
        ]
        y_prev = state((rows, nx)).ravel()
        members.append((
            y_prev, p.config.rtol * np.abs(y_prev) + p.atol_vector(rows),
            data.draw(st.integers(0, nz - rows), label="z_lo"), halos[0], halos[1],
            data.draw(st.sampled_from([DAY, NIGHT]), label="t"),
        ))
        points.append(y_prev * rng.uniform(0.999, 1.001, y_prev.size))
    order = data.draw(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k), label="order"
    )

    evaluators = [_StripEvaluator(p, rows, *member) for member in members]
    expected = [_oracle_ghat(p, y, m) for y, m in zip(points, members)]
    # The evaluators and rhs_strip share the thread's workspace (same
    # rows, other halos): interleave them, repeats included.
    for i in order:
        assert np.array_equal(evaluators[i](points[i]), expected[i])
        _, _, z_lo, halo_top, halo_bottom, t = members[i]
        c = points[i].reshape(2, rows, nx)
        assert np.array_equal(
            p.rhs_strip(c, t, z_lo, halo_top, halo_bottom),
            _oracle_rhs(p, c, t, z_lo, halo_top, halo_bottom),
        )


def test_interleaved_strips_on_a_shared_workspace_match_isolated_ones():
    """Strips of one problem share the thread's workspace (same row
    count, slot 0) and each skips re-copying a halo whose array already
    sits in the ghost row.  Interleaving ``iterate()`` between them in
    changing orders -- fresh halos after most rounds, the same halo
    objects again after every third -- must give each strip exactly
    what it computes alone on its own problem instance fed the same
    payloads."""
    cfg = dict(nx=7, nz=9, t_end=360.0, gmres_tol=1e-10, newton_tol=1e-9)
    size = 3
    shared = _problem(**cfg)
    together = [shared.make_local(r, size) for r in range(size)]
    alone = [_problem(**cfg).make_local(r, size) for r in range(size)]
    orders = [(0, 1, 2), (1, 2, 1, 2, 0), (2, 2, 1, 0, 1)]

    def deliver(solver, src, payload):
        rank, which, row = payload
        solver.integrate(src, (rank, which, row.copy()))  # payloads are fresh arrays

    # Per strip, what the interleaved run did to it, in order: an
    # iterate (residual, solution after) or a delivery (source, payload).
    history = [[] for _ in range(size)]

    def send(src, outgoing):
        for dst, (payload, _) in outgoing.items():
            deliver(together[dst], src, payload)
            history[dst].append(("deliver", src, payload))

    for solver in together:
        send(solver.rank, solver.initial_outgoing())
    for step in range(shared.config.n_steps):
        for solver in together:
            solver.begin_step(step)
            history[solver.rank].append(("begin_step", step, None))
        for round_ in range(9):
            latest = {}
            for rank in orders[round_ % len(orders)]:
                latest[rank] = together[rank].iterate()
                history[rank].append(
                    ("iterate", latest[rank].residual, together[rank].local_solution())
                )
            if round_ % 3 != 2:
                for rank, result in latest.items():
                    send(rank, result.outgoing)

    for solver, events in zip(alone, history):
        for kind, first, second in events:
            if kind == "deliver":
                deliver(solver, first, second)
            elif kind == "begin_step":
                solver.begin_step(first)
            else:
                assert solver.iterate().residual == first
                assert np.array_equal(solver.local_solution(), second)
        assert any(kind == "iterate" and residual > 0.0 for kind, residual, _ in events)


# ----------------------------------------------------------------------
# whole runs: pinned results, junk lanes, pickles
# ----------------------------------------------------------------------
def _battery_run(name, problem=None):
    """Run one member of ``tools/sim_identity.py``'s fixed chemical battery
    on ``problem`` (default: a fresh one); returns ``(problem, result)``."""
    import importlib.util
    from pathlib import Path

    from repro.api import SimulatedBackend

    path = Path(__file__).resolve().parent.parent / "tools" / "sim_identity.py"
    spec = importlib.util.spec_from_file_location("sim_identity", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (scenario,) = [s for s in tool.chemical_battery() if s.name == name]
    if problem is None:
        problem = scenario.build_problem()
    result = SimulatedBackend().run(scenario, make_solver=problem.make_local)
    return problem, result


def _solution_sha1(result):
    import hashlib

    return hashlib.sha1(result.solution().tobytes()).hexdigest()


BENCH_SHA1 = "c229bb535ddc5631d1cadd5816a1956723414825"


@pytest.mark.parametrize(
    "name, sha1, makespan, iterations, messages, events",
    [
        # sim_lockstep_chem's scenario: nx = nz = 24 on 4 lock-step ranks
        ("chem-bench", BENCH_SHA1, 0.24744137599999644, 168, 546, 2384),
        ("chem-nx3", "e0fea010fab8ca105b6fa6affa0d1ef30e5a4233",
         0.019301319999999997, 18, 42, None),
        ("chem-restart4", "7c379748ce6c9affece388985036add1817c7419",
         0.03882063999999999, 20, 46, None),
    ],
)
def test_chemical_runs_are_pinned(name, sha1, makespan, iterations, messages, events):
    """Literal results recorded at the revision *before* the flat-window
    kernel and the Python-float Krylov scalars: a hot-path change that
    moves one rounding moves these.  (The bytes are those of this
    numpy/BLAS build's ``dot``; the counts and the makespan are not.)"""
    _, result = _battery_run(name)
    stats = result.backend_stats
    assert result.converged
    assert (result.total_iterations, stats["messages_sent"]) == (iterations, messages)
    assert result.makespan == makespan
    if events is not None:
        assert stats["events"] == events
    assert _solution_sha1(result) == sha1


@pytest.mark.parametrize("name", ["chem-bench", "chem-nx3"])
def test_junk_lanes_raise_nothing_and_stay_finite(name):
    """The window arithmetic runs over ghost cells, corners and the gap
    between the species planes.  Those lanes may hold garbage but never
    a trap: no floating-point exception is raised anywhere in a run,
    every workspace buffer is finite afterwards, and the coefficient
    windows are exactly zero off the interior."""
    with np.errstate(all="raise"):
        problem, result = _battery_run(name)
    assert result.converged
    nx = problem.config.nx
    workspaces = list(problem._tls.cache.values())
    assert workspaces
    for ws in workspaces:
        for buffer in (ws.pad, ws.out, ws.t2, ws.t0, ws.t1, ws.dtf):
            assert np.isfinite(buffer).all()
        assert not ws.pad[:, ::ws.rows + 1, ::nx + 1].any()  # corners never written
    assert problem._windows
    for (z_lo, rows), windows in problem._windows.items():
        interior = np.zeros((2, rows + 2, nx + 2), dtype=bool)
        interior[:, 1:-1, 1:-1] = True
        junk = ~interior.ravel()[nx + 3 : -(nx + 3)]
        assert windows.shape == (3, junk.size)
        assert not windows[:, junk].any() and windows[:, ~junk].all()


def test_problem_pickles_stay_lean_and_reproduce_the_run():
    """Every pool/process rank unpickles the problem: neither the
    workspaces nor the coefficient-window cache travel, and what comes
    out rebuilds both lazily and computes the same bytes."""
    import pickle

    problem, result = _battery_run("chem-bench")
    assert _solution_sha1(result) == BENCH_SHA1
    assert problem._windows and problem._tls is not None
    payload = pickle.dumps(problem)
    # 2 423 bytes at the revision before the window cache existed.
    assert len(payload) <= 2423
    clone = pickle.loads(payload)
    assert not clone._windows and clone._tls is None
    _, again = _battery_run("chem-bench", problem=clone)
    assert _solution_sha1(again) == BENCH_SHA1
    assert clone._windows.keys() == problem._windows.keys()
