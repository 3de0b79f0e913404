"""Macroscopic time stepping: equilibria, convergence, determinism."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from homsim import fem, macro
from homsim.mesh import ArtifactError, build_macro_mesh

from conftest import constant_problem_data, count_patterns, splu_options


def _run(mesh, table, data, dt, n, stride=None):
    space = fem.FemSpace(mesh)
    grid = macro.TimeGrid(dt=dt, n_steps=n)
    stepper = macro.Stepper(space, macro.TableProvider(space, table), data, grid,
                            snapshot_stride=stride or n)
    return stepper.run()


def test_equilibrium_is_preserved(macro_mesh, small_table):
    """No sources + constant boundary data leaves all fields at rest."""
    data = constant_problem_data(value_T=300.0)
    traj = _run(macro_mesh, small_table, data, 1e-3, 10)
    s = traj.snapshots[-1]
    assert np.abs(s.T - 300.0).max() < 1e-9
    assert np.abs(s.Phi).max() < 1e-12
    assert np.abs(s.U).max() < 1e-12


def test_fields_respond_to_sources(macro_mesh, small_table):
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    traj = _run(macro_mesh, small_table, data, 1e-3, 10)
    s = traj.snapshots[-1]
    assert s.T.max() > 300.0 + 1e-3
    assert np.abs(s.Phi).max() > 1e-8
    assert np.abs(s.U).max() > 1e-12


def test_dirichlet_values_enforced(macro_mesh, small_table):
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    traj = _run(macro_mesh, small_table, data, 1e-3, 5)
    s = traj.snapshots[-1]
    bn = macro_mesh.boundary_nodes
    assert np.abs(s.T[bn] - 300.0).max() < 1e-9
    assert np.abs(s.Phi[bn]).max() < 1e-12
    assert np.abs(s.U[:, bn]).max() < 1e-12


def test_snapshot_stride_and_times(macro_mesh, small_table):
    data = constant_problem_data(value_T=300.0, f_T=100.0)
    traj = _run(macro_mesh, small_table, data, 1e-3, 10, stride=2)
    times = [s.t for s in traj.snapshots]
    assert times == pytest.approx([0.0, 0.002, 0.004, 0.006, 0.008, 0.010])


def test_determinism(macro_mesh, small_table):
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    t1 = _run(macro_mesh, small_table, data, 1e-3, 5)
    t2 = _run(macro_mesh, small_table, data, 1e-3, 5)
    for a, b in zip(t1.snapshots, t2.snapshots):
        assert np.array_equal(a.T, b.T)
        assert np.array_equal(a.U, b.U)


def test_trajectory_roundtrip(tmp_path, macro_mesh, small_table):
    data = constant_problem_data(value_T=300.0, f_T=2000.0)
    traj = _run(macro_mesh, small_table, data, 1e-3, 4, stride=2)
    p = tmp_path / "traj.npz"
    traj.stamp = {"sources": "a" * 64, "boundary": "b" * 64}
    macro.save_trajectory(traj, p)
    back = macro.load_trajectory(p, "online")
    assert back.stamp == traj.stamp
    for name in ("nodes", "triangles", "phase_tag", "boundary_nodes"):
        a, b = getattr(back.mesh, name), getattr(macro_mesh, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert back.grid.dt == traj.grid.dt
    assert len(back.snapshots) == len(traj.snapshots)
    assert np.array_equal(back.snapshots[-1].T, traj.snapshots[-1].T)
    assert np.array_equal(back.snapshots[-1].U_prevprev,
                          traj.snapshots[-1].U_prevprev)


@pytest.mark.parametrize("name, shape", [("T", (3, 10)), ("Phi", (3, 120)), ("U_prev", (3, 121, 2)),
                                         ("t", (2,)), ("dt", (1,))])
def test_trajectory_that_does_not_fit_its_mesh_is_refused(tmp_path, macro_mesh, small_table,
                                                          name, shape):
    """A Snapshot array sized for another mesh, a snapshot count that
    disagrees, or a grid that is not a scalar: refused, naming the file, the
    array and the stage that writes it."""
    traj = _run(macro_mesh, small_table, constant_problem_data(value_T=300.0, f_T=2000.0),
                1e-3, 4, stride=2)
    p = tmp_path / "traj.npz"
    macro.save_trajectory(traj, p)
    with np.load(p) as z:
        arrays = {k: z[k] for k in z.files}
    arrays[name] = np.zeros(shape, arrays[name].dtype)
    np.savez(p, **arrays)
    with pytest.raises(ArtifactError, match=rf"traj\.npz: malformed: (.*; )?{name} is .*re-run `homsim dns`"):
        macro.load_trajectory(p, "dns")


def test_load_trajectory_reads_each_array_once(tmp_path, monkeypatch, macro_mesh, small_table):
    """dt, n_steps, the stamp, the mesh's arrays and one array per Snapshot
    field, each read once for all snapshots."""
    traj = _run(macro_mesh, small_table, constant_problem_data(value_T=300.0, f_T=2000.0),
                1e-3, 4, stride=2)
    p = tmp_path / "traj.npz"
    macro.save_trajectory(traj, p)
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__
    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                        lambda self, key: read.append(key) or getitem(self, key))
    back = macro.load_trajectory(p, "online")
    names = [f.name for f in dataclasses.fields(macro.Snapshot)]
    assert sorted(read) == sorted(["dt", "n_steps", "stamp", "nodes", "triangles", "phase_tag"]
                                  + names)
    assert len(back.snapshots) == len(traj.snapshots) == 3
    for a, b in zip(back.snapshots, traj.snapshots):
        assert type(a.m) is int and type(a.t) is float
        for name in names:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_snapshot_stride_below_one_is_refused(macro_mesh, small_table):
    space = fem.FemSpace(macro_mesh)
    for stride in (0, -2):
        with pytest.raises(ValueError, match="snapshot_stride"):
            macro.Stepper(space, macro.TableProvider(space, small_table),
                          constant_problem_data(), macro.TimeGrid(dt=1e-3, n_steps=2), stride)


@pytest.mark.parametrize("dt, n_steps", [(float("nan"), 2), (float("inf"), 2), (-float("inf"), 2),
                                         (0.0, 2), (-1e-3, 2), (1e-3, 0)])
def test_time_grid_needs_a_finite_positive_dt_and_a_step(dt, n_steps):
    with pytest.raises(ValueError, match="finite dt > 0 and n_steps >= 1"):
        macro.TimeGrid(dt=dt, n_steps=n_steps)


def test_gradient_recovery_exact_for_linear(macro_mesh):
    nodal = 4.0 * macro_mesh.nodes[:, 0] - macro_mesh.nodes[:, 1]
    g = macro.recover_nodal_gradient(fem.FemSpace(macro_mesh), nodal)
    assert np.allclose(g[:, 0], 4.0, atol=1e-12)
    assert np.allclose(g[:, 1], -1.0, atol=1e-12)


def test_recovery_operator_matches_patch_loop(macro_mesh, disk_cell_mesh):
    """The sparse operator equals area averaging plus the boundary patch fits."""
    rng = np.random.default_rng(7)
    for mesh in (macro_mesh, disk_cell_mesh):
        nodal = rng.standard_normal((2, mesh.num_nodes))
        ge = fem.element_gradient(mesh, nodal)  # (2, nt, 2)
        tri = mesh.triangles.ravel()
        wsum = np.zeros(mesh.num_nodes)
        np.add.at(wsum, tri, np.repeat(mesh.areas, 3))
        ref = np.zeros((2, mesh.num_nodes, 2))
        for r in range(2):
            for comp in range(2):
                acc = np.zeros(mesh.num_nodes)
                np.add.at(acc, tri, np.repeat(ge[r, :, comp] * mesh.areas, 3))
                ref[r, :, comp] = acc / wsum
        patches = fem._boundary_patches(mesh, *fem._node_elements(mesh))
        for b, (elems, row) in zip(mesh.boundary_nodes, patches):
            ref[:, b, :] = ge[:, elems, :].transpose(0, 2, 1) @ row
        got = macro.recover_nodal_gradient(fem.FemSpace(mesh), nodal)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        bn = mesh.boundary_nodes
        assert np.abs(got[:, bn] - ref[:, bn]).max() <= 1e-12 * np.abs(ref[:, bn]).max()


def _patches_by_full_adjacency(mesh):
    """Boundary patches from adjacency lists of every node (reference)."""
    nn = mesh.num_nodes
    node_elems = [[] for _ in range(nn)]
    for t, tri in enumerate(mesh.triangles):
        for a in tri:
            node_elems[a].append(t)
    nbrs = [set() for _ in range(nn)]
    for tri in mesh.triangles:
        for a in tri:
            nbrs[a].update(tri)
    interior = np.ones(nn, dtype=bool)
    interior[mesh.boundary_nodes] = False
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    patches = []
    for b in mesh.boundary_nodes:
        cand = [a for a in nbrs[b] if interior[a]]
        if not cand:
            two = set()
            for a in nbrs[b]:
                two.update(nbrs[a])
            cand = [a for a in two if interior[a]]
        cand = np.asarray(cand)
        dist = np.sum((mesh.nodes[cand] - mesh.nodes[b]) ** 2, axis=1)
        elems = np.asarray(node_elems[cand[np.argmin(dist)]])
        d = centroids[elems] - mesh.nodes[b]
        X = np.column_stack([np.ones(len(elems)), d])
        w = mesh.areas[elems]
        patches.append((elems, np.linalg.solve(X.T @ (w[:, None] * X), X.T * w)[0]))
    return patches


def test_boundary_patches_match_full_adjacency(macro_mesh, disk_cell_mesh, stripe_cell_mesh):
    from homsim.dns import build_tiled_mesh

    for mesh in (macro_mesh, disk_cell_mesh, stripe_cell_mesh,
                 build_tiled_mesh(disk_cell_mesh, 0.25)):
        got = fem._boundary_patches(mesh, *fem._node_elements(mesh))
        ref = _patches_by_full_adjacency(mesh)
        assert len(got) == len(ref)
        for (e1, r1), (e2, r2) in zip(got, ref):
            assert np.array_equal(e1, e2) and np.array_equal(r1, r2)


def test_stepper_builds_mesh_data_once(monkeypatch, macro_mesh, small_table):
    calls = {"quad_points": 0, "_boundary_patches": 0}
    for name in calls:
        orig = getattr(fem, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(fem, name, counted)
    patterns = count_patterns(monkeypatch)
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    _run(macro_mesh, small_table, data, 1e-3, 4)
    assert calls == {"quad_points": 1, "_boundary_patches": 1}
    # one CSR pattern per operator kind: scalar (3 dofs per element), vector (6)
    assert sorted(patterns) == [3, 6]


class _FactorEverySolve(macro.Stepper):
    """Reference stepper: a new factorization for every solve, no LU reuse."""

    def _solve(self, kind, A, b, keep=True):
        return fem.SpdSolver(A).solve(b)


def test_stepper_reuses_one_lu_per_operator_kind(gstrf_options, macro_mesh, small_table):
    space = fem.FemSpace(macro_mesh)
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    grid = macro.TimeGrid(dt=1e-3, n_steps=12)
    ref = _FactorEverySolve(space, macro.TableProvider(space, small_table), data, grid,
                            snapshot_stride=1).run()
    factored = gstrf_options
    factored.clear()  # the reference's factorizations are not counted
    traj = macro.Stepper(space, macro.TableProvider(space, small_table), data, grid,
                         snapshot_stride=1).run()
    # potential, temperature (factored for the start-up half step and kept
    # for step 0 on) and displacement, each in SuperLU's symmetric mode
    symmetric = splu_options(**{"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                                "options": {"SymmetricMode": True}})
    assert factored == [symmetric] * 3
    assert traj.meta["factorizations"] == len(factored)
    assert traj.meta["max_lu_fill"] > 0
    assert traj.meta["cg_iterations"] > 0
    assert 0.0 < traj.meta["worst_residual"] <= 1e-10
    assert [s.t for s in traj.snapshots] == [s.t for s in ref.snapshots]
    for a, b in zip(traj.snapshots, ref.snapshots):
        for name in ("T", "Phi", "U"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.abs(x - y).max() <= 1e-9 * np.abs(y).max()


def test_warm_start_takes_no_more_cg_iterations_than_a_cold_one(monkeypatch, macro_mesh, small_table):
    """CG started from the last solution of its kind, against CG started from zero."""
    space = fem.FemSpace(macro_mesh)
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    grid = macro.TimeGrid(dt=1e-3, n_steps=12)
    provider = macro.TableProvider(space, small_table)
    warm = macro.Stepper(space, provider, data, grid, snapshot_stride=1).run()
    solve_near = fem.SpdSolver.solve_near
    monkeypatch.setattr(fem.SpdSolver, "solve_near",
                        lambda self, A, b, max_iter, x0: solve_near(self, A, b, max_iter, None))
    cold = macro.Stepper(space, provider, data, grid, snapshot_stride=1).run()
    assert 0 < warm.meta["cg_iterations"] <= cold.meta["cg_iterations"]
    assert warm.meta["factorizations"] == cold.meta["factorizations"]
    assert warm.meta["worst_residual"] <= 1e-10
    for a, b in zip(warm.snapshots, cold.snapshots):
        for name in ("T", "Phi", "U"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.abs(x - y).max() <= 1e-9 * np.abs(y).max()


def test_run_twice_on_one_stepper_gives_identical_trajectories(macro_mesh, small_table):
    """run() starts from no kept LU and no warm start, every time."""
    space = fem.FemSpace(macro_mesh)
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    stepper = macro.Stepper(space, macro.TableProvider(space, small_table), data,
                            macro.TimeGrid(dt=1e-3, n_steps=6), snapshot_stride=2)
    first, second = stepper.run(), stepper.run()
    assert first.meta == second.meta
    assert len(first.snapshots) == len(second.snapshots) == 4
    for a, b in zip(first.snapshots, second.snapshots):
        for name in ("T", "T_prev", "Phi", "U", "U_prev", "U_prevprev"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_stepper_releases_every_lu(monkeypatch, macro_mesh, small_table):
    made = []

    class Tracked(fem.SpdSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(fem, "SpdSolver", Tracked)
    space = fem.FemSpace(macro_mesh)
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    for n_steps in (4, 1):
        made.clear()
        stepper = macro.Stepper(space, macro.TableProvider(space, small_table), data,
                                macro.TimeGrid(dt=1e-3, n_steps=n_steps), snapshot_stride=1)
        traj = stepper.run()
        # one LU per operator kind: even a 1-step run reuses the potential LU
        # and the start-up temperature LU on step 0
        assert len(made) == traj.meta["factorizations"] == 3
        assert stepper._factors == {}
        gc.collect()
        assert all(ref() is None for ref in made)


def test_symmetric_mode_fills_less_than_colamd(macro_mesh, small_table):
    space = fem.FemSpace(macro_mesh)
    nn = macro_mesh.num_nodes
    data = constant_problem_data(value_T=300.0, f_U=500.0)
    stepper = macro.Stepper(space, macro.TableProvider(space, small_table), data,
                            macro.TimeGrid(dt=1e-3, n_steps=1), snapshot_stride=1)
    U = np.zeros((2, nn))
    A, b = stepper._displacement_system(np.full(nn, 350.0), U, U, 1e-3)
    symmetric, colamd = fem.SpdSolver(A), fem.SpdSolver(A, default_ordering=True)
    assert symmetric.fill < colamd.fill
    x = symmetric.solve(b)
    assert symmetric.residual <= 1e-10
    y = colamd.solve(b)
    assert np.abs(x - y).max() <= 1e-9 * np.abs(y).max()


def _manufactured_heat_error(h, dt, n_steps, table):
    """Pure-diffusion manufactured solution via the full stepping loop.

    T = 300 + t * sin(pi x) sin(pi y) with coefficients from the degenerate
    table; Phi and U stay identically zero, so the temperature equation is
    exercised in isolation.
    """
    mesh = build_macro_mesh(h)
    co = table.coeff_fields(np.array([300.0]), ["k_hat", "S_hat"])
    k = float(co["k_hat"][0, 0, 0])
    S = float(co["S_hat"][0])

    def sol(pts, t):
        return 300.0 + t * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def f_T(pts, t):
        s = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        return S * s + 2 * np.pi**2 * k * t * s

    zvec = lambda pts, t: np.zeros((len(pts), 2))
    data = macro.ProblemData(
        f_T=f_T,
        f_Phi=lambda pts, t: np.zeros(len(pts)),
        f_U=zvec,
        bc_T=sol,
        bc_Phi=lambda pts, t: np.zeros(len(pts)),
        bc_U=zvec,
        T_init=300.0,
        U_init=zvec,
        V_init=zvec,
    )
    grid = macro.TimeGrid(dt=dt, n_steps=n_steps)
    space = fem.FemSpace(mesh)
    traj = macro.Stepper(space, macro.TableProvider(space, table), data, grid,
                         snapshot_stride=n_steps).run()
    s = traj.snapshots[-1]
    exact = sol(mesh.nodes, s.t)
    M = fem.assemble_mass(space, np.ones(space.wq.shape))
    e = s.T - exact
    return float(np.sqrt(e @ (M @ e)))


def test_manufactured_spatial_convergence(uniform_table):
    # dt small enough that the spatial error dominates
    e1 = _manufactured_heat_error(0.1, 1e-3, 20, uniform_table)
    e2 = _manufactured_heat_error(0.05, 1e-3, 20, uniform_table)
    rate = np.log2(e1 / e2)
    assert 1.5 < rate < 2.5


@pytest.mark.parametrize("kind, source", [("potential", "f_Phi"), ("temperature", "f_T"),
                                          ("displacement", "f_U")])
def test_non_finite_source_fails_naming_the_step_and_the_solve(macro_mesh, small_table,
                                                                kind, source):
    """A source that turns NaN at step 1 raises StepError for that step and
    operator kind, not a field of zeros."""
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    finite = getattr(data, source)

    def turns_nan(pts, t):
        v = finite(pts, t)
        return np.full_like(v, np.nan) if t > 1.2e-3 else v

    data = dataclasses.replace(data, **{source: turns_nan})
    with pytest.raises(macro.StepError,
                       match=f"step 1: {kind} solve: the right-hand side is not finite"):
        _run(macro_mesh, small_table, data, 1e-3, 3)
