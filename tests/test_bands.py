"""Band structure: analytic parabola oracle, minima refinement, symmetry."""

import numpy as np
import pytest

from socsqueeze import bands
from socsqueeze.bands import (
    _entries,
    _grid_minima_seeds,
    _lowest_root_grid,
    _minima,
    _points,
    build_hamiltonian,
    classify,
    classify_points,
    dispersion,
    lowest_branch,
)
from socsqueeze.cli import main
from socsqueeze.config import AxisSpec, RunConfig
from socsqueeze.crossing import _NEWTON_TOL
from socsqueeze.errors import ConfigError, ConvergenceError
from socsqueeze.params import ModelParams


def fields(points):
    """The band fields of a list of ModelParams, one array per field."""
    return _points(*np.array([(p.omega_R, p.delta, p.epsilon) for p in points]).reshape(-1, 3).T)


def bare_parabolas(k, params):
    return np.stack([
        (k + 2.0) ** 2 - params.delta,
        k**2 - params.epsilon,
        (k - 2.0) ** 2 + params.delta,
    ])


def brute_force_minima_count(params, n=40001, window=(-4.0, 4.0)):
    """Independent minima count: fine grid, three-point test, no refinement."""
    k = np.linspace(window[0], window[1], n)
    e = lowest_branch(k, params)
    interior = (e[1:-1] < e[:-2]) & (e[1:-1] < e[2:])
    return int(np.count_nonzero(interior))


def test_hamiltonian_entries():
    p = ModelParams(omega_R=3.0, delta=0.7, epsilon=-1.2)
    h = build_hamiltonian(0.5, p)
    assert h[0, 0] == (2.5) ** 2 - 0.7
    assert h[1, 1] == 0.25 + 1.2
    assert h[2, 2] == (-1.5) ** 2 + 0.7
    assert h[0, 1] == h[1, 0] == h[1, 2] == h[2, 1] == 1.5
    assert h[0, 2] == h[2, 0] == 0.0
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_uncoupled_branches_are_bare_parabolas():
    p = ModelParams(omega_R=0.0, delta=1.0, epsilon=0.5)
    k = np.linspace(-4.0, 4.0, 2001)
    d = dispersion(p)
    expected = np.sort(bare_parabolas(k, p), axis=0).T
    assert np.max(np.abs(d.energies - expected)) <= 1e-12


def test_uncoupled_lowest_branch_is_pointwise_min():
    p = ModelParams(omega_R=0.0, delta=1.0, epsilon=0.0)
    k = np.linspace(-4.0, 4.0, 2001)
    assert np.max(np.abs(lowest_branch(k, p) - bare_parabolas(k, p).min(axis=0))) <= 1e-12


def test_uncoupled_minima_at_parabola_vertices():
    p = ModelParams(omega_R=0.0, delta=1.0, epsilon=0.0)
    d = dispersion(p)
    assert d.n_minima == 3
    assert np.allclose(d.minima_k, [-2.0, 0.0, 2.0], atol=1e-6)
    assert np.allclose(d.minima_E, [-1.0, 0.0, 1.0], atol=1e-9)


def test_refined_minimum_energy_matches_hamiltonian():
    p = ModelParams(omega_R=2.0, delta=1.0, epsilon=0.0)
    d = dispersion(p)
    for km, em in zip(d.minima_k, d.minima_E):
        ev = np.linalg.eigvalsh(build_hamiltonian(km, p))[0]
        assert abs(ev - em) <= 1e-9


def test_classification_against_brute_force_scan():
    cases = [
        ModelParams(omega_R=0.5, delta=1.0, epsilon=0.0),
        ModelParams(omega_R=20.0, delta=1.0, epsilon=0.0),
        ModelParams(omega_R=0.0, delta=1.0, epsilon=6.0),
        ModelParams(omega_R=2.0, delta=0.0, epsilon=-2.0),
        ModelParams(omega_R=1.0, delta=0.3, epsilon=1.5),
    ]
    for p in cases:
        assert classify(p).n_minima == brute_force_minima_count(p), p


def test_known_minima_counts():
    assert classify(ModelParams(omega_R=0.0, delta=1.0, epsilon=0.0)).n_minima == 3
    assert classify(ModelParams(omega_R=0.0, delta=1.0, epsilon=6.0)).n_minima == 1
    assert classify(ModelParams(omega_R=0.5, delta=1.0, epsilon=0.0)).n_minima == 3
    assert classify(ModelParams(omega_R=20.0, delta=1.0, epsilon=0.0)).n_minima == 1


def test_degenerate_flag_on_symmetric_double_well():
    # delta = 0, epsilon < 0: the two side wells are exactly degenerate
    cell = classify(ModelParams(omega_R=1.0, delta=0.0, epsilon=-3.0))
    assert cell.n_minima >= 2
    assert cell.degenerate


def test_detuning_mirror_symmetry():
    for omr, eps in ((0.8, 0.0), (2.0, 6.0), (4.0, -2.0)):
        a = classify(ModelParams(omega_R=omr, delta=1.7, epsilon=eps))
        b = classify(ModelParams(omega_R=omr, delta=-1.7, epsilon=eps))
        assert a.n_minima == b.n_minima
        assert abs(a.E_min - b.E_min) <= 1e-9
        assert abs(a.k_min + b.k_min) <= 1e-6


def test_phase_diagram_grid_and_rows(tmp_path):
    out = tmp_path / "pd"
    cfg = tmp_path / "pd.ini"
    cfg.write_text("[run]\ncommand = phase-diagram\n[params]\nepsilon = 6.0\n"
                   "[phase-diagram]\naxis1 = omega_R\nmin1 = 0.5\nmax1 = 4.0\ncount1 = 3\n"
                   "axis2 = delta\nmin2 = -2.0\nmax2 = 2.0\ncount2 = 5\n")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "phase_diagram.csv").read_text().splitlines()
    assert lines[0] == "omega_R,delta,n_minima,degenerate,E_min,k_min"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 15
    assert rows[0][0] == 0.5 and rows[0][1] == -2.0
    assert rows[-1][0] == 4.0 and rows[-1][1] == 2.0
    for row in rows:
        assert row[2] in (1, 2, 3)
        cell = classify(ModelParams(omega_R=row[0], delta=row[1], epsilon=6.0))
        assert (row[2], row[3], row[4], row[5]) == (
            cell.n_minima, int(cell.degenerate), cell.E_min, cell.k_min)


def _phase_config(axis1, axis2):
    return RunConfig(command="phase-diagram", backend="ed", out="unused", seed=0, jobs=1,
                     params=ModelParams(omega_R=1.0, delta=0.0, epsilon=0.0),
                     axis1=axis1, axis2=axis2)


def test_phase_diagram_rejects_unknown_axis():
    with pytest.raises(ConfigError):
        _phase_config(AxisSpec("gamma", (0.0, 1 / 3, 2 / 3, 1.0)),
                      AxisSpec("delta", (0.0, 1 / 3, 2 / 3, 1.0)))


def test_phase_diagram_rejects_single_point_axis():
    with pytest.raises(ConfigError):
        _phase_config(AxisSpec("omega_R", (0.0,)), AxisSpec("delta", (0.0, 1 / 3, 2 / 3, 1.0)))


def test_window_edges_never_reported_as_minima():
    # lowest branch decreasing toward the right edge inside a narrow window
    p = ModelParams(omega_R=0.0, delta=0.0, epsilon=0.0)
    d = dispersion(p, window=(0.5, 1.5), n_points=101)
    assert d.n_minima == 0


# --- oracle: the grid scan and parabolic refinement the minima path replaced ---

def oracle_grid_minima_seeds(e):
    """Indices (possibly fractional, for plateau midpoints) of grid minima."""
    seeds = []
    n = len(e)
    j = 1
    while j < n - 1:
        if e[j] < e[j - 1] and e[j] < e[j + 1]:
            seeds.append(float(j))
            j += 1
        elif e[j] < e[j - 1] and e[j] == e[j + 1]:
            # plateau: scan to its end, keep the midpoint if both sides rise
            j2 = j
            while j2 + 1 < n and e[j2 + 1] == e[j]:
                j2 += 1
            if j2 < n - 1 and e[j2 + 1] > e[j]:
                seeds.append(0.5 * (j + j2))
            j = j2 + 1
        else:
            j += 1
    return seeds


def oracle_refine_minimum(k0, h0, params):
    """Bracketed parabolic iteration from a grid minimum, half-width one grid step."""
    kc, h = float(k0), float(h0)
    for _ in range(60):
        fl, fc, fr = lowest_branch(np.array([kc - h, kc, kc + h]), params)
        denom = fl - 2.0 * fc + fr
        if denom <= 0.0:
            h *= 0.5
        else:
            shift = 0.5 * h * (fl - fr) / denom
            kc += float(np.clip(shift, -h, h))
            h *= 0.5
        if h < 1e-13:
            break
    return kc, float(lowest_branch(kc, params))


def oracle_minima(params, window=(-4.0, 4.0), n_points=2001):
    """Refined lowest-branch minima [(k, E)], sorted by k, duplicates merged."""
    k = np.linspace(window[0], window[1], n_points)
    e0 = lowest_branch(k, params)
    dk = k[1] - k[0]
    mins = []
    for seed in oracle_grid_minima_seeds(e0):
        kc, ec = oracle_refine_minimum(window[0] + seed * dk, dk, params)
        el, er = lowest_branch(np.array([kc - dk, kc + dk]), params)
        if el >= ec and er >= ec:
            mins.append((kc, ec))
    mins.sort()
    merged = []
    for kc, ec in mins:
        if merged and abs(kc - merged[-1][0]) < 0.5 * dk:
            if ec < merged[-1][1]:
                merged[-1] = (kc, ec)
            continue
        merged.append((kc, ec))
    return merged


def plateau_rows(n):
    """Rows of n values built around flat runs: a long interior run, runs that
    touch either edge, a run that ends on a falling step, a run left through
    a NaN step, and a constant row."""
    ramp = np.arange(n, dtype=float)
    rows = [np.r_[[3.0, 2.0], np.ones(n - 3), [2.0]],
            np.r_[np.ones(n - 2), [2.0, 3.0]],
            np.r_[[3.0, 2.0], np.ones(n - 2)],
            np.r_[[3.0, 2.0], np.ones(n - 5), [0.0, 2.0, 3.0]],
            np.r_[[3.0, 2.0], np.ones(n - 5), [0.0, 0.0, 0.0]],
            np.r_[[3.0, 2.0], np.ones(n - 5), [np.nan, 2.0, 3.0]],
            np.ones(n), ramp, ramp[::-1], np.abs(ramp - n // 2)]
    rng = np.random.default_rng(5)
    for _ in range(400):
        # runs of 1-15 equal values, so many runs are long and some fill the row
        values = rng.integers(0, 4, size=n).astype(float)
        rows.append(np.repeat(values, rng.integers(1, 16, size=n))[:n])
    return np.array(rows)


def test_grid_seeds_match_loop_oracle():
    # small integers give many plateaus, edge runs and ties; over 2000 rows
    # scanned at once no run may carry over from one row into the next
    rng = np.random.default_rng(3)
    k = np.linspace(-1.0, 1.0, 41)
    e = np.vstack([rng.integers(0, 4, size=(2000, 41)).astype(float), plateau_rows(41)])
    rows, seeds = _grid_minima_seeds(k, e)
    for i, row in enumerate(e):
        expected = k[0] + np.array(oracle_grid_minima_seeds(row)) * (k[1] - k[0])
        assert np.array_equal(seeds[rows == i], expected), row
        assert np.array_equal(_grid_minima_seeds(k, row[None])[1], expected), row


def oracle_points():
    """The criterion-3 grid plus seeded random points, drive 0 and near 0 included."""
    pts = [ModelParams(omega_R=float(o), delta=float(d), epsilon=6.0)
           for o in np.linspace(0.25, 5.0, 20) for d in np.linspace(-4.75, 4.75, 20)]
    rng = np.random.default_rng(2016)
    for i in range(560):
        omega = (0.0, 1e-6, 1e-3)[i % 8] if i % 8 < 3 else float(rng.uniform(0.0, 8.0))
        pts.append(ModelParams(omega_R=omega, delta=float(rng.uniform(-5.0, 5.0)),
                               epsilon=float(rng.uniform(-3.0, 10.0))))
    return pts


@pytest.fixture(scope="module")
def oracle_cases():
    return [(p, oracle_minima(p)) for p in oracle_points()]


def test_classify_matches_parabolic_oracle(oracle_cases):
    for p, merged in oracle_cases:
        if not merged:
            with pytest.raises(ConvergenceError):
                classify(p)
            continue
        ks, es = np.array(merged).T
        order = np.argsort(es)
        degenerate = len(merged) > 1 and (es[order[1]] - es[order[0]]) < 1e-6
        cell = classify(p)
        assert (cell.n_minima, cell.degenerate) == (len(merged), degenerate), p
        assert abs(cell.E_min - es[order[0]]) <= 1e-12 * max(1.0, abs(es[order[0]])), p
        assert abs(cell.k_min - ks[order[0]]) <= 1e-7, p


def test_refined_minima_are_stationary(oracle_cases):
    h = 1e-5
    k = np.linspace(-4.0, 4.0, 2001)
    for p, _ in oracle_cases:
        for km in _minima(k, fields([p]))[1]:
            el, er = lowest_branch(np.array([km - h, km + h]), p)
            assert abs(er - el) / (2.0 * h) <= 1e-8, (p, km)


def _outcome(cell):
    """A PhaseCell as a tuple, or a ConvergenceError as its type and message."""
    if isinstance(cell, ConvergenceError):
        return type(cell), str(cell)
    return cell.n_minima, cell.degenerate, cell.E_min, cell.k_min


def test_classify_points_matches_classify_bit_for_bit(oracle_cases, monkeypatch):
    # calls of 16 points from several offsets, and one call of every point in
    # blocks of 7, put each point at other places in a block and next to other
    # points; its result must not change in any bit.  The window [1, 3] leaves
    # some points without a minimum inside blocks
    points = [p for p, _ in oracle_cases]
    for window, n_points in (((-4.0, 4.0), 2001), ((1.0, 3.0), 201)):
        single = []
        for p in points:
            try:
                single.append(_outcome(classify(p, window=window, n_points=n_points)))
            except ConvergenceError as exc:
                single.append(_outcome(exc))
        failed = sum(s[0] is ConvergenceError for s in single)
        assert (failed > 0) == (window == (1.0, 3.0))
        for offset in (0, 5, 13):
            bounds = [0] + list(range(offset, len(points), 16)) + [len(points)]
            batched = [_outcome(cell) for lo, hi in zip(bounds[:-1], bounds[1:])
                       for cell in classify_points(*fields(points[lo:hi]), window=window,
                                                   n_points=n_points)]
            assert batched == single, (window, offset)
        with monkeypatch.context() as patch:
            patch.setattr(bands, "_BLOCK_GRID_POINTS", 7 * n_points)
            blocked = classify_points(*fields(points), window=window, n_points=n_points)
        assert [_outcome(cell) for cell in blocked] == single, window


def oracle_lowest_root(d0, d1, d2, w):
    """The closed-form lowest root the grid scan replaced: the trigonometric
    solution of the characteristic cubic, from the entries at every k."""
    q = (d0 + d1 + d2) / 3.0
    a, b, c = d0 - q, d1 - q, d2 - q
    ww = w * w
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (ww + ww)) / 6.0)
    det = a * (b * c - ww) - c * ww
    r = np.clip(-det / np.maximum(2.0 * p * p * p, np.finfo(float).tiny), -1.0, 1.0)
    return q - 2.0 * p * np.cos(np.arccos(r) / 3.0)


def test_scan_seeds_match_oracle_root():
    # the seeds must agree exactly, in blocks of the size the classifier runs:
    # on the default grid at the oracle points and the triple crossing of
    # (0, 0, -4) at k = 0, and on a 1001-point grid at 20 000 seeded random
    # points, three of every eight at drive 0, 1e-6 or 1e-3
    rng = np.random.default_rng(1961)
    omega = rng.uniform(0.0, 10.0, 20000)
    for i, drive in enumerate((0.0, 1e-6, 1e-3)):
        omega[i::8] = drive
    cases = [(2001, fields(oracle_points() + [ModelParams(omega_R=0.0, delta=0.0,
                                                          epsilon=-4.0)])),
             (1001, bands._Points(omega, rng.uniform(-6.0, 6.0, 20000),
                                  rng.uniform(-6.0, 12.0, 20000)))]
    for n_points, stack in cases:
        k = np.linspace(-4.0, 4.0, n_points)
        size = bands._BLOCK_GRID_POINTS // n_points
        for lo in range(0, len(stack.omega_R), size):
            block = bands._Points(*(field[lo:lo + size] for field in stack))
            column = bands._Points(*(field[:, None] for field in block))
            want = _grid_minima_seeds(k, oracle_lowest_root(*_entries(k, column)))
            got = _grid_minima_seeds(k, _lowest_root_grid(k, block))
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (n_points, lo)


def test_newton_refinement_takes_few_steps(monkeypatch):
    # one build_hamiltonian call per Newton step; a converged seed must not
    # fall back to bisecting its bracket down to the step tolerance, alone or
    # in one loop with the seeds of every other point
    steps = []
    build = bands.build_hamiltonian

    def counting(k, params):
        steps[-1] += 1
        return build(k, params)

    k = np.linspace(-4.0, 4.0, 2001)
    points = oracle_points()
    seeds = [_grid_minima_seeds(k, _lowest_root_grid(k, fields([p])))[1] for p in points]
    monkeypatch.setattr(bands, "build_hamiltonian", counting)
    for p, k0 in zip(points, seeds):
        steps.append(0)
        bands._refine_minima(k0, k[1] - k[0], p)
    stack = fields(points)
    per_seed = bands._Points(*(np.repeat(field, [len(s) for s in seeds]) for field in stack))
    steps.append(0)
    bands._refine_minima(np.concatenate(seeds), k[1] - k[0], per_seed)
    assert max(steps) <= 6


def test_closed_form_lowest_root_matches_eigvalsh(oracle_cases):
    # Roots of the characteristic cubic lose accuracy as the two lowest
    # branches meet: the error is first order in eps * scale^2 / gap and
    # O(sqrt(eps) * scale) at a crossing.  Away from crossings it stays at
    # roundoff, so the bound below is tight there.
    eps = np.finfo(float).eps
    k = np.linspace(-4.0, 4.0, 2001)
    for p, _ in oracle_cases:
        ev = np.linalg.eigvalsh(build_hamiltonian(k, p))
        scale = np.max(np.abs(ev), axis=1)
        gap = ev[:, 1] - ev[:, 0]
        with np.errstate(divide="ignore"):
            bound = np.minimum(32.0 * eps * scale**2 / gap, np.sqrt(eps) * scale)
        assert np.all(np.abs(_lowest_root_grid(k, fields([p]))[0] - ev[:, 0]) <= bound), p


def test_scan_overflow_is_named_in_the_point_place():
    # entries near 1e155 square past float64: the scan is not finite, and the
    # point fails with that reason, without a RuntimeWarning (an error under
    # pytest), while its neighbours in the block keep their results
    overflow = "the band scan overflows float64"
    base = ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0)
    huge = [base.replace(delta=1e300), base.replace(delta=-1e155),
            base.replace(omega_R=1e300), base.replace(epsilon=1e200)]
    for p in huge:
        with pytest.raises(ConvergenceError, match=overflow):
            classify(p)
        with pytest.raises(ConvergenceError, match=overflow):
            dispersion(p)
    found = classify_points(*fields([base] + huge + [base]))
    assert [str(cell).startswith(overflow) for cell in found[1:-1]] == [True] * len(huge)
    assert found[0] == found[-1] == classify(base)
    # the error names the point's band fields; scalars broadcast against arrays
    assert found[1].context == {"omega_R": 2.0, "delta": 1e300, "epsilon": 6.0,
                                "window": (-4.0, 4.0)}
    broadcast = classify_points(2.0, np.array([0.5, 1e300, 0.5]), 6.0)
    assert broadcast[0] == broadcast[2] == found[0]
    assert str(broadcast[1]) == str(found[1]) and broadcast[1].context == found[1].context
    # a finite scan without a minimum keeps the window reason
    with pytest.raises(ConvergenceError, match="widen the momentum window"):
        classify(base, window=(1.0, 3.0))


def test_momentum_grid_and_outputs_unchanged():
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0)
    fresh = np.linspace(-4.0, 4.0, 2001)
    first = dispersion(params)
    assert np.array_equal(first.k, fresh)
    assert np.array_equal(first.energies, bands.branch_energies(fresh, params))
    _, minima_k, minima_e, _ = _minima(fresh, fields([params]))
    assert np.array_equal(first.minima_k, minima_k)
    assert np.array_equal(first.minima_E, minima_e)
    cell = classify(params)
    assert (cell.k_min, cell.E_min) == (minima_k[np.argmin(minima_e)], minima_e.min())
    inf, nan = float("inf"), float("nan")
    for window, n_points in (((1.0, 1.0), 11), ((-4.0, 4.0), 2), ((-inf, 4.0), 11),
                             ((-4.0, inf), 11), ((nan, 4.0), 11)):
        with pytest.raises(ConfigError):
            dispersion(params, window=window, n_points=n_points)
        with pytest.raises(ConfigError):
            classify(params, window=window, n_points=n_points)


# --- the scanned slice: E0'(k) = 2k + v0.diag(4, 0, -4).v0 vanishes only at |k| <= 2 ---

# a refined minimum lies within |k| <= 2, up to the Newton step tolerance
K_BOUND = 2.0 + 10.0 * _NEWTON_TOL
SLICE_WINDOWS = [((-4.0, 4.0), 2001), ((1.0, 3.0), 201), ((-2.5, 2.5), 401),
                 ((-10.0, 10.0), 1001), ((2.5, 4.0), 201), ((-6.0, -2.1), 301)]


def random_band_points(rng, m, largest=1e6):
    """m points with fields of magnitude 1e-3 to ``largest`` and either sign,
    omega_R >= 0 and exactly 0 at one point in seven."""
    stack = 10.0 ** rng.uniform(-3.0, np.log10(largest), (3, m)) * rng.choice([-1.0, 1.0], (3, m))
    stack[0] = np.abs(stack[0])
    stack[0, ::7] = 0.0
    return _points(*stack)


def full_grid_minima(k, stack, size=16):
    """The seed search on every point of grid k, in blocks of ``size`` points,
    with every seed refined in one Newton loop: (point, k_min, E_min, overflow)."""
    point, seeds, overflow = [], [], []
    for lo in range(0, len(stack.omega_R), size):
        block = bands._Points(*(field[lo:lo + size] for field in stack))
        scan = _lowest_root_grid(k, block)
        row, seed = _grid_minima_seeds(k, scan)
        point.append(lo + row)
        seeds.append(seed)
        overflow.append((np.bincount(row, minlength=len(scan)) == 0)
                        & ~np.isfinite(scan).all(axis=1))
    point, seeds = np.concatenate(point), np.concatenate(seeds)
    per_seed = bands._Points(*(field[point] for field in stack))
    kc = bands._refine_minima(seeds, k[1] - k[0], per_seed)
    return point, kc, lowest_branch(kc, per_seed), np.concatenate(overflow)


def test_scanned_slice_matches_the_full_grid_search():
    # 24 000 seeded points over windows that hold the slice |k| <= 2 + 2 dk,
    # clip it or miss it.  The minima must be the full-grid search's, bit for
    # bit, less those it reports at |k| > 2: no minimum lies there.  Each such
    # one comes from a rounding-noise seed whose bracketed Newton ends on its
    # bracket's edge, as at omega_R = 0, delta = 8.3, epsilon = -7.1e5, where
    # the full grid reports k = 2.076 beside the minimum at k = -2
    rng = np.random.default_rng(1)
    noise = _points(0.0, 8.3, -7.1e5)
    dropped = 0
    for window, n_points in SLICE_WINDOWS:
        stack = bands._Points(*(np.r_[field, extra] for field, extra in
                                zip(random_band_points(rng, 4000), noise)))
        k = np.linspace(window[0], window[1], n_points)
        point, k_min, e_min, overflow = full_grid_minima(k, stack)
        kept = np.abs(k_min) <= K_BOUND
        dropped += np.count_nonzero(~kept)
        got = _minima(k, stack)
        for g, want in zip(got, (point[kept], k_min[kept], e_min[kept], overflow)):
            assert np.array_equal(g, want), window
    assert dropped > 0


def test_every_minimum_lies_within_two_recoil_momenta():
    # also where the scan seeds rounding noise (fields up to 1e15): a seed
    # beside |k| = 2 + dk refines toward |k| = 2, where the slope turns
    rng = np.random.default_rng(2)
    stack = random_band_points(rng, 1000, largest=1e15)
    for window, n_points in (((-4.0, 4.0), 2001), ((-10.0, 10.0), 1001)):
        k = np.linspace(window[0], window[1], n_points)
        assert np.all(np.abs(_minima(k, stack)[1]) <= K_BOUND)
        cells = classify_points(*stack, window=window, n_points=n_points)
        assert all(abs(cell.k_min) <= K_BOUND for cell in cells
                   if not isinstance(cell, ConvergenceError))


def test_one_newton_loop_and_one_eigvalsh_per_call(monkeypatch):
    # 400 points on the default grid are 13 scan blocks of 32 points; their
    # seeds are refined, and their energies taken, once for the whole call
    calls = []
    for name in ("_grid_minima_seeds", "_refine_minima", "lowest_branch"):
        def counting(*args, _fn=getattr(bands, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(bands, name, counting)
    cells = classify_points(*fields(oracle_points()[:400]))
    assert not any(isinstance(cell, ConvergenceError) for cell in cells)
    assert calls == ["_grid_minima_seeds"] * 13 + ["_refine_minima", "lowest_branch"]
    calls.clear()
    assert dispersion(ModelParams(omega_R=1.0, delta=0.0, epsilon=0.0)).n_minima == 3
    assert calls == ["_grid_minima_seeds", "_refine_minima", "lowest_branch"]


def test_window_beyond_the_slice_keeps_both_reasons():
    # these windows hold no grid point with |k| <= 2 + 2 dk, so nothing is
    # scanned for seeds; each point still fails for the full grid's reason
    overflow = "the band scan overflows float64"
    for window, n_points in (((2.5, 4.0), 201), ((-6.0, -2.1), 301)):
        k = np.linspace(window[0], window[1], n_points)
        assert not np.any(np.abs(k) <= 2.0 + 2.0 * (k[1] - k[0]))
        cells = classify_points(1.0, np.array([0.0, 1e200, 1e300]), -6.0, window=window,
                                n_points=n_points)
        assert str(cells[0]).startswith("no interior minima found; widen the momentum window")
        assert [str(cell).startswith(overflow) for cell in cells[1:]] == [True, True]
        for delta in (1e200, 1e300):
            with pytest.raises(ConvergenceError, match=overflow):
                dispersion(ModelParams(omega_R=1.0, delta=delta, epsilon=-6.0), window=window,
                           n_points=n_points)
        params = ModelParams(omega_R=1.0, delta=0.0, epsilon=-6.0)
        assert dispersion(params, window=window, n_points=n_points).n_minima == 0


def test_minima_energy_gaps_stay_within_the_momentum_bound():
    # E0 - k^2 is concave and E0'(k_i) = 0 at each minimum, so two minima
    # differ in energy by at most (k2 - k1)^2 <= 16, the bound on tol_deg;
    # the drive and fields below give many points two or three minima
    rng = np.random.default_rng(16)
    m = 3000
    stack = _points(rng.uniform(0.0, 4.0, m), rng.uniform(-8.0, 8.0, m),
                    rng.uniform(-10.0, 10.0, m))
    point, k_min, e_min, _ = _minima(np.linspace(-4.0, 4.0, 2001), stack)
    assert np.bincount(point).max() <= 3
    # every pair of minima of one point, which lie next to each other or one apart
    first = [np.flatnonzero(point[d:] == point[:-d]) for d in (1, 2)]
    first, second = np.concatenate(first), np.concatenate([f + d for f, d in zip(first, (1, 2))])
    assert len(first) > 600
    gap = np.abs(e_min[second] - e_min[first])
    assert np.all(gap <= (k_min[second] - k_min[first]) ** 2 + 1e-12)
    assert gap.max() > 8.0
    # so the largest tol_deg a configuration accepts tags every point with two minima
    cells = classify_points(*stack, tol_deg=16.0)
    assert all(cell.degenerate == (cell.n_minima > 1) for cell in cells)
