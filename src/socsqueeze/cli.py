"""Command-line runner: config-driven computations with reproducible outputs.

Every run writes a manifest (the fully resolved configuration, the numpy
version and the BLAS thread variables) before any cell runs, and reruns
with the same config and seed are byte-identical, including under worker
parallelism: cells are computed by index and assembled in order, never as
they complete.

Every squeezing report comes from one cell function, run once per sweep
value or once at the point of ``eff-squeeze`` and ``gp-ground``.  A failed
report or phase-diagram cell records its error, and the other cells and the
manifest are kept; ``load_config`` raises every configuration error first.
``--backend``, ``--out``, ``--seed`` and ``--jobs`` beat the same keys of the
config's [run] section; every other run setting is a config key only.

The CLI fixes the BLAS thread count if it is what loads numpy, and imports
the band and GP layers, the squeezing backends and the report metrics only in
the runners that use them.  A phase-diagram run classifies its cells in
blocks, one task per block.  With ``--jobs J`` a sweep or phase diagram deals
its tasks into at most J shares: the process computes one share itself and
forks one child per other share, so ``J > 1`` needs POSIX ``os.fork``.

Exit codes: 0 success, 2 configuration error (nothing written), 3 a solver
failed to converge, the Gaussian expansion point is a depleted condensate or
a report is undefined at the state (partial results kept), 4 I/O failure.
"""

import argparse
import os
import sys

# BLAS runs on one thread unless the environment sets a count.  The --jobs
# worker processes are the CLI's only parallelism, and every BLAS call it makes
# is small: the largest, the 10x10 Gram matrix of an ED report at N = 300, is
# about 20 Mflop.  On a 2-vCPU host a second OpenBLAS thread costs about 70 ms of
# `import numpy` per process, and its spin-waiting adds CPU time.  OpenBLAS reads
# the count when numpy loads: set it before numpy loads, and not once it has.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .config import load_config
from .errors import ConfigError, ConvergenceError, MomentInputError
from .io import ensure_dir, write_csv, write_json
from .params import effective_coefficients

REPORT_COLUMNS = ("xi_x", "xi_dcz_min", "theta_dcz", "xi_uv_min", "theta_uv",
                  "rho_m1", "rho_0", "rho_p1")
# the failures a cell records while its siblings are kept
_CELL_ERRORS = (ConfigError, ConvergenceError, MomentInputError)
# grid points of one block of phase-diagram cells: the arrays of its seed scan
# stay in cache, and the block still amortizes numpy's per-call cost
_BLOCK_GRID_POINTS = 32768


def _report_for_point(cfg, params, seed):
    """(squeezing report, GP ground state or None) on the configured backend."""
    from .metrics import build_report

    ground = None
    if cfg.backend == "ed":
        from .fockspace import ed_ground_state, ed_moment_set

        coeffs = effective_coefficients(params)
        state = ed_ground_state(coeffs, params.N)
        moments = ed_moment_set(state)
        extras = {"backend": "ed", "ground_energy": state.energy,
                  "ed_dim": state.basis.dim, "ed_residual": state.residual,
                  "ed_iterations": state.iterations}
    elif cfg.backend == "gaussian":
        from .gaussian import gaussian_moment_set, hp_mean_field, hp_quadratic

        coeffs = effective_coefficients(params)
        mean_field = hp_mean_field(coeffs, params.N)
        sol = hp_quadratic(coeffs, params.N, mean_field)
        moments = gaussian_moment_set(sol)
        extras = {"backend": "gaussian",
                  "energy_per_atom": sol.energy_per_atom,
                  "mode_frequencies": list(sol.frequencies),
                  "mf_grad_norm": mean_field.grad_norm,
                  "mf_degenerate": mean_field.degenerate}
    else:
        from .gp import build_problem, gp_moment_set, imaginary_time_ground_state

        problem = build_problem(params, cfg.trap, cfg.interaction, cfg.grid)
        ground = imaginary_time_ground_state(problem, seed=seed, **cfg.solver)
        n_atoms = cfg.interaction.N if cfg.interaction is not None else params.N
        moments = gp_moment_set(ground.field, n_atoms)
        extras = {"backend": "gp", "moment_method": "hartree_product",
                  "gp_energy_per_atom": ground.energy, "gp_steps": ground.n_steps,
                  "gp_last_energy_change": ground.last_change,
                  "gp_residual": ground.residual}
    return build_report(moments, extras=extras), ground


def _failure(exc):
    """The payload of a failed cell: the error's type and message."""
    return {"error": f"{type(exc).__name__}: {exc}"}


def _sweep_cell(task):
    """One report cell: (index, the report dict | the error).
    Only gp-ground keeps the GP ground state, so no field crosses a pipe."""
    cfg, index, params = task
    try:
        report, ground = _report_for_point(cfg, params, seed=cfg.seed + index)
    except _CELL_ERRORS as exc:
        return index, _failure(exc)
    payload = {"report": report.to_dict()}
    if cfg.command == "gp-ground":
        payload["ground_state"] = ground
    return index, payload


def _print_failure(where, payload):
    print(f"{where} failed: {payload['error']}", file=sys.stderr)


def _classify_cell(task):
    """One block of phase-diagram cells, the first at first_index:
    (first_index, [the table row | the error of each cell])."""
    from .bands import classify_points

    cfg, first_index, cells = task
    points = [cfg.params.replace(**{cfg.axis1.name: v1, cfg.axis2.name: v2}) for v1, v2 in cells]
    found = classify_points(points, tol_deg=cfg.tol_deg, window=cfg.window,
                            n_points=cfg.n_points)
    return first_index, [
        _failure(cell) if isinstance(cell, ConvergenceError)
        else (v1, v2, cell.n_minima, int(cell.degenerate), cell.E_min, cell.k_min)
        for (v1, v2), cell in zip(cells, found)]


def _map_ordered(worker, tasks, jobs):
    """Run (index, ...) tasks through one worker inline or in processes; payloads in order.

    There is at most one process per task.  With more than one, the tasks are
    dealt round-robin into shares: this process computes the first share, and
    each other share is one forked child.  The payloads are put back in order
    by the index each task returns.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [worker(t) for t in tasks]
    else:
        shares = [tasks[w::workers] for w in range(workers)]
        results = sorted(_run_shares(worker, shares), key=lambda result: result[0])
    return [payload for _, payload in results]


def _run_shares(worker, shares):
    """The results of every share: the first computed here, each other one by a
    forked child that inherits its tasks and sends back one pickled list.

    A child's exception is raised here.  Every child is reaped before this
    returns or raises; if this process fails first, the children still
    running are killed.
    """
    import signal

    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _share_in_child(worker, share, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [worker(t) for t in shares[0]]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            pipe.close()
            results += _child_results(pid, data, os.waitstatus_to_exitcode(status))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _share_in_child(worker, share, write_fd):
    """A forked child's whole life: compute the share, write (results, exception,
    its traceback) pickled to write_fd, and exit.  Never returns, so a child
    never goes on running its parent's code."""
    import pickle

    code = 1
    try:
        try:
            data = pickle.dumps(([worker(t) for t in share], None, None))
        except BaseException as exc:  # sent to the parent, which raises it
            import traceback

            text = "".join(traceback.format_exception(exc))
            try:
                data = pickle.dumps((None, exc, text))
                pickle.loads(data)
            except Exception:  # the exception does not survive pickling
                data = pickle.dumps((None, RuntimeError(text), None))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _child_results(pid, data, exit_code):
    """A child's results from the bytes of its pipe; raises the exception it sent."""
    import pickle

    if exit_code != 0 or not data:
        raise RuntimeError(f"worker process {pid} ended without a result "
                           f"(exit status {exit_code})")
    results, exc, text = pickle.loads(data)
    if exc is None:
        return results
    if text is not None:
        exc.__cause__ = RuntimeError(f"raised in worker process {pid}:\n{text}")
    raise exc


def _write_manifest(cfg):
    """The resolved config plus what else the output bytes depend on: the
    package and numpy versions and the BLAS thread variables."""
    manifest = cfg.resolved()
    manifest["version"] = __version__
    manifest["numpy"] = np.__version__
    manifest["blas_threads"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    write_json(os.path.join(cfg.out, "manifest.json"), manifest)


def _write_table(cfg, name, header, rows, errors):
    """Write a cell table, and errors.json by cell index if any failed; the exit code."""
    write_csv(os.path.join(cfg.out, name), header, rows)
    if errors:
        write_json(os.path.join(cfg.out, "errors.json"), errors)
        return 3
    return 0


def _run_dispersion(cfg):
    from .bands import dispersion

    disp = dispersion(cfg.params, window=cfg.window, n_points=cfg.n_points)
    rows = [(float(k), float(e[0]), float(e[1]), float(e[2]))
            for k, e in zip(disp.k, disp.energies)]
    write_csv(os.path.join(cfg.out, "dispersion.csv"), ("k", "E1", "E2", "E3"), rows)
    write_json(os.path.join(cfg.out, "minima.json"), {
        "n_minima": disp.n_minima,
        "k_min": [float(v) for v in disp.minima_k],
        "E_min": [float(v) for v in disp.minima_E],
    })
    return 0


def _run_phase_diagram(cfg):
    from . import bands  # noqa: F401  loaded before any child forks, so no child imports it

    cells = [(float(v1), float(v2)) for v1 in cfg.axis1.values for v2 in cfg.axis2.values]
    size = max(1, _BLOCK_GRID_POINTS // cfg.n_points)
    tasks = [(cfg, i, cells[i:i + size]) for i in range(0, len(cells), size)]
    payloads = [p for block in _map_ordered(_classify_cell, tasks, cfg.jobs) for p in block]
    rows, errors = [], {}
    for i, (cell, payload) in enumerate(zip(cells, payloads)):
        if isinstance(payload, dict):
            errors[str(i)] = payload["error"]
            _print_failure(f"phase-diagram cell {i}", payload)
            payload = cell + (0, 0, float("nan"), float("nan"))
        rows.append(payload)
    header = (cfg.axis1.name, cfg.axis2.name, "n_minima", "degenerate", "E_min", "k_min")
    return _write_table(cfg, "phase_diagram.csv", header, rows, errors)


def _run_point(cfg):
    """eff-squeeze and gp-ground: one report cell at the configured point."""
    _, payload = _sweep_cell((cfg, 0, cfg.params))
    if "error" in payload:
        write_json(os.path.join(cfg.out, "error.json"), payload)
        _print_failure(cfg.command, payload)
        return 3
    write_json(os.path.join(cfg.out, "report.json"), payload["report"])
    ground = payload.get("ground_state")
    if ground is not None:
        from .gp import save_field

        save_field(ground.field, os.path.join(cfg.out, "field.npz"), meta={"seed": cfg.seed})
        trace_rows = [(int(s), float(e)) for s, e in ground.energy_trace]
        write_csv(os.path.join(cfg.out, "energy_trace.csv"), ("step", "energy"), trace_rows)
    return 0


def _run_sweep(cfg):
    tasks = [(cfg, i, cfg.params.replace(**{cfg.sweep.name: float(v)}))
             for i, v in enumerate(cfg.sweep.values)]
    payloads = _map_ordered(_sweep_cell, tasks, cfg.jobs)
    rows, errors = [], {}
    for i, (value, payload) in enumerate(zip(cfg.sweep.values, payloads)):
        if "error" in payload:
            errors[str(i)] = payload["error"]
            _print_failure(f"sweep cell {i}", payload)
            rows.append((float(value),) + tuple(float("nan") for _ in REPORT_COLUMNS)
                        + ("failed",))
            continue
        rep = payload["report"]
        write_json(os.path.join(cfg.out, f"report_{i:03d}.json"), rep)
        rows.append((float(value),) + tuple(float(rep[c]) for c in REPORT_COLUMNS) + ("ok",))
    header = (cfg.sweep.name,) + REPORT_COLUMNS + ("status",)
    return _write_table(cfg, "sweep.csv", header, rows, errors)


_RUNNERS = {
    "dispersion": _run_dispersion,
    "phase-diagram": _run_phase_diagram,
    "eff-squeeze": _run_point,
    "gp-ground": _run_point,
    "sweep": _run_sweep,
}


def run(cfg):
    """Execute a resolved RunConfig; returns the process exit code."""
    ensure_dir(cfg.out)
    _write_manifest(cfg)
    return _RUNNERS[cfg.command](cfg)


def emit_plot_data(input_path, out_dir=None):
    """Derive plot-friendly series files from a result table.

    Sweep tables produce one two-column file per metric; phase diagrams
    produce a matrix file of minima counts; dispersion tables produce one
    series per branch.  Returns the list of written paths.
    """
    if not os.path.isfile(input_path):
        raise OSError(f"no such result table: {input_path!r}")
    out_dir = out_dir or (os.path.dirname(os.path.abspath(input_path)) or ".")
    ensure_dir(out_dir)
    with open(input_path, "r", newline="") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"{input_path!r} is empty")
    header = lines[0].split(",")
    body = [ln.split(",") for ln in lines[1:]]
    written = []

    def emit(name, hdr, rows):
        path = os.path.join(out_dir, name)
        write_csv(path, hdr, rows)
        written.append(path)

    if header[:2] == ["k", "E1"]:
        for j, branch in enumerate(("E1", "E2", "E3"), start=1):
            emit(f"series_band_{branch}.csv", ("k", branch),
                 [(float(r[0]), float(r[j])) for r in body])
    elif "n_minima" in header:
        i_min = header.index("n_minima")
        v1 = sorted({float(r[0]) for r in body})
        v2 = sorted({float(r[1]) for r in body})
        grid = {(float(r[0]), float(r[1])): int(r[i_min]) for r in body}
        rows = [(a,) + tuple(grid[(a, b)] for b in v2) for a in v1]
        hdr = (f"{header[0]}\\{header[1]}",) + tuple(f"{b:.17g}" for b in v2)
        emit("matrix_n_minima.csv", hdr, rows)
    elif len(header) > 1 and header[1] in REPORT_COLUMNS:
        status = header.index("status") if "status" in header else None
        for j, col in enumerate(header[1:], start=1):
            if col == "status":
                continue
            rows = [(float(r[0]), float(r[j])) for r in body
                    if status is None or r[status] == "ok"]
            emit(f"series_{col}.csv", (header[0], col), rows)
    else:
        raise ConfigError(f"unrecognized result table layout: {header}")
    return written


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="socsqueeze",
        description="Spin-1 SOC band structure, spin squeezing, and GP ground states",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    runp = sub.add_parser("run", help="execute a config-driven computation")
    runp.add_argument("--config", required=True, help="INI run configuration")
    runp.add_argument("--jobs", type=int, default=None,
                      help="processes, this one included; beats [run] jobs")
    runp.add_argument("--out", default=None, help="output directory; beats [run] out")
    runp.add_argument("--seed", type=int, default=None, help="RNG seed; beats [run] seed")
    runp.add_argument("--backend", default=None, help="ed | gaussian | gp; beats [run] backend")

    plotp = sub.add_parser("plot-data", help="emit plot series from a result table")
    plotp.add_argument("table", help="result CSV produced by a run")
    plotp.add_argument("--out", default=None, help="series output directory")

    args = parser.parse_args(argv)
    try:
        if args.subcommand == "run":
            overrides = {"jobs": args.jobs, "out": args.out,
                         "seed": args.seed, "backend": args.backend}
            cfg = load_config(args.config, overrides=overrides)
            return run(cfg)
        emit_plot_data(args.table, args.out)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
