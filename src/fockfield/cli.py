"""Command-line scenario runner.

Each subcommand wires one capability into a reproducible experiment that
emits CSV artifacts plus a .meta.json sidecar.  Identical parameters and
seed give byte-identical artifacts (the sidecar timestamp is the single
exception).  Exit codes: 0 success, 1 internal invariant violation,
2 configuration/validation error, such as a value outside the bounds
``PARAMETERS`` declares for its parameter.

The five scenarios in ``PARAMETERS`` may also read their parameters from
an INI file given with ``--config`` (one section per scenario, key =
value); explicit flags override file values.  ``wick`` and ``verify`` take
no config file, and ``verify`` accepts ``--out-dir`` but writes nothing.
The default output directory is the FOCKFIELD_OUT_DIR environment
variable, falling back to the working directory.

The argument parser is built once per process, on the first ``main``
call, and reused: parsing keeps no state between calls.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import functools
import math
import os
import re
import sys

import numpy as np

from . import __version__, artifacts
from .dynamics import TrajectoryRecord, ehrenfest_residuals, evolve, gaussian_packet, trajectory
from .field import (
    Dispersion,
    LatticeSpec,
    WaveAmplitude,
    commutator_sweep,
    default_spacelike_grid,
    number_density,
    prepare_one_particle,
    site_mode_space,
)
from .fock import (
    ModeSpace,
    Statistics,
    annihilate,
    create,
    inner,
    ladder_relation_residuals,
    vacuum,
)
from .qinfo import (
    GENERATOR_NAME,
    MAX_DRAWS,
    TRACE_TOL,
    MeasurementModel,
    born_distribution,
    decohere,
    decoherence_time,
    entangled_pair,
    entanglement_entropy,
    pointer_outcome_counts,
    premeasure,
    reduced_density,
    sample_outcomes,
    schmidt,
)
from .wick import LadderKind, evaluate, normal_order, parse as parse_expr, vacuum_expectation

OUT_DIR_ENV = "FOCKFIELD_OUT_DIR"


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; maps to exit code 1."""


def _parse_float_list(text: str):
    return [float(tok) for tok in text.replace(",", " ").split()]


MAX_TIME_SAMPLES = 10**6
MAX_PAIRS = 10**6  # fock-check --pairs
# causality --dts and --separations, each: the default grid's distinct dx at the M cap.  The sweep's
# two tables then hold at most 2 x 512 x 2047 complex values (34 MB); 512 x 512 pairs at --M 2048 peak at 103 MB
MAX_SWEEP_VALUES = 512
LADDER_TOL = 1e-12  # largest ladder-relation residual fock-check and verify eq3 pass


def _parse_times(text: str):
    """'start:stop:step' inclusive range, or a comma/space separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"times must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not np.all(np.isfinite([start, stop, step])):
            raise ValueError(f"times must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("times step must be positive")
        count = (stop - start) / step  # inf if the span overflows
        if count >= MAX_TIME_SAMPLES:
            raise ValueError(f"times {text!r} has more than {MAX_TIME_SAMPLES} samples")
        n = int(round(count))
        return [start + k * step for k in range(n + 1) if start + k * step <= stop + 1e-12]
    return _parse_float_list(text)


# Every scenario parameter: {scenario: {name: Param}}.  Each entry becomes
# the flag --<name with - for _> and the config key <name>.  Defaults are
# shared by every run, so the sequences are tuples.  lo and hi are inclusive
# bounds, applied to each entry of a list; an int without lo is >= 0.
Param = collections.namedtuple("Param", "type default help lo hi", defaults=(None, None, None))
PARAMETERS = {
    "fock-check": {
        "modes": Param(int, 4, lo=1),
        # bosons are drawn with n < nmax; their exchange residual's rounding floor |√(n+1)·√(n+1) − √n·√n − 1|
        # is <= 9.09e-13 for n < 4096 and first exceeds LADDER_TOL at n = 4104 (a scan of n < 2·10^5)
        "nmax": Param(int, 6, lo=1, hi=4096),
        "pairs": Param(int, 200, hi=MAX_PAIRS),
        "seed": Param(int, 0),
    },
    "causality": {
        # the default grid holds about M²/32 (dt, dx) pairs, each a row product over M modes and a CSV row,
        # so time grows as M³ and memory as M²: M = 1024 ran 0.5 s at a 47 MB peak and M = 2048 2.6-2.9 s
        # (1.5 s of it the sweep) at 95 MB, so 4096 would take about 20 s at about 300 MB
        "M": Param(int, 512, lo=4, hi=2048),  # the default grid holds no point below M = 4
        "dx": Param(float, 0.25, "lattice spacing"),
        "mass": Param(float, 1.0, lo=0),
        "dts": Param(_parse_float_list, None, "time separations (comma separated)"),
        "separations": Param(_parse_float_list, None, "spatial separations (comma separated)"),
        "cone_margin": Param(float, 3.0, lo=0),  # a negative margin lets timelike points into the sweep
        "workers": Param(int, 1, "no effect; kept so causality sidecars stay unchanged"),
    },
    "wavepacket": {
        # a run holds a few M-site complex arrays: at M = 2^20, --times 0 ran 0.6 s at a 175 MB peak
        # (2^21: 1.2 s, 384 MB) and each further sample adds about 0.3 s; the cap keeps the peak near 200 MB
        "M": Param(int, 256, lo=2, hi=2**20),
        "dx": Param(float, 1.0, "lattice spacing"),
        "mass": Param(float, 1.0, lo=0),
        "sigma0": Param(float, 8.0),
        "chirp": Param(float, 0.0),
        "p0": Param(float, 0.0),
        "x0": Param(float, 0.0),
        "times": Param(_parse_times, tuple(k * 0.5 for k in range(101)), "start:stop:step or explicit list"),
    },
    "entangle": {
        "overlap_a": Param(float, 0.0, "overlap of the two A-side states", lo=-1, hi=1),
        "overlap_b": Param(float, 0.0, "overlap of the two B-side states", lo=-1, hi=1),
    },
    "measure": {
        "weights": Param(_parse_float_list, (0.25, 0.75), "outcome weights |f|^2 (comma separated)", lo=0),
        "apparatus_energy": Param(float, 1e6),
        "n_samples": Param(int, 100000, lo=1, hi=MAX_DRAWS),
        "seed": Param(int, 0),
    },
}


def _merged_params(args: argparse.Namespace) -> dict:
    """Resolve PARAMETERS[args.scenario]: explicit flag > config file entry > default.

    A config file that cannot be read or parsed is a one-line ValueError
    starting ``config:``.  A key in the scenario's config section that names
    none of its parameters is a ValueError naming the key ([DEFAULT] keys
    are shared by every section, so they are not checked).  Only here is a flag's or an
    entry's text cast, so both fail alike.  Every resolved value then
    passes one rule, or a ValueError names it: a list is non-empty, a float
    or list entry is finite, and the value or each entry lies within the
    parameter's bounds (a None default means "not given" and is left alone).
    """
    scenario = args.scenario
    file_values = {}
    if args.config:
        ini = configparser.ConfigParser()
        try:
            with open(args.config) as handle:
                ini.read_file(handle)
            if ini.has_section(scenario):
                file_values = dict(ini.items(scenario))  # interpolates, so '%' errors surface here
        except (OSError, UnicodeError, configparser.Error) as err:
            key = f"{err.option}: " if isinstance(err, configparser.InterpolationError) else ""
            # one line, though some of configparser's messages span several
            raise ValueError(f"config: {key}" + " ".join(str(err).split())) from None
        if file_values:
            known = [name.lower() for name in PARAMETERS[scenario]]  # configparser lowercases option names
            unknown = sorted(set(file_values) - set(known) - set(ini.defaults()))
            if unknown:
                raise ValueError(f"{', '.join(unknown)}: not a parameter of {scenario} (known: {', '.join(known)})")
    params = {}
    for name, (caster, default, _, lo, hi) in PARAMETERS[scenario].items():
        text = getattr(args, name)
        if text is None:
            text = file_values.get(name.lower())  # configparser lowercases option names
        try:
            value = default if text is None else caster(text)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
        params[name] = value
        if value is None:
            continue
        entries = value if isinstance(value, (list, tuple)) else [value]
        if not entries:
            raise ValueError(f"{name} must not be empty")
        if caster is not int and not np.all(np.isfinite(entries)):
            raise ValueError(f"{name} must be finite, got {value!r}")
        lo = 0 if lo is None and caster is int else lo
        if lo is not None and min(entries) < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value!r}")
        if hi is not None and max(entries) > hi:
            raise ValueError(f"{name} must be <= {hi}, got {value!r}")
    return params


def _out_path(args, filename: str) -> str:
    base = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    return os.path.join(base, filename)


def _file_path(args, filename: str, name: str) -> str:
    """_out_path for a file name the user gave as option ``name``, which must name a file: a
    ValueError names the option when the path is empty, ends in a separator or is a directory."""
    path = _out_path(args, filename)
    if os.path.basename(path) in ("", os.curdir, os.pardir) or os.path.isdir(path):
        raise ValueError(f"{name} must name a file, got {filename!r}")
    return path


def _write_table(args, filename: str, header, columns, params: dict, note: str = "", **extra):
    """Write a scenario's CSV from its columns (artifacts.write_csv) and its sidecar, then print
    ``wrote <path>`` and `` (<note>)`` if given.  The sidecar names args.scenario and records
    params, the extra entries, and the seed and GENERATOR_NAME when params has a seed (null for
    both otherwise)."""
    path = _out_path(args, filename)
    artifacts.write_csv(path, header, columns)
    seed = params.get("seed")
    artifacts.write_metadata(path, args.scenario, params, seed=seed,
                             generator=None if seed is None else GENERATOR_NAME, extra=extra)
    print(f"wrote {path} ({note})" if note else f"wrote {path}")


# ----------------------------------------------------------------------
# scenarios


def run_fock_check(args) -> int:
    p = _merged_params(args)
    spaces = [ModeSpace(p["modes"], stats, nmax=p["nmax"]) for stats in (Statistics.BOSE, Statistics.FERMI)]
    rows = []
    worst = 0.0
    sweeps = ladder_relation_residuals(spaces, np.random.default_rng(p["seed"]), p["pairs"])
    for space, residuals in zip(spaces, sweeps):
        for relation, value in residuals.items():
            rows.append((space.statistics.value, relation, p["pairs"], value))
            worst = max(worst, value)
    _write_table(args, "fock_check.csv", ("statistics", "relation", "samples", "max_residual"), list(zip(*rows)),
                 p, f"max residual {worst:.3e}")
    if worst > LADDER_TOL:
        raise InvariantViolation(f"ladder relation residual {worst:.3e} exceeds {LADDER_TOL:g}")
    return 0


def run_wick(args) -> int:
    if args.expr is not None and args.file is not None:
        raise ValueError("wick takes --expr or --file, not both")
    if args.expr is not None:
        text = args.expr
    elif args.file is not None:
        try:
            with open(args.file) as handle:
                text = handle.read().strip()
        except (OSError, UnicodeError) as err:
            raise ValueError("file: " + " ".join(str(err).split())) from None
    else:
        raise ValueError("wick needs --expr or --file")
    path = None if args.out is None else _file_path(args, args.out, "out")
    nf = normal_order(parse_expr(text))
    rendered = str(nf)
    print(rendered)
    if path is not None:
        artifacts.write_text(path, rendered + "\n")
        artifacts.write_metadata(path, "wick", {"expr": text})
    return 0


def _lattice(p: dict, dispersion: Dispersion) -> LatticeSpec:
    """The scenario's lattice; M's parity, dx > 0 and a finite length M·dx,
    which no bound in PARAMETERS says, are checked here under their
    parameter names."""
    if p["M"] % 2:
        raise ValueError(f"M must be even, got {p['M']!r}")
    if p["dx"] <= 0:
        raise ValueError(f"dx must be > 0, got {p['dx']!r}")
    if not math.isfinite(p["M"] * p["dx"]):
        raise ValueError(f"dx must keep the length M * dx finite, got {p['dx']!r} at M {p['M']!r}")
    return LatticeSpec(p["M"], p["dx"], p["mass"], dispersion)


def run_causality(args) -> int:
    p = _merged_params(args)
    for name in ("dts", "separations"):  # before their product is built
        if p[name] is not None and len(p[name]) > MAX_SWEEP_VALUES:
            raise ValueError(f"{name} must hold at most {MAX_SWEEP_VALUES} values, got {len(p[name])}")
    lattice = _lattice(p, Dispersion.RELATIVISTIC)
    if (p["dts"] is None) != (p["separations"] is None):
        raise ValueError("--dts and --separations must be given together")
    # read before the sweep, so that a frequency that is not finite or underflows keeps its own message
    k0_excluded = bool(np.any(lattice.frequencies == 0))
    if p["dts"] is not None:
        dts, separations = np.asarray(p["dts"], dtype=float), np.asarray(p["separations"], dtype=float)
        pairs = np.column_stack([np.repeat(dts, len(separations)), np.tile(separations, len(dts))])
    else:
        pairs = default_spacelike_grid(lattice, cone_margin=p["cone_margin"])
    try:
        with_vals, without_vals = commutator_sweep(lattice, pairs)
    except ValueError:
        if p["dts"] is not None:
            raise
        # the sweep names the failing pair, but on the default grid mass, dx and M set the pairs
        raise ValueError(f"the phase p*dx - w*dt is not finite on the default grid at mass {p['mass']!r}, "
                         f"dx {p['dx']!r}, M {p['M']!r}") from None
    # np.hypot has the bits of abs() of one complex value; np.abs of a complex array need not
    columns = [pairs[:, 0], pairs[:, 1]]
    for z in (with_vals, without_vals):
        columns += [z.real, z.imag, np.hypot(z.real, z.imag)]
    header = ("dt", "dx", "re_with", "im_with", "abs_with", "re_without", "im_without", "abs_without")
    _write_table(args, "causality.csv", header, columns, p, f"{len(pairs)} points", k0_excluded=k0_excluded)
    return 0


def run_wavepacket(args) -> int:
    p = _merged_params(args)
    if args.density_out is not None:
        trajectory_files, density_files = (
            {os.path.abspath(q) for q in (path, artifacts.metadata_path(path))}
            for path in (_out_path(args, "wavepacket.csv"), _file_path(args, args.density_out, "density_out"))
        )
        if trajectory_files & density_files:
            raise ValueError(f"density_out must not overwrite wavepacket.csv or its sidecar, got {args.density_out!r}")
    lattice = _lattice(p, Dispersion.NONRELATIVISTIC)
    packet = gaussian_packet(lattice, p["x0"], p["p0"], p["sigma0"], p["chirp"])
    records = trajectory(packet, p["times"])
    columns = list(zip(*(r.row() for r in records)))  # times are never empty
    _write_table(args, "wavepacket.csv", TrajectoryRecord.CSV_HEADER, columns, p, f"{len(records)} samples")
    if args.density_out is not None:
        f = evolve(packet, p["times"][-1]).values
        density = [float(abs(v) ** 2) for v in f]  # per site: np.abs(f) ** 2 rounds some values differently
        _write_table(args, args.density_out, ("x", "re_f", "im_f", "density"),
                     (lattice.positions, f.real, f.imag, density), p)
    return 0


def run_entangle(args) -> int:
    p = _merged_params(args)
    if p["overlap_a"] * p["overlap_b"] == -1:  # phi2⊗psi2 = −phi1⊗psi1, so the pair sums to zero
        raise ValueError(f"overlap_a {p['overlap_a']!r} and overlap_b {p['overlap_b']!r} make the two terms cancel")
    phi1, psi1 = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    phi2 = np.array([p["overlap_a"], np.sqrt(1 - p["overlap_a"] ** 2)])
    psi2 = np.array([p["overlap_b"], np.sqrt(1 - p["overlap_b"] ** 2)])
    state = entangled_pair(phi1, phi2, psi1, psi2)
    coeffs, entropy = schmidt(state)
    labels = [f"schmidt_{k + 1}" for k in range(len(coeffs))]
    values = [float(c) for c in coeffs] + [float(entropy)]
    rho_a = reduced_density(state, "A")
    labels += ["entropy", "entropy_reduced_a", "entropy_reduced_b", "purity_reduced_a"]
    values += [entanglement_entropy(rho_a), entanglement_entropy(reduced_density(state, "B")), rho_a.purity]
    _write_table(args, "entangle.csv", ("label", "value"), (labels, values), p, f"entropy {entropy:.6f}")
    return 0


def run_measure(args) -> int:
    p = _merged_params(args)
    weights = np.asarray(p["weights"], dtype=float)
    if abs(weights.sum() - 1.0) > TRACE_TOL:  # the decohered state's trace check
        raise ValueError(f"weights must sum to 1 within {TRACE_TOL:g}, got {float(weights.sum())!r}")
    tau = decoherence_time(p["apparatus_energy"])
    if not np.isfinite(tau):
        raise ValueError(f"apparatus_energy must be large enough that 1/E is finite, got {p['apparatus_energy']!r}")
    model = MeasurementModel(
        tuple(range(len(weights))), tuple(np.sqrt(weights)), p["apparatus_energy"]
    )
    rho = decohere(premeasure(model))
    counts = pointer_outcome_counts(
        sample_outcomes(rho, p["n_samples"], p["seed"]), (len(weights), len(weights))
    )
    columns = (model.eigenvalues, [int(c) for c in counts], [c / p["n_samples"] for c in counts])
    _write_table(args, "measure.csv", ("lambda", "count", "frequency"), columns, p, f"{p['n_samples']} draws",
                 decoherence_time=tau)
    return 0


# ----------------------------------------------------------------------
# verify: reduced-scale invariant sweep keyed by check tags


def _check_eq3() -> tuple:
    rng = np.random.default_rng(0)
    spaces = [ModeSpace(4, Statistics.BOSE, nmax=6), ModeSpace(8, Statistics.FERMI, nmax=6)]
    worst = max(max(residuals.values()) for residuals in ladder_relation_residuals(spaces, rng, 200))
    return worst <= LADDER_TOL, f"max ladder-relation residual {worst:.2e} (tol {LADDER_TOL:g})"


def _check_eq8() -> tuple:
    rng = np.random.default_rng(1)
    lattice = LatticeSpec(8, 1.0, 1.0)
    space = site_mode_space(lattice)
    worst = 0.0
    for _ in range(20):
        vals = rng.normal(size=8) + 1j * rng.normal(size=8)
        f = WaveAmplitude(vals / np.linalg.norm(vals), lattice)
        state = prepare_one_particle(f, space)
        for j in range(8):
            worst = max(worst, abs(number_density(state, j) - abs(f.values[j]) ** 2))
    dp = vacuum_expectation(parse_expr("bose: a(xp) a+(x) a(x) a+(xpp)"))
    structure_ok = len(dp.terms) == 1 and dp.terms[0][0] == 1 and set(dp.terms[0][1]) == {("x", "xp"), ("x", "xpp")}
    sym_worst = 0.0
    for text in ("bose: a(x) a(y) a+(x) a+(y)", "fermi: a(x) a(y) a+(x) a+(y)", "bose: a(x) a+(y) a(y) a+(x)"):
        s = parse_expr(text)
        space2 = ModeSpace(3, s.statistics, nmax=6)
        poly = vacuum_expectation(s)
        for _ in range(10):
            assign = {lab: int(rng.integers(0, 3)) for lab in ("x", "y")}
            numeric = inner(vacuum(space2), _apply_symbols(s, assign, space2))
            sym_worst = max(sym_worst, abs(numeric - evaluate(poly, assign)))
    ok = worst <= 1e-12 and structure_ok and sym_worst <= 1e-10
    return ok, (
        f"density residual {worst:.2e} (tol 1e-12), contraction structure "
        f"{'ok' if structure_ok else 'WRONG'}, symbolic-vs-numeric {sym_worst:.2e} (tol 1e-10)"
    )


def _apply_symbols(s, assignment, space):
    v = vacuum(space)
    for sym in reversed(s.symbols):
        mode = assignment[sym.label]
        v = create(v, mode) if sym.kind is LadderKind.CREATE else annihilate(v, mode)
    return v


@functools.cache
def _verify_trajectory():
    """Coarse records and the fine run's Ehrenfest report for one chirped
    packet; eq12 and eq13 share this one computation."""
    packet = gaussian_packet(LatticeSpec(64, 1.0, 1.0), 0.0, 0.0, 3.0, chirp=1.0)
    coarse = trajectory(packet, [k * 0.25 for k in range(49)])
    return tuple(coarse), ehrenfest_residuals(packet, [k * 1e-3 for k in range(51)])


def _check_eq12() -> tuple:
    coarse, report = _verify_trajectory()
    x20, c0, h0 = coarse[0].mean_x2, coarse[0].mean_c, coarse[0].mean_h
    worst = max(
        abs(r.mean_x2 - (x20 + 2.0 * (c0 * r.t + h0 * r.t**2))) / abs(r.mean_x2)
        for r in coarse
    )
    ok = report.width_residual <= 1e-5 and worst <= 1e-6
    return ok, (
        f"d<X^2>/dt residual {report.width_residual:.2e} (tol 1e-5), "
        f"integrated width law {worst:.2e} (tol 1e-6)"
    )


def _check_eq13() -> tuple:
    coarse, report = _verify_trajectory()
    h0 = coarse[0].mean_h
    linear = max(
        abs((r.mean_c - coarse[0].mean_c) - 2 * h0 * r.t) / max(abs(2 * h0 * r.t), 1e-30)
        for r in coarse[1:]
    )
    monotone = all(b.mean_c >= a.mean_c - 1e-10 for a, b in zip(coarse, coarse[1:]))
    heisenberg = min(r.dx * r.dp for r in coarse) >= 0.5 * (1 - 1e-9)
    ok = report.correlation_residual <= 1e-5 and linear <= 1e-6 and monotone and heisenberg
    return ok, (
        f"d<C>/dt residual {report.correlation_residual:.2e} (tol 1e-5), slope law {linear:.2e} "
        f"(tol 1e-6), nondecreasing {monotone}, uncertainty bound {heisenberg}"
    )


def _check_eq14() -> tuple:
    rng = np.random.default_rng(2)
    worst_diag = worst_purity = 0.0
    for _ in range(5):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = f / np.linalg.norm(f)
        rho = decohere(premeasure(MeasurementModel((0, 1, 2), tuple(f), 1.0)))
        diag = pointer_outcome_counts(rho.diagonal(), (3, 3))
        worst_diag = max(worst_diag, float(np.max(np.abs(diag - born_distribution(f)))))
        worst_purity = max(worst_purity, abs(rho.purity - float(np.sum(np.abs(f) ** 4))))
    probs = np.array([0.25, 0.75])
    model = MeasurementModel((0, 1), tuple(np.sqrt(probs)), 1.0)
    rho = decohere(premeasure(model))
    counts = pointer_outcome_counts(sample_outcomes(rho, 20000, seed=0), (2, 2))
    freq_dev = abs(counts[0] / 20000 - 0.25)
    ok = worst_diag <= 1e-12 and worst_purity <= 1e-12 and freq_dev < 0.01
    return ok, (
        f"diagonal residual {worst_diag:.2e}, purity residual {worst_purity:.2e} "
        f"(tol 1e-12), sampled frequency deviation {freq_dev:.4f} (tol 0.01)"
    )


def _check_comment6() -> tuple:
    lattice = LatticeSpec(64, 0.25, 1.0, Dispersion.RELATIVISTIC)
    with_max, without_max = (float(np.max(np.hypot(z.real, z.imag)))
                             for z in commutator_sweep(lattice, default_spacelike_grid(lattice)))
    ok = with_max <= 1e-6 and without_max >= 0.05
    return ok, (
        f"spacelike commutator {with_max:.2e} with antiparticles (tol 1e-6) "
        f"vs {without_max:.2e} without (floor 0.05)"
    )


VERIFY_CHECKS = (
    ("eq3", "ladder (anti)commutation relations", _check_eq3),
    ("eq8", "number density = squared intensity, symbolic contraction", _check_eq8),
    ("eq12", "width growth rate d<X^2>/dt = (2/m)<C>", _check_eq12),
    ("eq13", "correlation growth d<C>/dt = 2<H> >= 0", _check_eq13),
    ("eq14", "decoherence diagonal, purity, sampled frequencies", _check_eq14),
    ("comment6", "spacelike commutator cancellation with antiparticles", _check_comment6),
)


def run_verify(args) -> int:
    tags = [t.strip() for t in args.only.split(",")] if args.only is not None else None
    known = {tag for tag, _, _ in VERIFY_CHECKS}
    if tags:
        unknown = set(tags) - known
        if unknown:
            raise ValueError(f"unknown check tags {sorted(unknown)}; known: {sorted(known)}")
    failed = []
    for tag, description, check in VERIFY_CHECKS:
        if tags and tag not in tags:
            continue
        ok, detail = check()
        status = "pass" if ok else "FAIL"
        print(f"{tag:<9} {status:<5} {description}: {detail}")
        if not ok:
            failed.append(tag)
    if failed:
        print(f"failed checks: {', '.join(failed)}")
        raise InvariantViolation(f"verify failed: {', '.join(failed)}")
    print("all checks passed")
    return 0


# ----------------------------------------------------------------------


SCENARIOS = {
    "fock-check": "ladder-algebra residual sweep",
    "wick": "normal-order a ladder-operator expression",
    "causality": "spacelike commutator sweep",
    "wavepacket": "chirped-Gaussian trajectory",
    "entangle": "two-term entangled pair report",
    "measure": "premeasure, decohere, and sample outcomes",
    "verify": "reduced-scale invariant suite",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockfield",
        description="Reproducible second-quantization experiments emitting CSV artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"fockfield {__version__}")
    sub = parser.add_subparsers(dest="scenario", metavar="scenario")
    commands = {}
    for scenario, help_text in SCENARIOS.items():
        p = commands[scenario] = sub.add_parser(scenario, help=help_text)
        # argparse takes a flag's value only if it does not look like an option, and it counts only -N
        # and -N.N as negative numbers.  No public setting widens that private pattern to -1e-3, -.5e1,
        # -inf and -nan; no option here starts that way.
        p._negative_number_matcher = re.compile(r"-(?:[\d.]|inf|nan).*", re.IGNORECASE | re.DOTALL)
        p.add_argument("--out-dir", default=None, help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
        if scenario in PARAMETERS:
            p.add_argument("--config", default=None, help="INI config file with one section per scenario")
            for name, param in PARAMETERS[scenario].items():
                p.add_argument("--" + name.replace("_", "-"), dest=name, help=param.help)

    commands["wick"].add_argument("--expr", help="expression, e.g. 'bose: a(x1) a+(x2)'")
    commands["wick"].add_argument("--file", help="read the expression from a file")
    commands["wick"].add_argument("--out", help="also write the normal form to this artifact file")
    commands["wavepacket"].add_argument(
        "--density-out", dest="density_out", help="also write the final density profile CSV"
    )
    commands["verify"].add_argument("--only", help="run only the named checks (comma separated tags)")
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.scenario is None:
        parser.print_help()
        return 2
    # Resolved by name on each call rather than stored in the cached parser,
    # so a runner replaced on the module (a tracer, a test double) is the one that runs.
    run = globals()["run_" + args.scenario.replace("-", "_")]
    try:
        return run(args)
    except InvariantViolation as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
