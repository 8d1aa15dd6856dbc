"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import json

import numpy as np
import pytest
from scipy import stats

from fockfield.cli import main as cli_main
from fockfield.dynamics import ehrenfest_residuals, gaussian_packet, trajectory
from fockfield.field import (
    Dispersion,
    LatticeSpec,
    WaveAmplitude,
    coherent_state,
    commutator_sweep,
    default_spacelike_grid,
    field_expectation,
    number_density,
    pauli_jordan,
    prepare_one_particle,
    site_mode_space,
)
from fockfield.fock import (
    FockVector,
    ModeSpace,
    Statistics,
    annihilate,
    basis_state,
    create,
    inner,
    vacuum,
)
from fockfield.qinfo import (
    MeasurementModel,
    born_distribution,
    conditional_state,
    decohere,
    entangled_pair,
    pointer_outcome_counts,
    premeasure,
    sample_outcomes,
    schmidt,
)
from fockfield.wick import LadderKind, LadderSymbol, OperatorString, evaluate, parse, vacuum_expectation


def report(number: int, checks):
    """checks: list of (label, ok, detail); prints one line and asserts."""
    ok = all(c[1] for c in checks)
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: "
          + "; ".join(f"{label} {'ok' if good else 'FAILED'} ({detail})" for label, good, detail in checks))
    failed = [f"{label}: {detail}" for label, good, detail in checks if not good]
    assert ok, f"criterion {number} failed -> " + " | ".join(failed)


def random_basis_occupation(space, rng, safe=True):
    cap = space.occupation_cap
    if safe and space.statistics is Statistics.BOSE:
        cap -= 1
    return tuple(int(rng.integers(0, cap + 1)) for _ in range(space.num_slots))


def test_criterion_01_ladder_algebra():
    rng = np.random.default_rng(101)
    checks = []
    for stat, modes, nmax in ((Statistics.BOSE, 4, 6), (Statistics.FERMI, 8, 1)):
        space = ModeSpace(modes, stat, nmax=nmax)
        sign = -1.0 if stat is Statistics.BOSE else 1.0
        worst = 0.0
        for _ in range(200):
            occ = random_basis_occupation(space, rng)
            s = basis_state(space, occ)
            a = int(rng.integers(modes))
            b = int(rng.integers(modes))
            w = annihilate(create(s, b), a) + sign * create(annihilate(s, a), b)
            expect = s if a == b else FockVector(space, {})
            worst = max(worst, (w - expect).norm)
            if stat is Statistics.BOSE and max(occ) > space.nmax - 2:
                continue
            w2 = create(create(s, b), a) + sign * create(create(s, a), b)
            w3 = annihilate(annihilate(s, b), a) + sign * annihilate(annihilate(s, a), b)
            worst = max(worst, w2.norm, w3.norm)
        checks.append((f"{stat.value} relations", worst <= 1e-12, f"max residual {worst:.2e} tol 1e-12"))
    report(1, checks)


def test_criterion_02_boson_antiparticle_argument():
    rng = np.random.default_rng(202)
    space = ModeSpace(3, Statistics.BOSE, nmax=6)
    states = [occ for occ in space.basis_states() if max(occ) <= space.nmax - 1]
    worst = 0.0
    for _ in range(50):
        amps = rng.normal(size=len(states)) + 1j * rng.normal(size=len(states))
        amps /= np.linalg.norm(amps)
        v = FockVector(space, dict(zip(states, amps)))
        mode = int(rng.integers(space.num_modes))
        value = inner(v, create(annihilate(v, mode), mode)) - inner(v, annihilate(create(v, mode), mode))
        worst = max(worst, abs(value - (-1.0)))
    report(2, [("<A+A - AA+> = -1", worst <= 1e-12, f"max deviation {worst:.2e} tol 1e-12")])


def test_criterion_03_number_density_and_contractions():
    rng = np.random.default_rng(303)
    checks = []
    worst = 0.0
    for M in (8, 64):
        lattice = LatticeSpec(M, 1.0, 1.0)
        space = site_mode_space(lattice)
        for _ in range(100):
            vals = rng.normal(size=M) + 1j * rng.normal(size=M)
            f = WaveAmplitude(vals / np.linalg.norm(vals), lattice)
            state = prepare_one_particle(f, space)
            sites = rng.integers(0, M, size=8)
            for j in sites:
                worst = max(worst, abs(number_density(state, int(j)) - abs(f.values[j]) ** 2))
    checks.append(("density = |f|^2 at M in {8,64}", worst <= 1e-12, f"max residual {worst:.2e} tol 1e-12"))

    dp = vacuum_expectation(parse("bose: a(xp) a+(x) a(x) a+(xpp)"))
    structural = (
        len(dp.terms) == 1
        and dp.terms[0][0] == 1
        and set(dp.terms[0][1]) == {("x", "xp"), ("x", "xpp")}
    )
    checks.append(("symbolic contraction d(x,x')d(x,x'')", structural, str(dp)))

    labels = ("x", "y", "z")
    worst_sym = 0.0
    for stat in (Statistics.BOSE, Statistics.FERMI):
        space = ModeSpace(3, stat, nmax=8)
        for _ in range(60):
            n = int(rng.integers(0, 7))
            symbols = tuple(
                LadderSymbol(
                    LadderKind.CREATE if rng.integers(2) else LadderKind.ANNIHILATE,
                    labels[rng.integers(3)],
                )
                for _ in range(n)
            )
            s = OperatorString(symbols, stat)
            assignment = {lab: int(rng.integers(0, 3)) for lab in labels}
            v = vacuum(space)
            for sym in reversed(s.symbols):
                mode = assignment[sym.label]
                v = create(v, mode) if sym.kind is LadderKind.CREATE else annihilate(v, mode)
            numeric = inner(vacuum(space), v)
            symbolic = evaluate(vacuum_expectation(s), assignment)
            worst_sym = max(worst_sym, abs(numeric - symbolic))
    checks.append(("evaluate matches occupation arithmetic, strings <= 6", worst_sym <= 1e-10,
                   f"max deviation {worst_sym:.2e} tol 1e-10"))
    report(3, checks)


def _chirped_run(chirp):
    packet = gaussian_packet(LatticeSpec(256, 1.0, 1.0), 0.0, 0.0, 8.0, chirp=chirp)
    # the chirp < 0 packet expands from t = 0, so its seam-safe horizon
    # is shorter than the shrink-first case
    horizon = 128.0 if chirp > 0 else 96.0
    coarse = trajectory(packet, list(np.arange(0.0, horizon + 0.25, 0.5)))
    return packet, coarse


def test_criterion_04_correlation_dynamics():
    checks = []
    for chirp in (1.0, -1.0):
        packet, coarse = _chirped_run(chirp)
        rep = ehrenfest_residuals(packet, [k * 1e-3 for k in range(101)])
        checks.append((f"chirp {chirp:+} fd residuals", max(rep.width_residual, rep.correlation_residual) <= 1e-5,
                       f"width {rep.width_residual:.2e}, correlation {rep.correlation_residual:.2e} tol 1e-5"))
        h0, c0 = coarse[0].mean_h, coarse[0].mean_c
        slope_dev = max(
            abs((r.mean_c - c0) - 2 * h0 * r.t) / max(abs(2 * h0 * r.t), 1e-30)
            for r in coarse[1:]
        )
        monotone = all(b.mean_c >= a.mean_c - 1e-10 for a, b in zip(coarse, coarse[1:]))
        bound = min(r.dx * r.dp for r in coarse)
        turning = (
            chirp < 0
            or (min(r.dx for r in coarse) < coarse[0].dx and coarse[-1].dx > min(r.dx for r in coarse))
        )
        checks.append((f"chirp {chirp:+} linear slope 2<H>", slope_dev <= 1e-6, f"max rel dev {slope_dev:.2e} tol 1e-6"))
        checks.append((f"chirp {chirp:+} <C> nondecreasing", monotone, "monotone within 1e-10"))
        checks.append((f"chirp {chirp:+} uncertainty floor", bound >= 0.5 * (1 - 1e-9),
                       f"min dx*dp {bound:.12f} >= 0.5(1 - 1e-9)"))
        checks.append((f"chirp {chirp:+} shrink-then-spread", turning, "waist inside window"))
    report(4, checks)


def test_criterion_05_free_gaussian_width_law():
    lattice = LatticeSpec(256, 1.0, 1.0)
    sigma0, m = 8.0, 1.0
    packet = gaussian_packet(lattice, 0.0, 0.0, sigma0)
    horizon = 2 * m * sigma0**2
    times = np.linspace(0.0, horizon, 65)
    worst = 0.0
    for rec in trajectory(packet, times):
        predicted = sigma0**2 * (1 + (rec.t / (2 * m * sigma0**2)) ** 2)
        worst = max(worst, abs(rec.dx**2 - predicted) / predicted)
    report(5, [("width law over [0, 2 m sigma0^2]", worst <= 1e-6, f"max rel deviation {worst:.2e} tol 1e-6")])


def test_criterion_06_microcausality():
    lattice = LatticeSpec(512, 0.25, 1.0, Dispersion.RELATIVISTIC)
    checks = []
    equal_time = max(abs(pauli_jordan(lattice, 0.0, j * 0.25, True)) for j in range(1, 129))
    checks.append(("equal-time commutator vanishes", equal_time <= 1e-12, f"max {equal_time:.2e} tol 1e-12"))
    grid = default_spacelike_grid(lattice)
    with_vals, without_vals = commutator_sweep(lattice, grid)
    with_max = max(abs(v) for v in with_vals)
    without_max = max(abs(v) for v in without_vals)
    checks.append(("spacelike grid with antiparticles", with_max <= 1e-6, f"max {with_max:.2e} tol 1e-6"))
    checks.append(("spacelike grid without antiparticles", without_max >= 0.05, f"max {without_max:.2e} floor 0.05"))
    spot_with = abs(pauli_jordan(lattice, 0.5, 3.0, True))
    spot_without = abs(pauli_jordan(lattice, 0.5, 3.0, False))
    ratio = spot_with / spot_without
    checks.append(("suppression ratio at dt=0.5 dx=3.0", ratio <= 1e-3,
                   f"with {spot_with:.2e} / without {spot_without:.2e} = {ratio:.2e} <= 1e-3"))
    report(6, checks)


def test_criterion_07_decoherence_map():
    rng = np.random.default_rng(707)
    checks = []
    worst_diag = worst_purity = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        f = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        f = f / np.linalg.norm(f)
        rho = decohere(premeasure(MeasurementModel(tuple(range(dim)), tuple(f), 1.0)))
        diag = pointer_outcome_counts(rho.diagonal(), (dim, dim))
        worst_diag = max(worst_diag, float(np.max(np.abs(diag - born_distribution(f)))))
        worst_purity = max(worst_purity, abs(rho.purity - float(np.sum(np.abs(f) ** 4))))
    checks.append(("diagonal = |f|^2", worst_diag <= 1e-12, f"max residual {worst_diag:.2e} tol 1e-12"))
    checks.append(("purity = sum |f|^4", worst_purity <= 1e-12, f"max residual {worst_purity:.2e} tol 1e-12"))

    probs = np.array([0.1, 0.2, 0.3, 0.4])
    rho = decohere(premeasure(MeasurementModel((0, 1, 2, 3), tuple(np.sqrt(probs)), 1.0)))
    n = 100000
    failures = 0
    for seed in range(20):
        counts = pointer_outcome_counts(sample_outcomes(rho, n, seed=seed), (4, 4))
        if stats.chisquare(counts, probs * n).pvalue < 1e-3:
            failures += 1
    checks.append(("goodness of fit across 20 seeds", failures <= 1, f"{failures} failures at significance 1e-3"))
    report(7, checks)


def test_criterion_08_entanglement():
    e0, e1 = np.eye(2)
    checks = []
    _, entropy = schmidt(entangled_pair(e0, e1, e0, e1))
    checks.append(("maximal pair entropy ln 2", abs(entropy - np.log(2)) <= 1e-10,
                   f"entropy {entropy!r} vs ln2, tol 1e-10"))
    _, product_entropy = schmidt(entangled_pair(e0, e0, e1, e1))
    checks.append(("product state entropy", product_entropy <= 1e-12, f"entropy {product_entropy:.2e} tol 1e-12"))
    state = entangled_pair(e0, e1, e0, e1)
    b_state, prob = conditional_state(state, e0)
    correlation = abs(np.vdot(e0, b_state))
    checks.append(("outcome A1 forces B1", abs(correlation - 1.0) <= 1e-12 and abs(prob - 0.5) <= 1e-12,
                   f"|<B1|conditional>| = {correlation!r}, p = {prob!r}"))
    report(8, checks)


def test_criterion_09_coherent_states_and_field_expectation():
    checks = []
    space = ModeSpace(1, Statistics.BOSE, nmax=12)
    alpha = 0.8
    v = coherent_state([alpha], space)
    residual = (annihilate(v, 0) - alpha * v).norm
    # note: min over all normalized states in the nmax=12 space is
    # sigma_min(A - alpha) = 1.774e-6, so this bound cannot be met there
    checks.append(("eigen-residual ||(A - a)v||", residual <= 1e-6, f"residual {residual:.3e} tol 1e-6"))
    mean_n = sum(n * abs(amp) ** 2 for (n,), amp in v.amplitudes.items())
    checks.append(("<N> = |alpha|^2", abs(mean_n - alpha**2) <= 1e-8, f"deviation {abs(mean_n - alpha**2):.2e} tol 1e-8"))

    lattice = LatticeSpec(8, 1.0, 1.0)
    fspace = site_mode_space(lattice, nmax=4)
    rng = np.random.default_rng(909)
    worst_field = 0.0
    for n_particles in (1, 2, 3):
        state = vacuum(fspace)
        for _ in range(n_particles):
            coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
            from fockfield.fock import transformed_create

            state = transformed_create(state, coeffs / np.linalg.norm(coeffs))
        state = state.normalized()
        for j in range(8):
            worst_field = max(worst_field, abs(field_expectation(state, j)))
    checks.append(("fixed-N field expectation", worst_field <= 1e-14, f"max |<Psi>| {worst_field:.2e} tol 1e-14"))
    report(9, checks)


def test_criterion_10_determinism(tmp_path, capsys):
    runs = {
        "fock-check": ["fock-check"],
        "wick": ["wick", "--expr", "bose: a(x) a(y) a+(x) a+(y)", "--out", "wick.txt"],
        "causality": ["causality", "--M", "128", "--dx", "0.25", "--mass", "1"],
        "wavepacket": ["wavepacket", "--M", "128", "--sigma0", "4", "--chirp", "1", "--times", "0:2:0.05"],
        "entangle": ["entangle", "--overlap-a", "0.3", "--overlap-b", "0"],
        "measure": ["measure", "--weights", "0.25,0.75", "--n-samples", "50000", "--seed", "42"],
    }
    checks = []
    for name, argv in runs.items():
        outputs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / name / attempt
            code = cli_main(argv + ["--out-dir", str(out_dir)])
            assert code == 0, f"{name} exited {code}"
            artifact_bytes = {}
            for path in sorted(out_dir.iterdir()):
                data = path.read_bytes()
                if path.suffix == ".json":
                    meta = json.loads(data)
                    meta.pop("timestamp")
                    data = json.dumps(meta, sort_keys=True).encode()
                artifact_bytes[path.name] = data
            outputs.append(artifact_bytes)
        same = outputs[0] == outputs[1] and len(outputs[0]) > 0
        checks.append((name, same, f"{len(outputs[0])} artifacts compared"))
    capsys.readouterr()  # drop scenario logs so the verify comparison is clean
    code = cli_main(["verify"])
    first = capsys.readouterr().out
    code2 = cli_main(["verify"])
    second = capsys.readouterr().out
    checks.append(("verify", code == 0 and code2 == 0 and first == second, "stdout identical across runs"))
    report(10, checks)
