import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from fockfield import artifacts, cli, fock
from fockfield.cli import MAX_PAIRS, PARAMETERS, SCENARIOS, build_parser, main
from fockfield.field import Dispersion, LatticeSpec, default_spacelike_grid, pauli_jordan
from fockfield.fock import ModeSpace, Statistics
from fockfield.wick import MAX_TERMS

from fock_oracles import ladder_relation_residuals_per_pair, occupations_at


def run(args):
    return main(args)


def read(path):
    with open(path) as handle:
        return handle.read()


def meta_without_timestamp(path):
    meta = json.loads(read(path))
    meta.pop("timestamp")
    return meta


def test_no_scenario_prints_help_and_exits_2(capsys):
    assert run([]) == 2
    assert "scenario" in capsys.readouterr().out


def test_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["warp-drive"])
    assert exc.value.code == 2
    assert "causality" in capsys.readouterr().err  # message names valid scenarios


def test_wick_prints_normal_form(capsys):
    assert run(["wick", "--expr", "bose: a(x1) a+(x2)"]) == 0
    assert capsys.readouterr().out.strip() == "d(x1,x2) + a+(x2) a(x1)"


def test_wick_parse_error_exits_2(capsys):
    assert run(["wick", "--expr", "bose: a(x1 a+(x2)"]) == 2
    assert "position" in capsys.readouterr().err


def test_wick_from_file_and_artifact(tmp_path, capsys):
    src = tmp_path / "expr.txt"
    src.write_text("fermi: a(p) a+(q)\n")
    assert run(["wick", "--file", str(src), "--out-dir", str(tmp_path), "--out", "wick.txt"]) == 0
    assert read(tmp_path / "wick.txt").strip() == "d(p,q) - a+(q) a(p)"
    assert (tmp_path / "wick.meta.json").exists()


def test_wick_beyond_the_term_limit_exits_2(tmp_path, capsys):
    expr = "bose: " + " ".join(f"a(x{i})" for i in range(1, 13)) + " " + " ".join(f"a+(y{i})" for i in range(1, 13))
    assert run(["wick", "--expr", expr, "--out-dir", str(tmp_path), "--out", "wick.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: expression has more than {MAX_TERMS} terms\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_wavepacket_artifact_schema_and_monotone_correlation(tmp_path):
    assert run([
        "wavepacket", "--out-dir", str(tmp_path),
        "--M", "256", "--sigma0", "8", "--chirp", "1", "--times", "0:5:0.01",
    ]) == 0
    lines = read(tmp_path / "wavepacket.csv").strip().splitlines()
    assert lines[0] == "t,mean_x,mean_p,mean_x2,mean_c,mean_h,dx,dp"
    c_column = [float(line.split(",")[4]) for line in lines[1:]]
    assert len(c_column) == 501
    assert all(b >= a - 1e-10 for a, b in zip(c_column, c_column[1:]))


def test_wavepacket_determinism(tmp_path):
    for sub in ("a", "b"):
        assert run([
            "wavepacket", "--out-dir", str(tmp_path / sub),
            "--M", "128", "--sigma0", "4", "--chirp", "-1", "--times", "0:2:0.1",
        ]) == 0
    assert read(tmp_path / "a" / "wavepacket.csv") == read(tmp_path / "b" / "wavepacket.csv")
    assert meta_without_timestamp(tmp_path / "a" / "wavepacket.meta.json") == \
        meta_without_timestamp(tmp_path / "b" / "wavepacket.meta.json")


def test_wavepacket_seam_violation_exits_2(tmp_path, capsys):
    code = run([
        "wavepacket", "--out-dir", str(tmp_path),
        "--M", "128", "--sigma0", "4", "--times", "0:4000:1000",
    ])
    assert code == 2
    assert "seam" in capsys.readouterr().err


def test_wavepacket_density_profile(tmp_path):
    assert run([
        "wavepacket", "--out-dir", str(tmp_path),
        "--M", "128", "--sigma0", "4", "--times", "0:1:0.5",
        "--density-out", "density.csv",
    ]) == 0
    lines = read(tmp_path / "density.csv").strip().splitlines()
    assert lines[0] == "x,re_f,im_f,density"
    dens = np.array([float(line.split(",")[3]) for line in lines[1:]])
    assert dens.sum() == pytest.approx(1.0, abs=1e-9)


def test_causality_determinism_and_schema(tmp_path):
    for sub in ("a", "b"):
        assert run([
            "causality", "--out-dir", str(tmp_path / sub),
            "--M", "64", "--dx", "0.25", "--mass", "1",
        ]) == 0
    assert read(tmp_path / "a" / "causality.csv") == read(tmp_path / "b" / "causality.csv")
    lines = read(tmp_path / "a" / "causality.csv").strip().splitlines()
    assert lines[0] == "dt,dx,re_with,im_with,abs_with,re_without,im_without,abs_without"
    meta = json.loads(read(tmp_path / "a" / "causality.meta.json"))
    assert meta["k0_excluded"] is False


def test_causality_explicit_lists(tmp_path):
    assert run([
        "causality", "--out-dir", str(tmp_path),
        "--M", "64", "--dx", "0.25", "--mass", "1",
        "--dts", "0,0.5", "--separations", "2.0,3.0",
    ]) == 0
    lines = read(tmp_path / "causality.csv").strip().splitlines()
    assert len(lines) == 5  # header + 2x2 grid


def test_causality_csv_matches_per_pair_pauli_jordan(tmp_path):
    assert run(["causality", "--out-dir", str(tmp_path / "cli"), "--M", "64"]) == 0
    lattice = LatticeSpec(64, 0.25, 1.0, Dispersion.RELATIVISTIC)
    rows = []
    for dt, dx in default_spacelike_grid(lattice):
        w = pauli_jordan(lattice, dt, dx, True)
        wo = pauli_jordan(lattice, dt, dx, False)
        rows.append((dt, dx, w.real, w.imag, abs(w), wo.real, wo.imag, abs(wo)))
    header = ("dt", "dx", "re_with", "im_with", "abs_with", "re_without", "im_without", "abs_without")
    artifacts.write_csv(str(tmp_path / "oracle.csv"), header, rows)
    assert read(tmp_path / "cli" / "causality.csv") == read(tmp_path / "oracle.csv")


def test_causality_zero_cone_margin_leaves_out_the_light_cone(tmp_path):
    # with margin 0 the wedge dx >= dt must not reach the cone dx == dt itself
    assert run(["causality", "--out-dir", str(tmp_path), "--M", "64", "--cone-margin", "0"]) == 0
    rows = [line.split(",") for line in read(tmp_path / "causality.csv").strip().splitlines()[1:]]
    assert rows
    assert all(abs(float(dx) - float(dt)) > 1e-12 for dt, dx, *_ in rows)
    assert any(float(dt) > 0 for dt, *_ in rows)


@pytest.mark.parametrize("flags, name", [
    (["--dx", "nan"], "dx"),
    (["--mass", "nan"], "mass"),
    (["--mass", "inf"], "mass"),
    (["--cone-margin", "nan"], "cone_margin"),
    (["--dts", "0", "--separations", "inf"], "separations"),
    (["--dts", "0,nan", "--separations", "1"], "dts"),
])
def test_causality_rejects_non_finite(tmp_path, capsys, flags, name):
    assert run(["causality", "--out-dir", str(tmp_path), "--M", "64", *flags]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "numpy" not in err and "RuntimeWarning" not in err and "arange" not in err
    assert not (tmp_path / "causality.csv").exists()


def test_measure_counts_and_determinism(tmp_path):
    for sub in ("a", "b"):
        assert run([
            "measure", "--out-dir", str(tmp_path / sub),
            "--weights", "0.25,0.75", "--n-samples", "10000", "--seed", "42",
        ]) == 0
    assert read(tmp_path / "a" / "measure.csv") == read(tmp_path / "b" / "measure.csv")
    lines = read(tmp_path / "a" / "measure.csv").strip().splitlines()
    assert lines[0] == "lambda,count,frequency"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 10000
    meta = json.loads(read(tmp_path / "a" / "measure.meta.json"))
    assert meta["generator"] == "numpy.random.PCG64"
    assert meta["decoherence_time"] == pytest.approx(1e-6)


def test_measure_rejects_bad_weights(tmp_path, capsys):
    assert run(["measure", "--out-dir", str(tmp_path), "--weights", "0.5,0.6"]) == 2


def test_entangle_artifact(tmp_path):
    assert run([
        "entangle", "--out-dir", str(tmp_path), "--overlap-a", "0", "--overlap-b", "0",
    ]) == 0
    lines = read(tmp_path / "entangle.csv").strip().splitlines()
    assert lines[0] == "label,value"
    values = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert values["entropy"] == pytest.approx(np.log(2), abs=1e-10)


def test_fock_check_artifact(tmp_path):
    assert run(["fock-check", "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "fock_check.csv").strip().splitlines()
    assert lines[0] == "statistics,relation,samples,max_residual"
    assert all(float(line.split(",")[3]) <= 1e-12 for line in lines[1:])


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FOCKFIELD_OUT_DIR", str(tmp_path))
    assert run(["entangle", "--overlap-a", "0", "--overlap-b", "0"]) == 0
    assert (tmp_path / "entangle.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[wavepacket]\nM = 128\nsigma0 = 4\nchirp = 1\ntimes = 0:1:0.5\n"
    )
    assert run([
        "wavepacket", "--out-dir", str(tmp_path), "--config", str(config),
        "--chirp", "-1",
    ]) == 0
    meta = json.loads(read(tmp_path / "wavepacket.meta.json"))
    assert meta["parameters"]["M"] == 128      # from file
    assert meta["parameters"]["chirp"] == -1.0  # flag wins


def test_config_file_missing_exits_2(tmp_path, capsys):
    assert run([
        "wavepacket", "--out-dir", str(tmp_path), "--config", str(tmp_path / "nope.ini"),
    ]) == 2


def test_verify_all_pass(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    for tag in ("eq3", "eq8", "eq12", "eq13", "eq14", "comment6"):
        assert f"{tag} " in out or out.startswith(tag)
    assert "FAIL" not in out


def test_verify_only_filter(capsys):
    assert run(["verify", "--only", "eq8"]) == 0
    out = capsys.readouterr().out
    assert "eq8" in out and "eq12" not in out


def test_verify_comment6_matches_per_pair_pauli_jordan(capsys):
    lattice = LatticeSpec(64, 0.25, 1.0, Dispersion.RELATIVISTIC)
    grid = default_spacelike_grid(lattice)
    with_max = max(abs(pauli_jordan(lattice, dt, dx, True)) for dt, dx in grid)
    without_max = max(abs(pauli_jordan(lattice, dt, dx, False)) for dt, dx in grid)
    assert run(["verify", "--only", "comment6"]) == 0
    assert capsys.readouterr().out == (
        "comment6  pass  spacelike commutator cancellation with antiparticles: "
        f"spacelike commutator {with_max:.2e} with antiparticles (tol 1e-6) "
        f"vs {without_max:.2e} without (floor 0.05)\n"
        "all checks passed\n"
    )


def test_verify_unknown_tag_exits_2(capsys):
    assert run(["verify", "--only", "eq99"]) == 2


def drop_jordan_wigner_string(monkeypatch):
    # every fermion sign +1: distinct modes then commute instead of anticommuting
    monkeypatch.setattr(fock, "_jw_sign", lambda occ, slot: 1.0)


def test_verify_injected_fault_fails_eq3(capsys, monkeypatch):
    drop_jordan_wigner_string(monkeypatch)
    assert run(["verify", "--only", "eq3"]) == 1
    out = capsys.readouterr().out
    assert out.split()[:2] == ["eq3", "FAIL"]
    assert out.endswith("failed checks: eq3\n")


def test_fock_check_fails_without_the_jordan_wigner_string(tmp_path, capsys, monkeypatch):
    drop_jordan_wigner_string(monkeypatch)
    assert run(["fock-check", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ladder relation residual")
    rows = [line.split(",") for line in read(tmp_path / "fock_check.csv").strip().splitlines()[1:]]
    assert max(float(r[3]) for r in rows if r[0] == "fermi") > 1e-12
    assert max(float(r[3]) for r in rows if r[0] == "bose") <= 1e-12


@pytest.mark.parametrize("argv", [["wick", "--expr", "bose: a(x1) a+(x2)", "--out", "wick.txt"], ["verify"]])
def test_config_on_a_scenario_without_parameters_exits_2(tmp_path, capsys, argv):
    config = tmp_path / "x.ini"
    config.write_text(f"[{argv[0]}]\n")
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --config" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_verify_output_reproducible(capsys):
    assert run(["verify"]) == 0
    first = capsys.readouterr().out
    assert run(["verify"]) == 0
    second = capsys.readouterr().out
    assert first == second


# ----------------------------------------------------------------------
# one parameter rule for every scenario: ints >= 0, floats finite, lists
# non-empty with finite entries; a bad value exits 2 naming the parameter


def bad_values(caster):
    if caster is int:
        return ["-1"]
    if caster is float:
        return ["nan", "inf"]
    return ["", "nan,1", "1,inf"]


PARAMETER_CASES = [
    pytest.param(scenario, name, value, id=f"{scenario}-{name}-{value or 'empty'}")
    for scenario, table in PARAMETERS.items()
    for name, (caster, _, _) in table.items()
    for value in bad_values(caster)
]


def assert_rejected(out_dir, err, name):
    assert err.startswith(f"error: {name} must"), err
    assert "numpy" not in err and "np.float64" not in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("scenario, name, value", PARAMETER_CASES)
def test_every_parameter_rejects_a_bad_flag(tmp_path, capsys, scenario, name, value):
    flag = "--" + name.replace("_", "-")
    assert run([scenario, "--out-dir", str(tmp_path / "out"), f"{flag}={value}"]) == 2
    assert_rejected(tmp_path / "out", capsys.readouterr().err, name)


@pytest.mark.parametrize("scenario, name, value", PARAMETER_CASES)
def test_every_parameter_rejects_a_bad_config_key(tmp_path, capsys, scenario, name, value):
    config = tmp_path / "run.ini"
    config.write_text(f"[{scenario}]\n{name} = {value}\n")
    assert run([scenario, "--out-dir", str(tmp_path / "out"), "--config", str(config)]) == 2
    assert_rejected(tmp_path / "out", capsys.readouterr().err, name)


def test_fock_check_pairs_beyond_the_limit_from_config_exit_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[fock-check]\npairs = {MAX_PAIRS + 1}\n")
    assert run(["fock-check", "--out-dir", str(tmp_path / "out"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert_rejected(tmp_path / "out", err, "pairs")
    assert err == f"error: pairs must be <= {MAX_PAIRS}, got {MAX_PAIRS + 1}\n"


def test_misspelt_config_key_names_the_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[fock-check]\nmodse = 6\nnmax = 3\n")
    assert run(["fock-check", "--out-dir", str(tmp_path / "out"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: modse: not a parameter of fock-check"), err
    assert not (tmp_path / "out").exists()


def test_config_without_the_scenario_section_is_legal(tmp_path):
    # one file may serve several scenarios: only the scenario's own section is checked
    config = tmp_path / "run.ini"
    config.write_text("[DEFAULT]\nseed = 3\n[wavepacket]\nM = 64\n[fock-check]\npairs = 20\n")
    assert run(["entangle", "--out-dir", str(tmp_path), "--config", str(config)]) == 0
    assert run(["fock-check", "--out-dir", str(tmp_path), "--config", str(config)]) == 0
    assert meta_without_timestamp(tmp_path / "fock_check.meta.json")["parameters"]["seed"] == 3


def test_config_value_that_does_not_parse_names_the_parameter(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[fock-check]\nmodes = four\n")
    assert run(["fock-check", "--out-dir", str(tmp_path), "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: modes: ")


@pytest.mark.parametrize("argv, name", [
    (["wavepacket", "--times", "5:0:1"], "times"),
    (["wavepacket", "--times", "5:0:1", "--density-out", "d.csv"], "times"),
    (["wavepacket", "--sigma0", "nan"], "sigma0"),
    (["wavepacket", "--chirp", "inf"], "chirp"),
    (["wavepacket", "--x0", "nan"], "x0"),
    (["wavepacket", "--times", "nan"], "times"),
    (["measure", "--weights", "nan,1"], "weights"),
    (["measure", "--apparatus-energy", "nan"], "apparatus_energy"),
    (["measure", "--seed", "-1"], "seed"),
    (["fock-check", "--seed", "-1"], "seed"),
    (["fock-check", "--pairs", "-5"], "pairs"),
    (["causality", "--dts", "", "--separations", "1"], "dts"),
    (["causality", "--cone-margin", "-5"], "cone_margin"),
    (["measure", "--apparatus-energy", "1e-320"], "apparatus_energy"),
    (["measure", "--weights", "0.5,0.500000005"], "weights"),
    (["measure", "--weights", "0.5,0.49999999"], "weights"),
    (["fock-check", "--pairs", str(MAX_PAIRS + 1)], "pairs"),
])
def test_inputs_that_used_to_run_or_crash_exit_2(tmp_path, capsys, argv, name):
    assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert_rejected(tmp_path / "out", capsys.readouterr().err, name)


def test_times_range_is_bounded(tmp_path, capsys):
    config = tmp_path / "run.ini"
    for text, reason in (
        ("0:1e9:1", "has more than 1000000 samples"),
        ("-1e308:1e308:1", "has more than 1000000 samples"),
        ("0:inf:1", "times must be finite"),
        ("0:1:0", "times step must be positive"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(["wavepacket", "--out-dir", str(tmp_path), f"--times={text}"])
        assert exc.value.code == 2
        flag_err = capsys.readouterr().err.splitlines()[-1]
        config.write_text(f"[wavepacket]\ntimes = {text}\n")
        assert run(["wavepacket", "--out-dir", str(tmp_path), "--config", str(config)]) == 2
        config_err = capsys.readouterr().err
        assert reason in config_err
        # the flag gives the reason the config file gives
        assert flag_err.split("error: argument --times: ")[1] == config_err.removeprefix("error: times: ").rstrip("\n")
    assert not (tmp_path / "wavepacket.csv").exists()


def test_measure_rejects_apparatus_energy_whose_inverse_overflows(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[measure]\napparatus_energy = 1e-320\n")
    assert run(["measure", "--out-dir", str(tmp_path / "out"), "--config", str(config)]) == 2
    assert_rejected(tmp_path / "out", capsys.readouterr().err, "apparatus_energy")


def test_fock_check_large_space_draws_without_enumerating(tmp_path):
    start = time.perf_counter()
    assert run(["fock-check", "--out-dir", str(tmp_path), "--modes", "12", "--nmax", "8"]) == 0
    assert time.perf_counter() - start < 15.0


def test_fock_check_unindexable_space_exits_2(tmp_path, capsys):
    assert run(["fock-check", "--out-dir", str(tmp_path), "--modes", "64", "--nmax", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: modes = 64")
    assert not (tmp_path / "fock_check.csv").exists()


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("modes", range(1, 6))
@pytest.mark.parametrize("nmax", range(1, 6))
def test_occupations_at_matches_filtered_basis_states(stats, modes, nmax):
    # the basis list the ladder-relation draw indexed before it decoded indices
    space = ModeSpace(modes, stats, nmax=nmax)
    cap = space.occupation_cap - (1 if stats is Statistics.BOSE else 0)
    states = [occ for occ in space.basis_states() if max(occ) <= cap]
    decoded = cli._occupations(np.arange(len(states)), cap + 1, modes)
    assert decoded.dtype == np.int64
    assert [tuple(row) for row in decoded.tolist()] == states
    assert [occupations_at(i, cap + 1, modes) for i in range(len(states))] == states


def assert_sweep_equals_per_pair_oracle(stats, modes, nmaxes, pairs=(0, 1, 50, 200), seeds=(0, 1, 2)):
    """The sweep's residuals (== on every value) and the generator state
    after it equal the per-pair oracle's; a fermion pass follows a boson
    pass on one generator, as in run_fock_check."""
    passes = (Statistics.BOSE,) if stats is Statistics.BOSE else (Statistics.BOSE, Statistics.FERMI)
    for nmax in nmaxes:
        for n_pairs in pairs:
            for seed in seeds:
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for statistics in passes:
                    space = ModeSpace(modes, statistics, nmax=nmax)
                    got = cli._ladder_relation_residuals(space, rng, n_pairs)
                    want = ladder_relation_residuals_per_pair(space, oracle_rng, n_pairs)
                    case = (statistics, modes, nmax, n_pairs, seed)
                    assert got == want, case
                    assert [type(v) for v in got.values()] == [float] * 3, case
                    assert rng.bit_generator.state == oracle_rng.bit_generator.state, case


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6, 12])
def test_ladder_relation_sweep_equals_per_pair_oracle(stats, modes):
    # a fermion space ignores nmax, so two values show that
    assert_sweep_equals_per_pair_oracle(stats, modes, range(1, 9) if stats is Statistics.BOSE else (1, 8))


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6, 12])
def test_ladder_relation_sweep_equals_per_pair_oracle_without_the_jordan_wigner_string(modes, monkeypatch):
    # nonzero fermion residuals: each pair's norm must still match bit for bit
    drop_jordan_wigner_string(monkeypatch)
    assert_sweep_equals_per_pair_oracle(Statistics.FERMI, modes, (1,))
    if modes > 1:
        residuals = cli._ladder_relation_residuals(ModeSpace(modes, Statistics.FERMI), np.random.default_rng(0), 200)
        assert residuals["exchange"] > 1e-12


@pytest.mark.parametrize("block", [1, 2, 7, 50])
def test_ladder_relation_sweep_in_blocks_equals_per_pair_oracle(block, monkeypatch):
    # block edges: more than one draw per sweep gives the same draws
    for stats, modes in ((Statistics.BOSE, 3), (Statistics.FERMI, 5)):
        monkeypatch.setattr(cli, "_BLOCK_ELEMENTS", block * (modes + 3))
        assert_sweep_equals_per_pair_oracle(stats, modes, (4,), pairs=(49, 50, 51, 200), seeds=(3,))


class RecordingGenerator:
    """Delegates integers() to a generator and records each draw's size."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def integers(self, *args):
        values = self.rng.integers(*args)
        self.sizes.append(np.size(values))
        return values


def test_ladder_relation_sweep_arrays_are_bounded_by_the_block():
    # the 62-mode space of the largest fock-check run: one draw per block of
    # _BLOCK_ELEMENTS // (modes + 3) pairs, each with 3 draws and 62 digits
    n_pairs = 4100
    for stats in Statistics:
        rng = RecordingGenerator(0)
        cli._ladder_relation_residuals(ModeSpace(62, stats, nmax=1), rng, n_pairs)
        block = cli._BLOCK_ELEMENTS // (62 + 3)
        assert rng.sizes == [3 * block, 3 * block, 3 * (n_pairs - 2 * block)]


def test_causality_mass_whose_square_underflows_equals_massless(tmp_path):
    for sub, mass in (("tiny", "1e-200"), ("zero", "0")):
        assert run(["causality", "--out-dir", str(tmp_path / sub), "--M", "64", "--mass", mass]) == 0
        assert json.loads(read(tmp_path / sub / "causality.meta.json"))["k0_excluded"] is True
    assert read(tmp_path / "tiny" / "causality.csv") == read(tmp_path / "zero" / "causality.csv")


@pytest.mark.parametrize("weights", ["0.5,0.500000005", "0.5,0.49999999"])
def test_measure_weights_outside_the_trace_tolerance_from_config_exit_2(tmp_path, capsys, weights):
    # off by more than the decohered state's 1e-10 trace tolerance
    config = tmp_path / "run.ini"
    config.write_text(f"[measure]\nweights = {weights}\n")
    assert run(["measure", "--out-dir", str(tmp_path / "out"), "--config", str(config)]) == 2
    assert_rejected(tmp_path / "out", capsys.readouterr().err, "weights")


# -- one parser per process: repeated in-process calls leak no state

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def call_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def call_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "fockfield.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def written_files(directory):
    files = {}
    for path in sorted(directory.glob("*")) if directory.exists() else ():
        text = path.read_text()
        if path.name.endswith(".meta.json"):
            meta = json.loads(text)
            meta.pop("timestamp")
            text = meta
        files[path.name] = text
    return files


def run_steps(call, steps, root):
    """(exit code, stdout, stderr, files written) of each step, in order."""
    results = []
    for i, argv in enumerate(steps):
        out_dir = root / str(i)
        rc, out, err = call([*argv, "--out-dir", str(out_dir)] if argv[0] in SCENARIOS else argv)
        results.append((rc, out.replace(str(out_dir), "<OUT>"), err, written_files(out_dir)))
    return results


def test_reused_parser_matches_fresh_processes(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # help wrapping, in both runs
    config = tmp_path / "run.ini"
    config.write_text(
        "[measure]\nweights = 0.2, 0.3, 0.5\nn_samples = 2000\n"
        "[wavepacket]\nM = 128\nsigma0 = 4\ntimes = 0, 0.5, 2\n"
        "[causality]\nM = 32\ndts = 0, 0.5\nseparations = 2, 3\n"
    )
    steps = [
        ["measure", "--config", str(config), "--seed", "7"],
        ["wavepacket", "--config", str(config), "--chirp", "-1"],
        ["causality", "--config", str(config), "--mass", "0.5"],
        ["wavepacket", "--M", "many"],
        ["--help"],
        ["measure", "--help"],
        ["--version"],
        ["measure"],
        ["wavepacket", "--config", str(config)],
    ]
    reused = run_steps(call_in_process, steps, tmp_path / "in_process")
    assert cli._parser.cache_info().misses == 1
    assert [r[0] for r in reused] == [0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert reused == run_steps(call_fresh_process, steps, tmp_path / "fresh")


def test_help_of_the_reused_parser_equals_a_fresh_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    for argv in [["--help"]] + [[scenario, "--help"] for scenario in SCENARIOS]:
        reused = call_in_process(argv)
        with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert reused == (exc.value.code, out.getvalue(), ""), argv
        assert reused[0] == 0 and reused[1].startswith("usage: fockfield")
