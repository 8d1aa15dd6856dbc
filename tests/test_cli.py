import ast
import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockfield import __version__, artifacts, cli, fock
from fockfield.cli import MAX_PAIRS, MAX_SWEEP_VALUES, PARAMETERS, SCENARIOS, build_parser, main
from fockfield.field import Dispersion, LatticeSpec, commutator_sweep, default_spacelike_grid
from fockfield.fock import ModeSpace, Statistics
from fockfield.qinfo import GENERATOR_NAME
from fockfield.wick import MAX_TERMS

from field_oracles import pauli_jordan_per_pair, sweep_rounding_bound
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


@pytest.mark.parametrize("content, reason", [
    (False, "No such file or directory"),
    (None, "Is a directory"),
    (b"bose: a(x) a+(\xff)\n", "can't decode byte 0xff"),
], ids=["missing", "directory", "undecodable"])
def test_unreadable_wick_file_exits_2_with_one_file_line(tmp_path, capsys, content, reason):
    expr = tmp_path / "expr.txt"
    if content is None:
        expr.mkdir()
    elif content:
        expr.write_bytes(content)
    assert run(["wick", "--file", str(expr), "--out-dir", str(tmp_path / "out"), "--out", "wick.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: file: ") and captured.err.count("\n") == 1
    assert reason in captured.err
    assert not (tmp_path / "out").exists()


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
    # within the sweep's rounding bound of the per-pair oracle (twice it with antiparticles);
    # %.16e round-trips a double, so the text is read back as the values written
    assert run(["causality", "--out-dir", str(tmp_path), "--M", "64"]) == 0
    lattice = LatticeSpec(64, 0.25, 1.0, Dispersion.RELATIVISTIC)
    lines = read(tmp_path / "causality.csv").strip().splitlines()
    assert lines[0] == "dt,dx,re_with,im_with,abs_with,re_without,im_without,abs_without"
    grid = default_spacelike_grid(lattice)
    assert len(lines) == 1 + len(grid)
    for (dt, dx), line in zip(grid, lines[1:]):
        fields = line.split(",")
        assert fields[2] == "0.0000000000000000e+00"  # re_with is +0.0 in every row
        values = [float(text) for text in fields]
        assert values[:2] == [dt, dx]
        w, wo = complex(values[2], values[3]), complex(values[5], values[6])
        assert values[4] == abs(w) and values[7] == abs(wo)
        bound = sweep_rounding_bound(lattice, dt, dx)
        assert abs(w - pauli_jordan_per_pair(lattice, dt, dx, True)) <= 2 * bound
        assert abs(wo - pauli_jordan_per_pair(lattice, dt, dx, False)) <= bound


def test_causality_memory_stays_within_its_tables_and_one_chunk_of_text(tmp_path, capsys):
    # 256 x 256 pairs at M = 512: the sweep's two tables hold 16 (256 + 256) 512 bytes (4.2 MB), and
    # building one of them, or one dt's gathered rows, needs at most as much again.  Every pair
    # then takes at most 128 bytes in the sweep's index and value arrays and the eight columns, and
    # one chunk of text about 1 KB per row in Python floats, row strings and the joined chunk.  The
    # whole text of the table (12.5 MB, and more as a list of lines) would not fit.
    values = [str(0.25 * k) for k in range(256)]
    argv = ["causality", "--out-dir", str(tmp_path),
            "--dts", ",".join(values), "--separations", ",".join(values[1:] + ["64"])]
    assert run(argv[:3] + ["--M", "16"]) == 0  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.endswith("(65536 points)\n")
    tables = 16 * (256 + 256) * 512
    assert peak <= 2 * tables + 128 * 256**2 + 1024 * artifacts._CHUNK_ROWS


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


@pytest.mark.parametrize("argv, seeded, extra", [
    (["fock-check", "--pairs", "10", "--seed", "3"], True, []),
    (["causality", "--M", "16"], False, ["k0_excluded"]),
    (["wavepacket", "--M", "64", "--sigma0", "3", "--times", "0,1", "--density-out", "d.csv"], False, []),
    (["entangle"], False, []),
    (["measure", "--n-samples", "100", "--seed", "3"], True, ["decoherence_time"]),
])
def test_every_table_sidecar_records_its_scenario_seed_and_generator(tmp_path, argv, seeded, extra):
    assert run([*argv, "--out-dir", str(tmp_path)]) == 0
    sidecars = sorted(tmp_path.glob("*.meta.json"))
    assert len(sidecars) == len(list(tmp_path.glob("*.csv"))) == (2 if "--density-out" in argv else 1)
    for path in sidecars:
        meta = meta_without_timestamp(path)
        assert sorted(meta) == sorted(["scenario", "parameters", "seed", "generator", "version", *extra])
        assert meta["scenario"] == argv[0] and meta["version"] == __version__
        assert (meta["seed"], meta["generator"]) == ((3, GENERATOR_NAME) if seeded else (None, None))


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


@pytest.mark.parametrize("scenario, text, reason", [
    ("wavepacket", "[wavepacket]\nchirp = 5%\n", "chirp: '%' must be followed by"),
    ("wavepacket", "[wavepacket]\nchirp = 1\nchirp = 2\n", "option 'chirp' in section 'wavepacket' already exists"),
    ("wavepacket", "chirp = 1\n", "File contains no section headers."),
    ("entangle", None, "Is a directory"),
    ("entangle", False, "No such file or directory"),
], ids=["lone-percent", "key-twice", "no-section", "directory", "missing"])
def test_unreadable_config_exits_2_with_one_config_line(tmp_path, capsys, scenario, text, reason):
    config = tmp_path / "run.ini"
    if text is None:
        config.mkdir()
    elif text:
        config.write_text(text)
    assert run([scenario, "--out-dir", str(tmp_path / "out"), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config: ") and captured.err.count("\n") == 1
    assert reason in captured.err
    assert not (tmp_path / "out").exists()


def test_config_values_keep_interpolation(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[DEFAULT]\nnote = 100%% of %(who)s\nwho = me\n[entangle]\noverlap_a = 0\n")
    assert run(["entangle", "--out-dir", str(tmp_path), "--config", str(config)]) == 0


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
    # verify prints the sweep's maxima; each moves from the oracle's by no more than the largest
    # difference of its entries, which the sweep's rounding bound (twice it with antiparticles) caps
    lattice = LatticeSpec(64, 0.25, 1.0, Dispersion.RELATIVISTIC)
    grid = default_spacelike_grid(lattice)
    with_vals, without_vals = commutator_sweep(lattice, grid)
    with_max = max(abs(v) for v in with_vals)
    without_max = max(abs(v) for v in without_vals)
    bound = max(sweep_rounding_bound(lattice, dt, dx) for dt, dx in grid)
    assert abs(with_max - max(abs(pauli_jordan_per_pair(lattice, dt, dx, True)) for dt, dx in grid)) <= 2 * bound
    assert abs(without_max - max(abs(pauli_jordan_per_pair(lattice, dt, dx, False)) for dt, dx in grid)) <= bound
    assert run(["verify", "--only", "comment6"]) == 0
    assert capsys.readouterr().out == (
        "comment6  pass  spacelike commutator cancellation with antiparticles: "
        f"spacelike commutator {with_max:.2e} with antiparticles (tol 1e-6) "
        f"vs {without_max:.2e} without (floor 0.05)\n"
        "all checks passed\n"
    )


def test_verify_unknown_tag_exits_2(capsys):
    assert run(["verify", "--only", "eq99"]) == 2


@pytest.mark.parametrize("only", ["", " ", "eq3,,eq8"], ids=["empty", "blank", "empty-entry"])
def test_verify_empty_tag_exits_2_naming_it(capsys, only):
    # an empty --only names the empty tag; it does not run every check
    assert run(["verify", "--only", only]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown check tags ['']; known: ['comment6', 'eq12', 'eq13', 'eq14', 'eq3', 'eq8']\n"
    )


def drop_jordan_wigner_string(monkeypatch):
    # every fermion sign +1, on the dict loop and on the array rows: distinct
    # modes then commute instead of anticommuting
    monkeypatch.setattr(fock, "_jw_sign", lambda occ, slot: 1.0)
    monkeypatch.setattr(fock, "_jw_signs", lambda rows, slot: np.ones(len(rows)))


def test_dropped_jordan_wigner_string_reaches_the_array_ladder(monkeypatch):
    # every 8-mode fermion basis state, array-born: create takes the kernel
    space = ModeSpace(8, Statistics.FERMI)
    states = np.array(list(space.basis_states()), dtype=np.int8)
    assert len(states) >= fock.ARRAY_CUTOFF
    v = fock._array_state(space, states, np.ones(len(states), complex))
    signed = fock.create(v, 7)
    drop_jordan_wigner_string(monkeypatch)
    unsigned = fock.create(v, 7)
    assert signed._values is not None and unsigned._values is not None
    assert np.array_equal(unsigned._rows, signed._rows)
    assert np.array_equal(unsigned._values, np.ones(len(signed._values)))
    assert np.any(signed._values == -1.0)


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
# non-empty with finite entries, each value or entry within its declared
# bounds; a bad value exits 2 naming the parameter


def declared_bounds(param):
    """(bound, outward step) for each bound the parameter's entry declares."""
    return [(bound, step) for bound, step in ((param.lo, -1), (param.hi, 1)) if bound is not None]


def past_bound(param, bound, step):
    """The value just past a bound: bound + step for an int, the next float
    outward for a float, and that float between two entries at the bound
    for a list."""
    if param.type is int:
        return str(bound + step)
    past = repr(float(np.nextafter(bound, step * np.inf)))
    return past if param.type is float else f"{bound},{past},{bound}"


def bad_values(param):
    """The rule's bad values for the type, then the value just past each declared bound."""
    values = (["-1"] if param.type is int else ["nan", "inf", "-inf"] if param.type is float
              else ["", "nan,1", "1,inf", "1,-inf"])
    return values + [past_bound(param, bound, step) for bound, step in declared_bounds(param)]


PARAMETER_CASES = [
    pytest.param(scenario, name, value, id=f"{scenario}-{name}-{value or 'empty'}")
    for scenario, table in PARAMETERS.items()
    for name, param in table.items()
    for value in bad_values(param)
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


BOUND_CASES = [
    pytest.param(scenario, name, bound, step, id=f"{scenario}-{name}-{bound}")
    for scenario, table in PARAMETERS.items()
    for name, param in table.items()
    for bound, step in declared_bounds(param)
]


@pytest.mark.parametrize("scenario, name, bound, step", BOUND_CASES)
def test_merged_params_accepts_each_bound_and_rejects_the_value_past_it(tmp_path, scenario, name, bound, step):
    # _merged_params alone, so that a bound such as pairs = 10^6 costs nothing
    config = tmp_path / "run.ini"

    def merged(text, by_config):
        config.write_text(f"[{scenario}]\n{name} = {text}\n")
        flags = ["--config", str(config)] if by_config else ["--" + name.replace("_", "-") + "=" + text]
        return cli._merged_params(build_parser().parse_args([scenario, *flags]))[name]

    for by_config in (False, True):
        value = merged(str(bound), by_config)
        assert value == ([bound] if isinstance(value, list) else bound)
        with pytest.raises(ValueError, match=f"^{name} must be {'<' if step > 0 else '>'}= {bound}, got "):
            merged(past_bound(PARAMETERS[scenario][name], bound, step), by_config)


def test_nmax_bound_keeps_the_boson_exchange_residual_within_the_tolerance(tmp_path):
    hi = PARAMETERS["fock-check"]["nmax"].hi

    def worst(nmax, occupations):
        s = fock.FockVector(ModeSpace(1, Statistics.BOSE, nmax=nmax), {(n,): 1.0 + 0.0j for n in occupations})
        w = fock.annihilate(fock.create(s, 0), 0) - fock.create(fock.annihilate(s, 0), 0) - s
        return max(abs(v) for v in w.amplitudes.values())

    assert worst(hi, range(hi)) <= cli.LADDER_TOL  # every occupation a boson pair is drawn with
    assert worst(4105, [4104]) > cli.LADDER_TOL
    assert run(["fock-check", "--out-dir", str(tmp_path), "--modes", "2", "--nmax", str(hi)]) == 0


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
    (["fock-check", "--modes", "0"], "modes"),
    (["causality", "--M", "0"], "M"),
    (["wavepacket", "--M", "0"], "M"),
    (["wavepacket", "--M", "7"], "M"),
    (["measure", "--n-samples", "0"], "n_samples"),
    (["causality", "--dx", "0"], "dx"),
    (["wavepacket", "--dx", "0"], "dx"),
    (["fock-check", "--nmax", "0"], "nmax"),
    (["fock-check", "--nmax", "4097"], "nmax"),
    (["fock-check", "--modes", "2", "--nmax", "10000"], "nmax"),
    (["causality", "--mass", "-1"], "mass"),
    (["measure", "--apparatus-energy", "0"], "apparatus_energy"),
    (["measure", "--apparatus-energy", "-1"], "apparatus_energy"),
    (["causality", "--M", "2"], "M"),  # the default grid holds no point: a header-only table
])
def test_inputs_that_used_to_run_or_crash_exit_2(tmp_path, capsys, argv, name):
    assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert_rejected(tmp_path / "out", capsys.readouterr().err, name)


@pytest.mark.parametrize("argv, names", [
    (["wavepacket", "--mass", "5e-324"], ["mass"]),
    (["wavepacket", "--mass", "5e-324", "--density-out", "d.csv"], ["mass"]),
    (["wavepacket", "--times", "1e308"], ["times"]),
    (["wavepacket", "--p0", "1e308"], ["p0"]),
    (["wavepacket", "--chirp", "1e308"], ["chirp"]),
    (["causality", "--M", "100000000"], ["M"]),
    (["wavepacket", "--M", "100000000", "--times", "0"], ["M"]),
    (["causality", "--mass", "1e300"], ["mass"]),
    (["causality", "--dx", "5e-324"], ["dx"]),
    (["causality", "--dx", "1e308"], ["dx"]),
    (["causality", "--dts", "1", "--separations", "1e308"], ["separations"]),
    (["causality", "--dts", "1e308", "--separations", "1"], ["dts"]),
    (["entangle", "--overlap-a", "1", "--overlap-b", "-1"], ["overlap_a", "overlap_b"]),
    (["entangle", "--overlap-a", "-1", "--overlap-b", "1"], ["overlap_a", "overlap_b"]),
    (["wavepacket", "--dx", "1e200", "--sigma0", "2e200"], ["sigma0", "dx"]),
    (["wavepacket", "--M", "512", "--dx", "1e152", "--sigma0", "2e152"], ["sigma0", "dx"]),
    (["wavepacket", "--dx", "1e-320", "--sigma0", "2e-320"], ["sigma0", "dx"]),
    (["wavepacket", "--dx", "1e-156", "--sigma0", "2e-156"], ["sigma0", "dx"]),
    (["causality", "--M", "64", "--mass", "1e150", "--dx", "1e200"], ["mass", "dx", "M 64"]),
])
def test_non_finite_phases_and_lattice_edges_exit_2_naming_the_parameter(tmp_path, argv, names):
    # in-process, where every warning is an error, as under python -W error
    rc, out, err = call_in_process([*argv, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in names), err
    assert "Traceback" not in err and "Warning" not in err and "numpy" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


EDGE_FLOATS = ["-0.0", "5e-324", "-5e-324", "1e-300", "1e200", "1e308", "-1e308"]
EDGE_PARTNERS = {"dts": ["--separations", "1"], "separations": ["--dts", "0"]}  # given together or not at all
EDGE_CASES = [
    pytest.param(scenario, name, value, id=f"{scenario}-{name}-{value}")
    for scenario, table in PARAMETERS.items()
    for name, param in table.items()
    if param.type is not int
    for value in EDGE_FLOATS
]


@pytest.mark.parametrize("scenario, name, value", EDGE_CASES)
def test_edge_floats_run_or_exit_2_with_one_error_line(tmp_path, scenario, name, value):
    # each float parameter, and each list parameter as a one-entry list, alone at an edge of the doubles
    out_dir = tmp_path / "out"
    argv = [scenario, "--out-dir", str(out_dir), f"--{name.replace('_', '-')}={value}", *EDGE_PARTNERS.get(name, [])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = call_in_process(argv)
    assert rc in (0, 2), err
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    if rc == 2:
        assert not out_dir.exists() or not any(out_dir.iterdir())


def edge_texts(name, param):
    """The values an example of several parameters draws for one parameter: an int's lo, lo + 1 and
    hi, except the hi of M and pairs (one run there takes about 3 s or about 1.3 s; each is an
    explicit example of the flag test); a float's or a one-entry list's edge floats and declared bounds."""
    if param.type is int:
        lo = 0 if param.lo is None else param.lo
        return [str(lo), str(lo + 1)] + ([] if param.hi is None or name in ("M", "pairs") else [str(param.hi)])
    return EDGE_FLOATS + [str(bound) for bound in (param.lo, param.hi) if bound is not None]


@st.composite
def several_edge_parameters(draw):
    """argv of one scenario with 2 or 3 of its parameters at edge values, each as --name value."""
    scenario = draw(st.sampled_from(sorted(PARAMETERS)))
    table = PARAMETERS[scenario]
    names = draw(st.lists(st.sampled_from(sorted(table)), min_size=2, max_size=min(3, len(table)), unique=True))
    argv = [scenario]
    for name in names:
        argv += ["--" + name.replace("_", "-"), draw(st.sampled_from(edge_texts(name, table[name])))]
    for name, partner in EDGE_PARTNERS.items():
        if name in names and partner[0].removeprefix("--") not in names:
            argv += partner
    if scenario == "causality" and "M" not in names:
        argv += ["--M", "64"]  # the default grid costs about 0.3 s a run
    return argv


@settings(max_examples=350, derandomize=True, database=None, deadline=None)
@example(["causality", "--dx", "1e200", "--mass", "0"])  # every p_eff² underflows, so every frequency is 0
@example(["causality", "--M", str(PARAMETERS["causality"]["M"].hi)])
@example(["fock-check", "--pairs", str(MAX_PAIRS)])
@given(several_edge_parameters())
def test_several_edge_parameters_run_or_exit_2_with_one_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = call_in_process([*argv, "--out-dir", str(out_dir)])
        assert rc in (0, 2), err
        assert "Traceback" not in err
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
        if rc == 2:
            assert not out_dir.exists() or not any(out_dir.iterdir())


def flags_as_config(argv):
    """A config file's text holding argv's --name value pairs in the section of its scenario."""
    lines = [f"[{argv[0]}]"]
    lines += [f"{flag.removeprefix('--').replace('-', '_')} = {value}" for flag, value in zip(argv[1::2], argv[2::2])]
    return "\n".join(lines) + "\n"


# The flag test's examples (both are derandomized); about 2.5 s.
@settings(max_examples=350, derandomize=True, database=None, deadline=None)
@example(["causality", "--dx", "1e200", "--mass", "0"])
@given(several_edge_parameters())
def test_several_edge_parameters_from_a_config_file_equal_the_flag_run(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp) / "out"
        config = pathlib.Path(tmp) / "run.ini"
        config.write_text(flags_as_config(argv))
        runs = []
        for call_argv in (argv, [argv[0], "--config", str(config)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, out, err = call_in_process([*call_argv, "--out-dir", str(out_dir)])
            runs.append((rc, out, err, written_files(out_dir)))  # sidecars without their timestamp
            shutil.rmtree(out_dir, ignore_errors=True)
        assert runs[0][0] in (0, 2), runs[0][2]
        assert runs[1] == runs[0]


@pytest.mark.parametrize("argv, names", [
    (["causality", "--dx", "1e200", "--mass", "0"], ["mass 0.0", "dx 1e+200"]),
    (["causality", "--dx", "1e200", "--mass", "5e-324"], ["mass 5e-324", "dx 1e+200"]),
    (["causality", "--dx", "1e200", "--mass", "1e-300"], ["mass 1e-300", "dx 1e+200"]),
    (["causality", "--dx", "1e200", "--mass", "0", "--dts", "0", "--separations", "1"], ["mass 0.0", "dx 1e+200"]),
    (["causality", "--M", "64", "--dx", "1e162", "--mass", "0"], ["mass 0.0", "dx 1e+162"]),
    (["wavepacket", "--density-out", "wavepacket.csv"], ["density_out"]),
    (["wavepacket", "--density-out", "wavepacket.txt"], ["density_out"]),
    (["wavepacket", "--density-out", "wavepacket.meta.json"], ["density_out"]),
    (["wavepacket", "--density-out", ""], ["density_out"]),
    (["wavepacket", "--density-out", "sub/"], ["density_out"]),
    (["wavepacket", "--density-out", "/"], ["density_out"]),
    (["wick", "--expr", "bose: a(x) a+(y)", "--out", ""], ["out"]),
    (["wick", "--expr", "bose: a(x) a+(y)", "--out", "/"], ["out"]),
    (["wavepacket", "--M", "8"], ["x0 0.0", "sigma0 8.0", "M 8", "dx 1.0"]),
    (["wavepacket", "--dx", "1e-300"], ["x0 0.0", "sigma0 8.0", "M 256", "dx 1e-300"]),
    (["wavepacket", "--sigma0", "1e308"], ["x0 0.0", "sigma0 1e+308", "M 256", "dx 1.0"]),
])
def test_inputs_of_several_parameters_exit_2_naming_them(tmp_path, argv, names):
    rc, out, err = call_in_process([*argv, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in names), err
    assert "Traceback" not in err and "Warning" not in err and ".tmp" not in err and "inf" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_density_out_beside_the_trajectory_is_written(tmp_path):
    argv = ["wavepacket", "--out-dir", str(tmp_path), "--M", "64", "--sigma0", "2", "--times", "0:1:0.5"]
    assert run([*argv, "--density-out", "density.csv"]) == 0
    assert run([*argv, "--density-out", "sub/d.csv"]) == 0
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*")) == [
        "density.csv", "density.meta.json", "sub/d.csv", "sub/d.meta.json", "wavepacket.csv", "wavepacket.meta.json"]
    assert read(tmp_path / "wavepacket.csv").startswith(",".join(cli.TrajectoryRecord.CSV_HEADER))


@pytest.mark.parametrize("argv, flag, value", [
    (["wavepacket"], "--chirp", "-1e-3"),
    (["wavepacket"], "--x0", "-2E1"),
    (["wavepacket"], "--x0", "-.5e1"),
    (["wavepacket"], "--chirp", "-inf"),
    (["wavepacket"], "--p0", "-NaN"),
    (["causality", "--M", "64", "--separations", "1"], "--dts", "-1e-3,0"),
])
def test_a_negative_value_in_exponent_form_reads_as_the_flag_value(tmp_path, argv, flag, value):
    spaced, joined = run_steps(call_in_process, [[*argv, flag, value], [*argv, f"{flag}={value}"]], tmp_path)
    assert spaced == joined
    assert spaced[0] in (0, 2) and "expected one argument" not in spaced[2]


def test_a_flag_is_still_no_value(tmp_path):
    rc, out, err = call_in_process(["wavepacket", "--out-dir", str(tmp_path), "--x0", "--chirp", "1"])
    assert rc == 2
    assert err.endswith("error: argument --x0: expected one argument\n")


ONE_MESSAGE_CASES = PARAMETER_CASES + [
    pytest.param("causality", "dts", "abc", id="causality-dts-abc"),
    pytest.param("fock-check", "modes", "x", id="fock-check-modes-x"),
    pytest.param("wavepacket", "times", "0:1:0", id="wavepacket-times-0:1:0"),
]


@pytest.mark.parametrize("scenario, name, value", ONE_MESSAGE_CASES)
def test_a_bad_value_gives_one_message_by_flag_or_config_key(tmp_path, capsys, scenario, name, value):
    config = tmp_path / "run.ini"
    config.write_text(f"[{scenario}]\n{name} = {value}\n")
    assert run([scenario, "--out-dir", str(tmp_path / "out"), f"--{name.replace('_', '-')}={value}"]) == 2
    by_flag = capsys.readouterr()
    assert run([scenario, "--out-dir", str(tmp_path / "out"), "--config", str(config)]) == 2
    assert capsys.readouterr() == by_flag
    assert by_flag.err.startswith(f"error: {name}") and by_flag.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["causality", "--dts", "1"], "error: --dts and --separations must be given together\n"),
    (["wick"], "error: wick needs --expr or --file\n"),
    (["wavepacket", "--times", "1:2"], "error: times: times must be start:stop:step, got '1:2'\n"),
    (["wick", "--expr", "bose: a(x1)", "--file", "wick.txt"], "error: wick takes --expr or --file, not both\n"),
])
def test_incomplete_arguments_exit_2(tmp_path, argv, message):
    rc, out, err = call_in_process([*argv, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert err.endswith(message), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, partner", [("dts", "separations"), ("separations", "dts")])
def test_causality_lists_are_bounded(tmp_path, capsys, name, partner):
    # each list is bounded before the product of the two is built, by flag and by config key alike
    config = tmp_path / "run.ini"
    at_bound = ",".join(str(0.01 * k) for k in range(MAX_SWEEP_VALUES))
    over = at_bound + ",9"
    message = f"error: {name} must hold at most {MAX_SWEEP_VALUES} values, got {MAX_SWEEP_VALUES + 1}\n"
    for partner_flags, partner_entry in (([], ""), ([f"--{partner}=1"], f"{partner} = 1\n")):  # alone or not
        flags = ["causality", "--out-dir", str(tmp_path / "out"), "--M", "64", f"--{name}={over}", *partner_flags]
        assert run(flags) == 2
        assert capsys.readouterr().err == message
        config.write_text(f"[causality]\n{name} = {over}\n{partner_entry}")
        assert run(["causality", "--out-dir", str(tmp_path / "out"), "--M", "64", "--config", str(config)]) == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()
    assert run(["causality", "--out-dir", str(tmp_path / "out"), "--M", "64", f"--{name}={at_bound}", f"--{partner}=5"]) == 0
    assert len(read(tmp_path / "out" / "causality.csv").strip().splitlines()) == 1 + MAX_SWEEP_VALUES


def test_times_range_is_bounded(tmp_path, capsys):
    config = tmp_path / "run.ini"
    for text, reason in (
        ("0:1e9:1", "has more than 1000000 samples"),
        ("-1e308:1e308:1", "has more than 1000000 samples"),
        ("0:inf:1", "times must be finite"),
        ("0:1:0", "times step must be positive"),
    ):
        assert run(["wavepacket", "--out-dir", str(tmp_path), f"--times={text}"]) == 2
        flag_err = capsys.readouterr().err
        config.write_text(f"[wavepacket]\ntimes = {text}\n")
        assert run(["wavepacket", "--out-dir", str(tmp_path), "--config", str(config)]) == 2
        config_err = capsys.readouterr().err
        assert reason in config_err
        assert flag_err == config_err  # the flag gives the message the config file gives
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
    decoded = fock._digit_rows(np.arange(len(states)), cap + 1, modes)
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
                    [got] = fock.ladder_relation_residuals([space], rng, n_pairs)
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
        [residuals] = fock.ladder_relation_residuals([ModeSpace(modes, Statistics.FERMI)], np.random.default_rng(0), 200)
        assert residuals["exchange"] > 1e-12


@pytest.mark.parametrize("block", [1, 2, 7, 50])
def test_ladder_relation_sweep_in_blocks_equals_per_pair_oracle(block, monkeypatch):
    # block edges: more than one draw per sweep gives the same draws
    for stats, modes in ((Statistics.BOSE, 3), (Statistics.FERMI, 5)):
        monkeypatch.setattr(fock, "_BLOCK_ELEMENTS", block * (modes + 3))
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
        fock.ladder_relation_residuals([ModeSpace(62, stats, nmax=1)], rng, n_pairs)
        block = fock._BLOCK_ELEMENTS // (62 + 3)
        assert rng.sizes == [3 * block, 3 * block, 3 * (n_pairs - 2 * block)]


def test_fock_check_checks_every_space_before_the_first_draw(tmp_path, capsys):
    # at 63 modes and nmax 1 the boson space (one drawable state) indexes and
    # the fermion space (2**63 states) does not, so nothing may be drawn
    rng = RecordingGenerator(0)
    spaces = [ModeSpace(63, stats, nmax=1) for stats in (Statistics.BOSE, Statistics.FERMI)]
    with pytest.raises(ValueError, match="^modes = 63 with occupations 0..1 "):
        fock.ladder_relation_residuals(spaces, rng, 100_000)
    assert rng.sizes == []
    argv = ["fock-check", "--out-dir", str(tmp_path), "--modes", "63", "--nmax", "1", "--pairs", "100000"]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: modes = 63")
    assert not (tmp_path / "fock_check.csv").exists()


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


def test_runtime_loads_no_scipy_or_test_modules():
    # the package and its CLI run on numpy alone
    code = "import sys, fockfield, fockfield.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert "numpy" in loaded
    assert not loaded & {"scipy", "hypothesis", "pytest", "_pytest"}


def private_imports_from_siblings(path):
    """(module, name) of each ``from .module import _name`` in a source file."""
    tree = ast.parse(pathlib.Path(path).read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names if alias.name.startswith("_")]


def test_cli_imports_no_private_name_from_a_sibling_module():
    # the CLI runs on the library's public API alone
    assert private_imports_from_siblings(SRC / "fockfield" / "cli.py") == []


def test_dynamics_imports_no_private_name_from_field():
    # dynamics evolves in np.fft order on its own; field's transform keeps its layout to itself
    private = private_imports_from_siblings(SRC / "fockfield" / "dynamics.py")
    assert [name for module, name in private if module == "field"] == []


def imported_modules(path):
    """Top-level names of the modules a source file imports, relative imports left out."""
    tree = ast.parse(pathlib.Path(path).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_library_module_imports_gc():
    # switching the collector off acts on the whole process; library code cuts allocations instead
    modules = sorted((SRC / "fockfield").rglob("*.py"))
    assert modules
    assert [path.name for path in modules if "gc" in imported_modules(path)] == []


def test_import_loads_only_numpy_and_fockfield_beyond_the_standard_library_and_builds_no_parser():
    # guards the fresh-interpreter import time: a site may load packages of its
    # own at startup (certifi, _distutils_hack), so compare with a bare interpreter
    def loaded(code):
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    (bare,) = loaded("import sys; print(sorted(sys.modules))")
    modules, parsers = loaded("import sys, fockfield, fockfield.cli; print(sorted(sys.modules)); "
                              "print(fockfield.cli._parser.cache_info().currsize)")
    new = {m.split(".")[0] for m in set(ast.literal_eval(modules)) - set(ast.literal_eval(bare))}
    assert new - sys.stdlib_module_names == {"fockfield", "numpy"}
    assert parsers == "0"


def test_help_of_the_reused_parser_equals_a_fresh_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    for argv in [["--help"]] + [[scenario, "--help"] for scenario in SCENARIOS]:
        reused = call_in_process(argv)
        with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert reused == (exc.value.code, out.getvalue(), ""), argv
        assert reused[0] == 0 and reused[1].startswith("usage: fockfield")
