"""One rule for numeric arguments: every argument that fock._numbers converts.

The table lists each such argument with the dtype it is converted to and an
example value.  Every bad value must raise ValueError whose message starts
with the argument's name; every other way of writing the example's numbers
must give a result bit-equal to passing the float64 or complex128 array.
A guard over the package's source keeps casts of callers' arguments out of
everything but the helper.
"""

import ast
import dataclasses
import pathlib
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import fockfield
from fockfield.dynamics import ehrenfest_residuals, evolve, gaussian_packet, trajectory
from fockfield.field import (
    Dispersion,
    LatticeSpec,
    MomentumAmplitude,
    WaveAmplitude,
    coherent_state,
    commutator_sweep,
    default_spacelike_grid,
    pauli_jordan,
)
from fockfield.fock import FockVector, ModeSpace, Statistics, transformed_create, two_particle_symmetrized, vacuum
from fockfield.qinfo import (
    BipartiteState,
    DensityMatrix,
    MeasurementModel,
    born_distribution,
    conditional_state,
    decohere,
    entangled_pair,
    premeasure,
)

LAT = LatticeSpec(64, 1.0, 1.0)
LAT8 = LatticeSpec(8, 1.0, 1.0)
REL = LatticeSpec(64, 1.0, 1.0, Dispersion.RELATIVISTIC)
BOSE2 = ModeSpace(2, Statistics.BOSE, nmax=12)
PACKET = gaussian_packet(LAT, 0.0, 0.0, 3.0)
BELL = BipartiteState(np.eye(2) / np.sqrt(2))
E0, E1 = [1, 0], [0, 1]

# (function, argument name, dtype, example, call with the argument); examples hold integers, so that
# every numeric type can write them exactly
TABLE = [
    ("transformed_create", "coeffs", complex, [1, 0], lambda v: transformed_create(vacuum(BOSE2), v)),
    ("two_particle_symmetrized", "xi", complex, E0, lambda v: two_particle_symmetrized(v, E1, BOSE2)),
    ("two_particle_symmetrized", "eta", complex, E1, lambda v: two_particle_symmetrized(E0, v, BOSE2)),
    ("WaveAmplitude", "values", complex, list(range(8)), lambda v: WaveAmplitude(v, LAT8)),
    ("MomentumAmplitude", "values", complex, list(range(8)), lambda v: MomentumAmplitude(v, LAT8)),
    ("coherent_state", "mode_amplitudes", complex, [1, 0], lambda v: coherent_state(v, BOSE2)),
    ("pauli_jordan", "dt", float, 1, lambda v: pauli_jordan(REL, v, 3.0)),
    ("pauli_jordan", "dx", float, 3, lambda v: pauli_jordan(REL, 1.0, v)),
    ("commutator_sweep", "pairs", float, [[0, 3], [1, 5]], lambda v: commutator_sweep(REL, v)),
    ("default_spacelike_grid", "cone_margin", float, 3, lambda v: default_spacelike_grid(REL, v)),
    ("gaussian_packet", "x0", float, 1, lambda v: gaussian_packet(LAT, v, 0.0, 3.0)),
    ("gaussian_packet", "p0", float, 1, lambda v: gaussian_packet(LAT, 0.0, v, 3.0)),
    ("gaussian_packet", "sigma0", float, 3, lambda v: gaussian_packet(LAT, 0.0, 0.0, v)),
    ("gaussian_packet", "chirp", float, 1, lambda v: gaussian_packet(LAT, 0.0, 0.0, 3.0, v)),
    ("evolve", "t", float, 1, lambda v: evolve(PACKET, v)),
    ("trajectory", "times", float, [0, 1, 2], lambda v: trajectory(PACKET, v)),
    ("ehrenfest_residuals", "times", float, [0, 1, 2], lambda v: ehrenfest_residuals(PACKET, v)),
    ("BipartiteState", "amplitudes", complex, [[1, 0], [0, 0]], lambda v: BipartiteState(v)),
    ("DensityMatrix", "rho", complex, [[1, 0], [0, 0]], lambda v: DensityMatrix(v)),
    ("MeasurementModel", "amplitudes", complex, E0, lambda v: premeasure(MeasurementModel((0, 1), v, 1.0))),
    ("born_distribution", "amplitudes", complex, E0, lambda v: born_distribution(v)),
    ("entangled_pair", "phi1", complex, E0, lambda v: entangled_pair(v, E1, E0, E1)),
    ("entangled_pair", "phi2", complex, E1, lambda v: entangled_pair(E0, v, E0, E1)),
    ("entangled_pair", "psi1", complex, E0, lambda v: entangled_pair(E0, E1, v, E1)),
    ("entangled_pair", "psi2", complex, E1, lambda v: entangled_pair(E0, E1, E0, v)),
    ("conditional_state", "outcome", complex, E0, lambda v: conditional_state(BELL, v)),
    ("decohere", "pointer_basis", complex, [[1, 0], [0, 1]], lambda v: decohere(BELL, v)),
]
ARGUMENTS = [pytest.param(*row[1:], id=f"{row[0]}-{row[1]}") for row in TABLE]


def _leaves(value, convert):
    """value with every number converted, keeping its nesting in lists."""
    return [_leaves(v, convert) for v in value] if isinstance(value, list) else convert(value)


def _with_first(value, entry):
    """value with its first number replaced by entry (entry itself for a scalar)."""
    if not isinstance(value, list):
        return entry
    return [_with_first(value[0], entry), *value[1:]]


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _bad_values(dtype, example):
    bad = {text: _with_first(example, value) for text, value in
           [("numeric-text", "1"), ("text", "a"), ("none", None), ("bool", True), ("decimal", Decimal(1))]}
    bad["numpy-bool"] = np.asarray(example, dtype=bool)
    bad["ragged"] = [[1], [0, 1]]
    bad["wrong-shape"] = [example]
    if dtype is float:
        bad["complex"] = _with_first(example, 1j)
        bad["complex-array"] = np.asarray(example, dtype=complex)
    return bad


def _spellings(dtype, example):
    """Other ways to write the example's numbers."""
    exact = np.asarray(example, dtype=dtype)
    out = {
        "ints": example,
        "floats": _leaves(example, float),
        "tuple": _tuples(_leaves(example, float)),
        "fractions": _leaves(example, Fraction),
        "numpy-ints": np.asarray(example, dtype=np.int64),
        "numpy-int32": np.asarray(example, dtype=np.int32),
        "numpy-floats": np.asarray(example, dtype=np.float32),
        "numpy-scalars": _leaves(example, np.float64),
        "object-array": np.asarray(_leaves(example, Fraction) if exact.ndim else Fraction(example), dtype=object),
    }
    if dtype is complex:
        out["complex"] = _leaves(example, complex)
        out["numpy-complex"] = np.asarray(example, dtype=np.complex64)
    if not exact.ndim:
        out["numpy-int-scalar"] = np.int64(example)
        out["numpy-float32-scalar"] = np.float32(example)
        out["0-d-array"] = np.array(example)
    return exact, out


def _bits(value):
    """value's content, with every float down to its bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, FockVector):
        return tuple((key, _bits(a)) for key, a in value.amplitudes.items())
    if isinstance(value, DensityMatrix):
        return _bits(value.rho)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (float, complex, np.number)):
        return type(value).__name__, np.asarray(value).tobytes()
    return repr(value)


@pytest.mark.parametrize("name, dtype, example, call", ARGUMENTS)
def test_an_argument_that_is_not_numbers_of_its_shape_raises_naming_it(name, dtype, example, call):
    for kind, value in _bad_values(dtype, example).items():
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value).startswith(f"{name} must "), (kind, str(exc.value))


@pytest.mark.parametrize("name, dtype, example, call", ARGUMENTS)
def test_every_spelling_of_the_numbers_gives_the_bits_of_the_float_array(name, dtype, example, call):
    exact, spellings = _spellings(dtype, example)
    want = _bits(call(exact))
    for kind, value in spellings.items():
        assert _bits(call(value)) == want, kind


# ----------------------------------------------------------------------
# guard: no cast of a caller's argument outside the helper

CASTS = {"asarray", "array"}


def _argument_casts(source: str) -> list:
    """(function, line) of each np.asarray or np.array call with a dtype= whose first argument is a
    parameter of the function it sits in, or an attribute of one (a dataclass field read off self,
    say), outside fock._numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "_numbers":
            continue
        a = node.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p is not None}
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"
                    and call.func.attr in CASTS and call.args
                    and any(k.arg == "dtype" for k in call.keywords)):
                continue
            target = call.args[0]
            if isinstance(target, ast.Attribute):
                target = target.value
            if isinstance(target, ast.Name) and target.id in params:
                found.append((node.name, call.lineno))
    return found


SOURCES = sorted(pathlib.Path(fockfield.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_inline_cast_of_an_argument_outside_the_helper(path):
    assert _argument_casts(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_a_cast_put_back_into_transformed_create():
    source = (pathlib.Path(fockfield.__file__).parent / "fock.py").read_text(encoding="utf-8")
    line = 'coeffs = _numbers("coeffs", coeffs, (space.num_modes,), complex)'
    assert source.count(line) == 1
    found = _argument_casts(source.replace(line, "coeffs = np.asarray(coeffs, dtype=complex)"))
    assert [name for name, _ in found] == ["transformed_create"]
