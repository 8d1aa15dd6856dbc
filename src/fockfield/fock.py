"""Occupation-number representation of Fock space with ladder operators.

States live in the direct sum ℋ = ℋ⁰ ⊕ ℋ¹ ⊕ ℋ² ⊕ ... truncated to a
finite basis: each mode holds at most ``nmax`` bosons (default 8) or one
fermion.  A state is a sparse map from occupation tuples to complex
amplitudes; the empty map is the null element of the space, which is not
the same thing as the vacuum |0,0,...,0⟩.

Antiparticle modes are handled as a second species inside the same
ModeSpace, so the net particle number A†A − Ā†Ā is an ordinary
expectation value.

All operations are pure: they return new FockVector instances and never
mutate their arguments.  ``create`` and ``annihilate`` are one ladder
step (``_ladder``), n → n ± 1 in one slot, with one loop and one kernel.

A state stored as a dict is dict-born: ``amplitudes`` maps occupation
tuples to amplitudes and every operation walks it, which is fastest for
the few-component states of the CLI; it never carries arrays.  A state
that an array kernel builds is array-born: its stored form is an
occupation row matrix and a complex value array, and its ``amplitudes``
dict is built from them, in row order, with Python complex values, only
when something reads it.  The kernels run once the work reaches
``ARRAY_CUTOFF``: ``transformed_create`` (input components × nonzero
coefficients) adds the modes' contributions in one numpy round per mode,
in the loop's order, reading a dict-born input's keys into local rows;
the ladder step (components of an array-born input) keeps and scales the
rows the loop keeps, in ``_ladder_rows``; ``number_expectation``
(components of an array-born input) reduces the occupation rows and an
|amplitude|² vector cached on the state.  The dict built from a kernel's
result equals the loop's in keys, insertion order, amplitude bits and
types; the ``number_expectation`` kernel sums pairwise, so it agrees with
the loop to rounding.  Every state the CLI builds is below the cutoff.

``_ladder_rows`` also takes one slot per row, with the same float
operations, so a set of basis states can each take a ladder step in its
own mode in one pass; ``ladder_relation_residuals`` runs on it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from operator import index as _index

import numpy as np

NORM_TOL = 1e-8

# Work (components, times nonzero coefficients for transformed_create) from
# which the array kernels beat the dict loops.
ARRAY_CUTOFF = 256

# Rows per chunk when an array-born state's dict is built; bounds the
# short-lived lists of each chunk.  Building the dict in one piece
# instead raised the fock_states benchmark's peak RSS by about 12 MB
# (92.9 to 104.9 MB, Linux x86-64).
_DICT_CHUNK = 4096

# Elements per block of a (rows × columns) pass: 2**17 complex128 values is 2 MiB.
# ladder_relation_residuals and dynamics.trajectory block by it.
_BLOCK_ELEMENTS = 1 << 17


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


# Read on every ladder step: under CPython 3.11 a module global costs about
# 20 ns, the class attribute Statistics.FERMI about 150 ns.
_FERMI = Statistics.FERMI


def _integer(name: str, value) -> int:
    """value as an int: an integral value such as 2.0 or a numpy integer
    passes, anything else (2.5, nan, inf, a string, a bool) raises ValueError naming it."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value):
    """value itself if it is a real number (numbers.Real: int, float, Fraction and the numpy
    reals, but not a bool); anything else (a string, None, complex) raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _index_arg(name: str, value) -> int:
    """value as an index: an int, a numpy integer or a bool passes; anything
    else (1.0, None, a string) raises ValueError naming it."""
    try:
        return _index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _numbers(name: str, values, shape=(), dtype=float) -> np.ndarray:
    """values as a float64 (dtype float) or complex128 (dtype complex) array of the given shape,
    in which None leaves a length open.

    The rule is _real's: a number is a numbers.Real (numbers.Complex for dtype complex) that is not
    a bool, such as an int, a float, a Fraction or a numpy number.  A numpy array or scalar passes
    by its dtype kind (integer or float, or complex for dtype complex), with no loop over its
    entries; anything else is read as an array of objects and each entry is checked, because
    numpy's own read would take text, make None nan and a bool 1.  Text (numeric or not), None,
    bools, Decimal, an integer beyond the float range and rows of different lengths raise
    ValueError naming the argument; so does any other shape, with the needed and the actual shape.
    A float64 or complex128 array of the given shape comes back as it is, not copied.
    """
    try:
        if isinstance(values, (np.ndarray, np.generic)) and values.dtype.kind != "O":
            array = np.asarray(values)
            numeric = array.dtype.kind in ("iuf" if dtype is float else "iufc")
        else:
            array = np.asarray(values, dtype=object)
            number = numbers.Real if dtype is float else numbers.Complex
            numeric = all(isinstance(v, number) and not isinstance(v, bool) for v in array.flat)
        if numeric:
            array = array.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):  # rows numpy cannot hold, an int beyond the float range
        numeric = False
    if not numeric:
        raise ValueError(f"{name} must hold only {'real' if dtype is float else 'real or complex'} numbers")
    if array.shape != shape and (array.ndim != len(shape)
                                 or any(n not in (None, m) for n, m in zip(shape, array.shape))):
        needed = str(shape).replace("None", "n", 1).replace("None", "m")
        raise ValueError(f"{name} must have shape {needed}, got {array.shape}")
    return array


@dataclass(frozen=True)
class ModeSpace:
    """Finite mode register: M modes per species, 1 or 2 species.

    For bosons the per-mode occupation is capped at ``nmax``; for fermions
    it is 0 or 1 and ``nmax`` is ignored.  Slots are ordered by
    (species, mode) ascending; this ordering fixes the fermionic sign
    convention.
    """

    num_modes: int
    statistics: Statistics
    nmax: int = 8
    species_count: int = 1

    def __post_init__(self):
        for name in ("num_modes", "nmax", "species_count"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.num_modes < 1:
            raise ValueError("num_modes must be positive")
        if self.nmax < 1:
            raise ValueError("nmax must be positive")
        if self.species_count not in (1, 2):
            raise ValueError("species_count must be 1 or 2")

    @property
    def num_slots(self) -> int:
        return self.num_modes * self.species_count

    @property
    def occupation_cap(self) -> int:
        return 1 if self.statistics is _FERMI else self.nmax

    def slot(self, mode: int, species: int = 0) -> int:
        try:  # a float such as 1.0 would pass the range checks and fail as a tuple index
            mode, species = _index(mode), _index(species)
        except TypeError:
            mode, species = _index_arg("mode", mode), _index_arg("species", species)
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} out of range [0, {self.num_modes})")
        if not 0 <= species < self.species_count:
            raise ValueError(f"species {species} out of range [0, {self.species_count})")
        return species * self.num_modes + mode

    def basis_states(self):
        """All occupation tuples, in itertools.product order."""
        return itertools.product(range(self.occupation_cap + 1), repeat=self.num_slots)


@dataclass
class FockVector:
    """Sparse Fock-space vector: occupation tuple → complex amplitude.

    The empty map is the null element.  A dict-born state is constructed
    with its ``amplitudes`` and keeps ``_rows`` and ``_values`` None.  An
    array-born state (made by ``_array_state``) stores ``_rows``, one
    occupation row per component, and ``_values``, their complex128
    amplitudes; its ``amplitudes`` dict, with Python complex values, is
    built on the first read (a ``functools.cached_property`` set on the
    class), after which it is an ordinary instance attribute.  Treat
    instances as immutable: the dict, the norm and an array-born state's
    |amplitude|² vector ``_weights`` are cached on the instance, and
    nothing invalidates them.
    """

    mode_space: ModeSpace
    amplitudes: dict = field(default_factory=dict)
    # caches, and the stored form of an array-born state: class-level None
    # until set on the instance
    _norm = None
    _weights = None
    _rows = None
    _values = None

    @property
    def norm(self) -> float:
        if self._norm is None:
            try:
                self._norm = float(np.sqrt(sum(abs(a) ** 2 for a in _amplitude_values(self))))
            except OverflowError:  # Python's abs or ** past the largest float, where numpy gives inf
                self._norm = math.inf
        return self._norm

    @property
    def is_null(self) -> bool:
        return len(self) == 0

    def __len__(self) -> int:
        """Number of components, without building an array-born state's dict;
        so the null element is falsy."""
        return len(self.amplitudes) if self._values is None else len(self._values)

    def amplitude(self, occupations) -> complex:
        return self.amplitudes.get(tuple(occupations), 0.0 + 0.0j)

    def normalized(self) -> "FockVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the null element")
        if not n < math.inf:
            raise ValueError(f"cannot normalize a state of norm {n!r}")
        return FockVector(self.mode_space, {k: v / n for k, v in self.amplitudes.items()})

    def sector_weights(self) -> dict:
        """Total-particle-number sector → squared amplitude weight."""
        out: dict = {}
        for occ, amp in self.amplitudes.items():
            n = sum(occ)
            out[n] = out.get(n, 0.0) + abs(amp) ** 2
        return out

    def __add__(self, other: "FockVector") -> "FockVector":
        _check_same_space(self, other)
        amps = dict(self.amplitudes)
        for occ, a in other.amplitudes.items():
            s = amps.get(occ, 0.0) + a
            if s == 0.0:
                amps.pop(occ, None)
            else:
                amps[occ] = s
        return FockVector(self.mode_space, amps)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FockVector":
        # an operator's NotImplemented makes Python raise TypeError for '1' * v, None * v and
        # True * v; numbers.Complex holds int, float, complex, Fraction and the numpy numbers
        if isinstance(scalar, bool) or not isinstance(scalar, numbers.Complex):
            return NotImplemented
        if scalar == 0.0:
            return FockVector(self.mode_space, {})
        # math, not cmath: importing cmath raised the fock_states benchmark's peak RSS by about
        # 0.5 MB (92.8 to 93.3 MB, Linux x86-64, CPython 3.11)
        if not (math.isfinite(scalar.real) and math.isfinite(scalar.imag)):
            raise ValueError(f"scalar must be finite, got {scalar!r}")
        return FockVector(self.mode_space, {k: scalar * v for k, v in self.amplitudes.items()})


# An array-born state's amplitudes, built from its arrays on the first read.
# A non-data descriptor: the dict, like a dict-born state's own, sits in the
# instance __dict__, which lookup reads first; that costs a dict-born read
# about 30 ns (CPython 3.11).  A __getattr__ slowed every attribute read, and
# numpy's __array__ probes of a FockVector operand (a small transformed_create
# took twice as long); a property would make each read a call, and a traced
# span.  Set after the dataclass decorator, which would take a class attribute
# for the field's default, so __set_name__ is called by hand.
FockVector.amplitudes = functools.cached_property(lambda v: _amplitude_dict(v._rows, v._values))
FockVector.amplitudes.__set_name__(FockVector, "amplitudes")


def _array_state(space: ModeSpace, rows: np.ndarray, values: np.ndarray) -> FockVector:
    """An array-born state: occupation rows and their complex128 amplitudes."""
    v = object.__new__(FockVector)
    v.mode_space = space
    v._rows, v._values = rows, values
    return v


def _amplitude_dict(rows: np.ndarray, values: np.ndarray) -> dict:
    """{occupation tuple: Python complex amplitude}, in row order, built _DICT_CHUNK rows at a time."""
    amplitudes: dict = {}
    for lo in range(0, len(rows), _DICT_CHUNK):
        hi = lo + _DICT_CHUNK
        amplitudes.update(zip(zip(*rows[lo:hi].T.tolist()), values[lo:hi].tolist()))
    return amplitudes


def _amplitude_values(v: FockVector):
    """The amplitudes in order, each of the type the dict holds."""
    return v.amplitudes.values() if v._values is None else v._values.tolist()


def _check_same_space(u: FockVector, v: FockVector):
    if u.mode_space != v.mode_space:
        raise ValueError("FockVectors live in different mode spaces")


def _check_normalized(v: FockVector, what: str):
    if not abs(v.norm - 1.0) <= NORM_TOL:  # written so that a nan norm fails
        raise ValueError(f"{what} must be normalized (norm = {v.norm!r})")


def vacuum(mode_space: ModeSpace) -> FockVector:
    """The normalized zero-particle state |0,...,0⟩."""
    return FockVector(mode_space, {(0,) * mode_space.num_slots: 1.0 + 0.0j})


def basis_state(mode_space: ModeSpace, occupations) -> FockVector:
    given = tuple(occupations)
    try:
        occ = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        occ = None
    if occ != given:  # also a value such as 1.5, which int() would truncate
        raise ValueError(f"occupations must be integers, got {given!r}")
    if len(occ) != mode_space.num_slots:
        raise ValueError("occupation tuple has wrong length")
    cap = mode_space.occupation_cap
    if min(occ) < 0 or max(occ) > cap:
        raise ValueError(f"occupations must lie in [0, {cap}]")
    return FockVector(mode_space, {occ: 1.0 + 0.0j})


def _jw_sign(occ, slot) -> float:
    return -1.0 if sum(occ[:slot]) % 2 else 1.0


def create(v: FockVector, mode: int, species: int = 0) -> FockVector:
    """Apply the creation operator A†(mode, species).

    Bosons pick up the usual √(n+1) factor; components that would exceed
    nmax are dropped (finite truncation of the infinite tower).  Fermions
    carry the Jordan-Wigner sign (−1)^(occupied slots below the target),
    and doubly-created components vanish.  Producing the null element is
    a legitimate outcome, not an error.
    """
    return _ladder(v, v.mode_space.slot(mode, species), 1)


def annihilate(v: FockVector, mode: int, species: int = 0) -> FockVector:
    """Apply the annihilation operator A(mode, species), the adjoint of create.

    ⟨u, create(v)⟩ = ⟨annihilate(u), v⟩ holds exactly on the truncated
    space.  Annihilating the vacuum yields the null element.
    """
    return _ladder(v, v.mode_space.slot(mode, species), -1)


def _ladder(v: FockVector, slot: int, step: int) -> FockVector:
    """create (step 1) or annihilate (step -1) at one slot: a component moves
    to n' = n + step, kept when 0 ≤ n' ≤ cap, times the Jordan-Wigner sign
    (fermions) or √max(n, n') (bosons)."""
    space = v.mode_space
    if v._values is not None and len(v._values) >= ARRAY_CUTOFF:
        out = _ladder_kernel(v, slot, step)
        if out is not None:
            return out
    fermi = space.statistics is _FERMI
    cap = 1 if fermi else space.nmax
    out: dict = {}
    for occ, amp in v.amplitudes.items():
        n = occ[slot] + step
        if not 0 <= n <= cap:
            continue
        if fermi:
            new_amp = amp * _jw_sign(occ, slot)
        else:
            new_amp = amp * math.sqrt(n + (step < 0))  # the bits of np.sqrt, without its call cost
        # occupations map one to one, so each key is new; adding 0.0 turns a
        # -0.0 part into +0.0 as a sum does
        s = 0.0 + new_amp
        if s != 0.0:
            out[occ[:slot] + (n,) + occ[slot + 1:]] = s
    return FockVector(space, out)


def _ladder_kernel(v: FockVector, slot: int, step: int):
    """create (step 1) or annihilate (step -1) on an array-born state, as the
    loop: ``_ladder_rows`` on its rows, and, as there, an amplitude that
    comes out exactly zero is dropped.  Returns None, for the loop to run,
    when an amplitude is not finite (where inf·0 cross terms matter).
    """
    values = v._values
    if not np.all(np.isfinite(values)):
        return None
    _, rows, values = _ladder_rows(v.mode_space, v._rows, values, slot, step)
    nonzero = values != 0.0
    if not np.all(nonzero):
        rows, values = rows[nonzero], values[nonzero]
    return _array_state(v.mode_space, rows, values)


def _ladder_rows(space: ModeSpace, rows: np.ndarray, values: np.ndarray, slot, step: int):
    """One ladder step on occupation rows and their finite complex amplitudes.

    ``slot`` is one slot for every row or an array of one slot per row.
    Returns (kept, rows, values): the indices of the rows the loop keeps
    (0 ≤ n + step ≤ cap in their slot), in order; those rows with step
    added in the slot; and their amplitudes with both parts scaled by
    s = √(n+1), √n or the Jordan-Wigner sign.  For a finite amplitude that
    is the loop's ``0.0 + amp * s``: the complex product's cross terms are
    zeros, and adding 0.0 turns a -0.0 part into +0.0.  Exact zeros are kept.
    """
    # one slot for all rows takes a column; a slot per row, one entry per row
    per_row = isinstance(slot, np.ndarray)
    at = np.arange(len(rows)) if per_row else slice(None)
    n = rows[at, slot]
    kept = np.flatnonzero(n < space.occupation_cap if step > 0 else n > 0)
    if per_row:
        at, slot = at[:len(kept)], slot[kept]
    rows = rows[kept]
    rows[at, slot] += step
    if space.statistics is _FERMI:
        s = _jw_signs(rows, slot)
    else:
        s = np.sqrt(n[kept] + (1.0 if step > 0 else 0.0))
    out = np.empty(len(kept), complex)
    with np.errstate(over="ignore"):  # the loop's Python complex overflows to inf silently
        out.real = values.real[kept] * s + 0.0
        out.imag = values.imag[kept] * s + 0.0
    return kept, rows, out


def _jw_signs(rows: np.ndarray, slot) -> np.ndarray:
    """Each row's Jordan-Wigner sign (−1)^(occupied slots below its slot),
    ``slot`` being one slot for every row or one per row."""
    if isinstance(slot, np.ndarray):
        below = rows * (np.arange(rows.shape[1]) < slot[:, None])
    else:
        below = rows[:, :slot]
    return 1.0 - 2.0 * (np.sum(below, axis=1) % 2)


def ladder_relation_residuals(spaces, rng, n_pairs: int) -> list:
    """Max deviation of the three exchange relations on random basis pairs,
    one dict per space, the spaces drawing from rng in turn.

    A sampled pair is a basis state, drawn uniformly from the occupations
    0..cap per mode by decoding one drawn index, and two modes (a, b), so
    nothing is enumerated.  Every space's index must fit in int64, or a
    ValueError is raised before the first draw.  Each block of pairs takes
    one draw whose bounds repeat (radix**modes, modes, modes): numpy draws
    each element with its own bounded draw, so the values and the generator
    state afterwards equal one scalar draw per number.  The relations then
    act on the block's decoded rows in one pass of the ladder step
    ``_ladder_rows``, each row with its own a and b (see ``_relation_values``).
    """
    radixes = []
    for space in spaces:
        # a boson is drawn below nmax, so that it can still be raised
        cap = space.occupation_cap - (1 if space.statistics is Statistics.BOSE else 0)
        modes = space.num_modes
        # modes >= 64 never fits (the fermion pass needs 2**modes) and would make the power huge
        if modes >= 64 or (cap + 1) ** modes > np.iinfo(np.int64).max:
            raise ValueError(f"modes = {modes} with occupations 0..{cap} has too many basis states to index")
        radixes.append(cap + 1)
    results = []
    for space, radix in zip(spaces, radixes):
        bose = space.statistics is Statistics.BOSE
        sign = -1.0 if bose else 1.0
        modes = space.num_modes
        worst = {"exchange": 0.0, "create-create": 0.0, "annihilate-annihilate": 0.0}
        bounds = np.array([radix ** modes, modes, modes], dtype=np.int64)
        block = max(1, _BLOCK_ELEMENTS // (modes + 3))  # pairs: 3 draws and `modes` digits each
        for start in range(0, n_pairs, block):
            draws = rng.integers(0, np.tile(bounds, min(block, n_pairs - start))).reshape(-1, 3)
            rows, a, b = _digit_rows(draws[:, 0], radix, modes), draws[:, 1], draws[:, 2]
            w = _relation_values(space, rows, a, b, -1, 1, sign)
            w[a == b] -= 1.0
            residuals = {"exchange": w}
            if bose:  # two creations could cross the truncation
                low = rows.max(axis=1) <= space.nmax - 2
                rows, a, b = rows[low], a[low], b[low]
            residuals["create-create"] = _relation_values(space, rows, a, b, 1, 1, sign)
            residuals["annihilate-annihilate"] = _relation_values(space, rows, a, b, -1, -1, sign)
            for relation, w in residuals.items():
                # one pair's residual is FockVector.norm of its one-component
                # vector, math.sqrt(abs(w) ** 2), which grows with abs(w)
                largest = float(np.max(np.abs(w), initial=0.0))
                worst[relation] = max(worst[relation], math.sqrt(largest ** 2))
        results.append(worst)
    return results


def _relation_values(space, rows, a, b, step_a: int, step_b: int, sign: float) -> np.ndarray:
    """Per row i, X Y s + sign · Y X s on the basis state s = rows[i], with
    X the ladder step step_a in mode a[i] and Y step_b in mode b[i].

    Both terms land on the same basis state, so each is one value per row;
    a term that leaves the truncation is 0.  The value is the real part of
    the dict loop's amplitude: ``_ladder_rows`` scales as the loop does, a
    basis state's amplitude keeps an imaginary part of 0, and the sum takes
    the float operations of ``FockVector.__add__``.
    """
    w = np.zeros(len(rows))
    ones = np.ones(len(rows), complex)
    x, y = (a, step_a), (b, step_b)
    for (first, step1), (second, step2), scale in ((y, x, 1.0), (x, y, sign)):
        kept, moved, values = _ladder_rows(space, rows, ones, first, step1)
        again, _, values = _ladder_rows(space, moved, values, second[kept], step2)
        w[kept[again]] += scale * values.real
    return w


def _digit_rows(indices: np.ndarray, radix: int, modes: int) -> np.ndarray:
    """Row i is entry indices[i] of itertools.product(range(radix),
    repeat=modes): its base-``radix`` digits, most significant first."""
    powers = np.array([radix ** (modes - 1 - j) for j in range(modes)], dtype=np.int64)
    return indices[:, None] // powers % radix


def transformed_create(v: FockVector, coeffs, species: int = 0) -> FockVector:
    """Creation operator in a rotated single-particle basis.

    B† = Σ_α c_α A†_α with c_α the overlap of the old basis vector α with
    the new one.  All-zero coefficients are allowed and produce the null
    element; a coefficient that is not finite raises ValueError.
    """
    space = v.mode_space
    coeffs = _numbers("coeffs", coeffs, (space.num_modes,), complex)
    if not np.isfinite(coeffs).all():
        raise ValueError(f"coeffs must be finite, got {coeffs.tolist()!r}")
    base_slot = space.slot(0, species)
    modes = [mode for mode, c in enumerate(coeffs) if c != 0.0]
    if len(v) * len(modes) >= ARRAY_CUTOFF:
        out = _transformed_create_kernel(v, coeffs, modes, base_slot)
        if out is not None:
            return out
    out = FockVector(space, {})
    for mode in modes:
        out = out + coeffs[mode] * _ladder(v, base_slot + mode, 1)
    return out


def _occupation_dtype(cap: int):
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if cap <= np.iinfo(dtype).max:
            return dtype
    return None


def _occupation_matrix(v: FockVector):
    """Occupation rows of a dict-born state's keys, in amplitudes order.

    None when a key is not a tuple of num_slots integers in [0, cap]
    (possible only for a hand-built vector); callers then use the dict
    loop.  The keys are read with numpy's own dtype first, because a cast
    to the occupation dtype would truncate an entry such as 1.5 silently.
    """
    space = v.mode_space
    cap = space.occupation_cap
    dtype = _occupation_dtype(cap)
    if dtype is None:
        return None
    try:
        occ = np.array(list(v.amplitudes))
    except ValueError:  # keys of different lengths
        return None
    if occ.dtype.kind != "i" or occ.shape != (len(v.amplitudes), space.num_slots):
        return None
    if occ.min() < 0 or occ.max() > cap:
        return None
    return occ.astype(dtype)


def _pack(occ: np.ndarray, bits: int) -> np.ndarray:
    """Occupation rows as uint64 words, ``bits`` bits per slot; word-major."""
    per_word = 64 // bits
    num_slots = occ.shape[1]
    words = np.zeros((-(-num_slots // per_word), len(occ)), dtype=np.uint64)
    for slot in range(num_slots):
        words[slot // per_word] |= occ[:, slot].astype(np.uint64) << np.uint64(bits * (slot % per_word))
    return words


def _transformed_create_kernel(v: FockVector, coeffs, modes, base_slot: int):
    """transformed_create as the loop ``out = out + c * create(v, mode)``,
    one numpy round per mode.

    Reproduces the loop exactly:
    - each contribution is c * (amp * s), with s = sqrt(n+1) or the
      Jordan-Wigner sign, in the float operations of the scalar complex
      product;
    - round j adds mode j's contributions to their keys' running sums,
      which start from +0.0; such a sum never holds -0.0, so neither the
      sign of a zero part of a contribution nor the reset after an exact
      cancellation needs handling;
    - a key whose running sum is exactly zero is dropped, and it is
      re-inserted by its next contribution, so keys come out ordered by
      the contribution that last inserted them.

    The loop's amplitudes stay Python complex when v's are, because numpy
    hands the coefficient to FockVector.__rmul__ as a Python complex; the
    kernel's array-born result reads back the same type.  A dict-born v's
    keys are read into local rows, and v is left as it was.  Returns None,
    for the loop to run, when a dict-born v holds an amplitude that is not
    a Python complex or keys that have no occupation matrix, or when an
    amplitude is not finite (where inf·0 terms matter).
    """
    space = v.mode_space
    if v._values is None:
        if set(map(type, v.amplitudes.values())) != {complex}:
            return None
        occ = _occupation_matrix(v)
        if occ is None:
            return None
        amps = np.fromiter(v.amplitudes.values(), dtype=complex, count=len(occ))
    else:
        occ, amps = v._rows, v._values
    if not np.all(np.isfinite(amps)):
        return None
    cap = space.occupation_cap
    bits = cap.bit_length()
    per_word = 64 // bits
    fermi = space.statistics is _FERMI

    # Contributions in the loop's order: mode-major, then v's order.  Each
    # is (source row, mode); its key is the source's packed row plus one in
    # the mode's slot.  The loop skips zero amplitudes; here they add ±0.0,
    # which changes no sum.
    src = [np.flatnonzero(occ[:, base_slot + mode] < cap).astype(np.int32) for mode in modes]
    bounds = np.cumsum([0] + [len(rows) for rows in src])
    total = int(bounds[-1])
    if total == 0:
        return FockVector(space, {})
    src = np.concatenate(src)
    mode_slots = base_slot + np.asarray(modes)

    # Number the distinct keys, key_of[i] being contribution i's; equal keys
    # are adjacent after the sort.
    base = _pack(occ, bits)
    words = base[:, src]
    for j, slot in enumerate(mode_slots):
        words[slot // per_word, bounds[j]:bounds[j + 1]] += np.uint64(1 << bits * (slot % per_word))
    order = np.lexsort(words)
    new_key = np.zeros(total, bool)
    new_key[0] = True
    ranked = np.empty(total, np.uint64)
    for word in words:
        np.take(word, order, out=ranked)
        new_key[1:] |= ranked[1:] != ranked[:-1]
    del base, words, ranked
    ranks = np.cumsum(new_key, dtype=np.intp)
    ranks -= 1
    key_of = np.empty(total, np.intp)
    key_of[order] = ranks
    num_keys = int(ranks[-1]) + 1
    del order, new_key, ranks

    acc_re = np.zeros(num_keys)
    acc_im = np.zeros(num_keys)
    present = np.zeros(num_keys, bool)
    inserted_by = np.empty(num_keys, np.intp)
    if fermi:
        # occupied slots up to each slot; a raisable fermion slot is empty,
        # so there this counts the slots below it
        parity = np.cumsum(occ, axis=1) % 2
    for j, mode in enumerate(modes):
        lo, hi = bounds[j], bounds[j + 1]
        rows, slot = src[lo:hi], mode_slots[j]
        if fermi:
            s = 1.0 - 2.0 * parity[rows, slot]
        else:
            s = np.sqrt(occ[rows, slot] + 1.0)
        c_re, c_im = coeffs[mode].real, coeffs[mode].imag
        # v's keys are distinct and one more quantum in a fixed slot keeps
        # them so, hence ids has no repeats and the fancy-index update is safe
        ids = key_of[lo:hi]
        # the loop's Python complex overflows to inf, and inf - inf gives nan, silently
        with np.errstate(over="ignore", invalid="ignore"):
            u_re = amps.real[rows] * s
            u_im = amps.imag[rows] * s
            re = acc_re[ids] + (c_re * u_re - c_im * u_im)
            im = acc_im[ids] + (c_re * u_im + c_im * u_re)
        zero = (re == 0.0) & (im == 0.0)
        fresh = ~present[ids] & ~zero
        inserted_by[ids[fresh]] = lo + np.flatnonzero(fresh)
        acc_re[ids], acc_im[ids], present[ids] = re, im, ~zero
    del key_of

    # Keys come out in the order of the contribution that inserted them.
    kept = np.flatnonzero(present)
    kept = kept[np.argsort(inserted_by[kept])]
    idx = inserted_by[kept]
    values = np.empty(len(idx), complex)
    values.real, values.imag = acc_re[kept], acc_im[kept]
    del acc_re, acc_im, present, inserted_by, kept
    rows = occ[src[idx]]
    rows[np.arange(len(rows)), mode_slots[np.searchsorted(bounds, idx, side="right") - 1]] += 1
    return _array_state(space, rows, values)


def inner(u: FockVector, v: FockVector) -> complex:
    """⟨u, v⟩, conjugate-linear in the first argument."""
    _check_same_space(u, v)
    a, b = u.amplitudes, v.amplitudes
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    acc = 0.0 + 0.0j
    for occ in small:
        if occ in big:
            acc += np.conj(a[occ]) * b[occ]
    return complex(acc)


def number_expectation(v: FockVector, mode=None, species=None) -> float:
    """Expectation of a number operator on a normalized state.

    mode given        → ⟨A†_mode A_mode⟩ for that (mode, species).
    mode None         → total over all modes; with two species and species
                        None this is the net number ⟨A†A − Ā†Ā⟩ (particles
                        minus antiparticles).
    """
    _check_normalized(v, "state")
    space = v.mode_space
    if mode is None and species is None and space.species_count == 2:
        return number_expectation(v, species=0) - number_expectation(v, species=1)
    if mode is not None:
        lo = space.slot(mode, 0 if species is None else species)
        hi = lo + 1
    elif species is not None:
        lo = space.slot(0, species)
        hi = lo + space.num_modes
    else:
        lo, hi = 0, space.num_slots
    if v._values is not None and len(v._values) >= ARRAY_CUTOFF:
        if v._weights is None:
            amps = v._values
            v._weights = amps.real * amps.real + amps.imag * amps.imag
        occ = v._rows
        counts = occ[:, lo] if hi == lo + 1 else np.sum(occ[:, lo:hi], axis=1)
        return float(np.sum(v._weights * counts))
    if hi == lo + 1:
        return float(sum(abs(a) ** 2 * occ[lo] for occ, a in v.amplitudes.items()))
    return float(sum(abs(a) ** 2 * sum(occ[lo:hi]) for occ, a in v.amplitudes.items()))


def two_particle_symmetrized(xi, eta, mode_space: ModeSpace) -> FockVector:
    """Normalized A†(ξ)A†(η)|0⟩, the (anti)symmetrized two-particle state.

    Equal to the occupation-space image of ξ⊗η ± η⊗ξ.  For fermions with
    ξ ∥ η the result is the null element (Pauli exclusion); that is a
    distinguished outcome, not an error.
    """
    vectors = []
    for name, vec in (("xi", xi), ("eta", eta)):
        vec = _numbers(name, vec, (mode_space.num_modes,), complex)
        if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:
            raise ValueError(f"{name} must be normalized")
        vectors.append(vec)
    xi, eta = vectors
    w = transformed_create(transformed_create(vacuum(mode_space), eta), xi)
    n = w.norm
    if n < 1e-12:
        return FockVector(mode_space, {})
    return (1.0 / n) * w
