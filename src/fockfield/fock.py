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
mutate their arguments.

A state stored as a dict is dict-born: ``amplitudes`` maps occupation
tuples to amplitudes and every operation walks it, which is fastest for
the few-component states of the CLI.  A state that an array kernel
builds is array-born: its stored form is an occupation row matrix, a
value array and the amplitudes' type, and its ``amplitudes`` dict is
built from them, in row order, only when something reads it.  The
kernels run once the work reaches ``ARRAY_CUTOFF``:
``transformed_create`` (input components × nonzero coefficients) adds
the modes' contributions in one numpy round per mode, in the loop's
order; ``create`` and ``annihilate`` (components of an array-born input)
keep and scale the rows the loop keeps; ``number_expectation``
(components) reduces the occupation rows and an |amplitude|² vector
cached on the state.  A dict-born input of ``transformed_create`` or
``number_expectation`` gets its occupation rows from its keys, once, and
stays dict-born.  The dict built from a kernel's result equals the
loop's in keys, insertion order, amplitude bits and types; the
``number_expectation`` kernel sums pairwise, so it agrees with the loop
to rounding.  Every state the CLI builds is below the cutoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

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


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


# Read on every ladder step: under CPython 3.11 a module global costs about
# 20 ns, the class attribute Statistics.FERMI about 150 ns.
_FERMI = Statistics.FERMI


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
    with its ``amplitudes``.  An array-born state (made by ``_array_state``)
    stores ``_rows``, one occupation row per component, ``_values``, their
    amplitudes, and ``_kind``, the amplitudes' type (complex or
    np.complex128); its ``amplitudes`` dict is built on the first read
    (``_BuiltOnFirstRead``), after which it is an ordinary instance
    attribute.  ``_rows`` is the state's one occupation matrix: a kernel
    that reads a dict-born state fills it from the keys
    (``_occupation_matrix``) and leaves ``_values`` None.  Treat instances
    as immutable: the dict, the norm, ``_rows`` and the |amplitude|²
    vector ``_weights`` are cached on the instance, and nothing
    invalidates them.
    """

    mode_space: ModeSpace
    amplitudes: dict = field(default_factory=dict)
    _norm: object = field(default=None, init=False, compare=False, repr=False)
    _weights: object = field(default=None, init=False, compare=False, repr=False)
    # the stored form of an array-born state; class-level None on a dict-born
    # one, whose _rows a kernel may fill from its keys
    _rows = None
    _values = None
    _kind = None

    @property
    def norm(self) -> float:
        if self._norm is None:
            self._norm = float(np.sqrt(sum(abs(a) ** 2 for a in _amplitude_values(self))))
        return self._norm

    @property
    def is_null(self) -> bool:
        return _size(self) == 0

    def amplitude(self, occupations) -> complex:
        return self.amplitudes.get(tuple(occupations), 0.0 + 0.0j)

    def normalized(self) -> "FockVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the null element")
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
        if scalar == 0.0:
            return FockVector(self.mode_space, {})
        return FockVector(self.mode_space, {k: scalar * v for k, v in self.amplitudes.items()})


class _BuiltOnFirstRead:
    """The ``amplitudes`` of an array-born FockVector, built from its arrays on the first read.

    A non-data descriptor: the dict it stores, like a dict-born state's
    own, is an ordinary entry of the instance ``__dict__``, which attribute
    lookup reads before it comes here.  Under CPython 3.11 it adds about
    30 ns to each ``.amplitudes`` read of a dict-born state.  A
    ``__getattr__`` on FockVector slowed every attribute read of every
    state instead, and numpy's probes of a FockVector operand for
    ``__array__`` and the like (a small ``transformed_create`` took twice
    as long); a property would make each read a call, and a traced span.
    """

    def __get__(self, v, owner=None):
        if v is None:
            return self
        amplitudes = v.__dict__["amplitudes"] = _amplitude_dict(v._rows, v._values, v._kind)
        return amplitudes


# after the dataclass decorator, which would read a class attribute as the field's default
FockVector.amplitudes = _BuiltOnFirstRead()


def _array_state(space: ModeSpace, rows: np.ndarray, values: np.ndarray, kind) -> FockVector:
    """An array-born state: occupation rows, their amplitudes, the amplitudes' type."""
    v = object.__new__(FockVector)
    v.mode_space = space
    v._rows, v._values, v._kind = rows, values, kind
    return v


def _amplitude_dict(rows: np.ndarray, values: np.ndarray, kind) -> dict:
    """{occupation tuple: amplitude of type kind}, in row order, built _DICT_CHUNK rows at a time."""
    amplitudes: dict = {}
    for lo in range(0, len(rows), _DICT_CHUNK):
        hi = lo + _DICT_CHUNK
        chunk = values[lo:hi].tolist() if kind is complex else values[lo:hi]
        amplitudes.update(zip(zip(*rows[lo:hi].T.tolist()), chunk))
    return amplitudes


def _size(v: FockVector) -> int:
    """Number of components, without building an array-born state's dict."""
    return len(v.amplitudes) if v._values is None else len(v._values)


def _amplitude_values(v: FockVector):
    """The amplitudes in order, each of the type the dict holds."""
    if v._values is None:
        return v.amplitudes.values()
    return v._values.tolist() if v._kind is complex else v._values


def _value_array(v: FockVector) -> np.ndarray:
    """The amplitudes in order as a complex array."""
    if v._values is None:
        return np.fromiter(v.amplitudes.values(), dtype=complex, count=len(v.amplitudes))
    return v._values


def _check_same_space(u: FockVector, v: FockVector):
    if u.mode_space != v.mode_space:
        raise ValueError("FockVectors live in different mode spaces")


def _check_normalized(v: FockVector, what: str):
    if abs(v.norm - 1.0) > NORM_TOL:
        raise ValueError(f"{what} must be normalized (norm = {v.norm!r})")


def vacuum(mode_space: ModeSpace) -> FockVector:
    """The normalized zero-particle state |0,...,0⟩."""
    return FockVector(mode_space, {(0,) * mode_space.num_slots: 1.0 + 0.0j})


def basis_state(mode_space: ModeSpace, occupations) -> FockVector:
    given = tuple(occupations)
    try:
        occ = tuple(map(int, given))
    except (ValueError, OverflowError):  # nan, inf
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
    space = v.mode_space
    slot = space.slot(mode, species)
    if v._values is not None and len(v._values) >= ARRAY_CUTOFF:
        out = _ladder_kernel(v, slot, 1)
        if out is not None:
            return out
    fermi = space.statistics is _FERMI
    out: dict = {}
    for occ, amp in v.amplitudes.items():
        n = occ[slot]
        if fermi:
            if n == 1:
                continue
            new_amp = amp * _jw_sign(occ, slot)
        else:
            if n + 1 > space.nmax:
                continue
            new_amp = amp * math.sqrt(n + 1)  # the bits of np.sqrt, without its call cost
        # occupations map one to one, so each key is new; adding 0.0 turns a
        # -0.0 part into +0.0 as a sum does
        s = 0.0 + new_amp
        if s != 0.0:
            out[occ[:slot] + (n + 1,) + occ[slot + 1:]] = s
    return FockVector(space, out)


def annihilate(v: FockVector, mode: int, species: int = 0) -> FockVector:
    """Apply the annihilation operator A(mode, species), the adjoint of create.

    ⟨u, create(v)⟩ = ⟨annihilate(u), v⟩ holds exactly on the truncated
    space.  Annihilating the vacuum yields the null element.
    """
    space = v.mode_space
    slot = space.slot(mode, species)
    if v._values is not None and len(v._values) >= ARRAY_CUTOFF:
        out = _ladder_kernel(v, slot, -1)
        if out is not None:
            return out
    fermi = space.statistics is _FERMI
    out: dict = {}
    for occ, amp in v.amplitudes.items():
        n = occ[slot]
        if n == 0:
            continue
        if fermi:
            new_amp = amp * _jw_sign(occ, slot)
        else:
            new_amp = amp * math.sqrt(n)
        s = 0.0 + new_amp
        if s != 0.0:
            out[occ[:slot] + (n - 1,) + occ[slot + 1:]] = s
    return FockVector(space, out)


def _ladder_kernel(v: FockVector, slot: int, step: int):
    """create (step 1) or annihilate (step -1) on an array-born state, as the loop.

    Keeps the rows the loop keeps, in order, with step added in the slot,
    and scales both parts of each amplitude by s = √(n+1), √n or the
    Jordan-Wigner sign.  For a finite amplitude that is the loop's
    ``0.0 + amp * s``: the complex product's cross terms are zeros, and
    adding 0.0 turns a -0.0 part into +0.0.  As there, an amplitude that
    comes out exactly zero is dropped.  Returns None, for the loop to run,
    when an amplitude is not finite (where inf·0 cross terms matter).
    """
    values = v._values
    if not np.all(np.isfinite(values)):
        return None
    space, occ = v.mode_space, v._rows
    n = occ[:, slot]
    kept = np.flatnonzero(n < space.occupation_cap if step > 0 else n > 0)
    rows = occ[kept]
    rows[:, slot] += step
    if space.statistics is _FERMI:
        s = 1.0 - 2.0 * (np.sum(rows[:, :slot], axis=1) % 2)
    else:
        s = np.sqrt(n[kept] + (1.0 if step > 0 else 0.0))
    with np.errstate(over="ignore"):  # the loop's Python complex overflows to inf silently
        re = values.real[kept] * s + 0.0
        im = values.imag[kept] * s + 0.0
    nonzero = (re != 0.0) | (im != 0.0)
    if not np.all(nonzero):
        rows, re, im = rows[nonzero], re[nonzero], im[nonzero]
    out = np.empty(len(rows), complex)
    out.real, out.imag = re, im
    return _array_state(space, rows, out, v._kind)


def transformed_create(v: FockVector, coeffs, species: int = 0) -> FockVector:
    """Creation operator in a rotated single-particle basis.

    B† = Σ_α c_α A†_α with c_α the overlap of the old basis vector α with
    the new one.  All-zero coefficients are allowed and produce the null
    element.
    """
    space = v.mode_space
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (space.num_modes,):
        raise ValueError(f"expected {space.num_modes} coefficients, got {coeffs.shape}")
    modes = [mode for mode, c in enumerate(coeffs) if c != 0.0]
    if _size(v) * len(modes) >= ARRAY_CUTOFF:
        out = _transformed_create_kernel(v, coeffs, modes, space.slot(0, species))
        if out is not None:
            return out
    out = FockVector(space, {})
    for mode in modes:
        out = out + coeffs[mode] * create(v, mode, species)
    return out


def _occupation_dtype(cap: int):
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if cap <= np.iinfo(dtype).max:
            return dtype
    return None


def _occupation_matrix(v: FockVector):
    """Occupation rows of v in amplitudes order: v._rows, filled from a
    dict-born state's keys on the first call.

    None when a key is not a tuple of num_slots integers in [0, cap]
    (possible only for a hand-built vector); callers then use the dict
    loop.  The keys are read with numpy's own dtype first, because a cast
    to the occupation dtype would truncate an entry such as 1.5 silently.
    A dict-born state keeps ``_values`` None, so its ladder operators stay
    on the dict loops.
    """
    if v._rows is None:
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
        v._rows = occ.astype(dtype)
    return v._rows


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
    kernel's array-born result has the same type.  Returns None, for the
    loop to run, when v's keys have no occupation matrix, its amplitudes
    mix types, or an amplitude or coefficient is not finite (where inf·0
    terms matter).
    """
    space = v.mode_space
    occ = _occupation_matrix(v)
    kinds = {type(a) for a in v.amplitudes.values()} if v._values is None else {v._kind}
    if occ is None or (kinds != {complex} and kinds != {np.complex128}):
        return None
    amps = _value_array(v)
    if not (np.all(np.isfinite(amps)) and np.all(np.isfinite(coeffs))):
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
    return _array_state(space, rows, values, kinds.pop())


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
    if _size(v) >= ARRAY_CUTOFF:
        occ = _occupation_matrix(v)
        if occ is not None:
            if v._weights is None:
                amps = _value_array(v)
                v._weights = amps.real * amps.real + amps.imag * amps.imag
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
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    for name, vec in (("xi", xi), ("eta", eta)):
        if vec.shape != (mode_space.num_modes,):
            raise ValueError(f"{name} must have one coefficient per mode")
        if abs(np.linalg.norm(vec) - 1.0) > NORM_TOL:
            raise ValueError(f"{name} must be normalized")
    w = transformed_create(transformed_create(vacuum(mode_space), eta), xi)
    n = w.norm
    if n < 1e-12:
        return FockVector(mode_space, {})
    return (1.0 / n) * w
