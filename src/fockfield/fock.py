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

The ``amplitudes`` dict is the stored form of every state.  Most
operations walk it directly, which is fastest for the few-component
states of the CLI.  Two operations switch to numpy array kernels once the
work reaches ``ARRAY_CUTOFF``: ``transformed_create`` (input components ×
nonzero coefficients), which merges the contributions of all modes in one
pass, and ``number_expectation`` (components), which reads an occupation
matrix and an |amplitude|² vector cached on the state.  The
``transformed_create`` kernel returns the same dict as the loop, in keys,
insertion order and amplitude bits; the ``number_expectation`` kernel
sums pairwise, so it agrees with the loop to rounding.  Every state the
CLI builds is below the cutoff.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

NORM_TOL = 1e-8

# Work (components, times nonzero coefficients for transformed_create) from
# which the array kernels beat the dict loops.
ARRAY_CUTOFF = 256

# Rows per chunk when the transformed_create kernel turns its arrays into
# dict entries, and keys per block of its summing rounds; both bound the
# kernel's short-lived temporaries.
_DICT_CHUNK = 4096
_ROUND_BLOCK = 1 << 14


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


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
        return 1 if self.statistics is Statistics.FERMI else self.nmax

    @property
    def dimension(self) -> int:
        return (self.occupation_cap + 1) ** self.num_slots

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

    The empty map is the null element.  Treat instances as immutable: the
    norm and the kernels' occupation matrix and |amplitude|² vector are
    cached on the instance, and nothing invalidates them.
    """

    mode_space: ModeSpace
    amplitudes: dict = field(default_factory=dict)
    _norm: object = field(default=None, init=False, compare=False, repr=False)
    _occupations: object = field(default=None, init=False, compare=False, repr=False)
    _weights: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def norm(self) -> float:
        if self._norm is None:
            self._norm = float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))
        return self._norm

    @property
    def is_null(self) -> bool:
        return not self.amplitudes

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
    occ = tuple(int(n) for n in occupations)
    if len(occ) != mode_space.num_slots:
        raise ValueError("occupation tuple has wrong length")
    cap = mode_space.occupation_cap
    if any(n < 0 or n > cap for n in occ):
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
    fermi = space.statistics is Statistics.FERMI
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
    fermi = space.statistics is Statistics.FERMI
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
    if len(v.amplitudes) * len(modes) >= ARRAY_CUTOFF:
        out = _transformed_create_kernel(v, coeffs, modes, space.slot(0, species))
        if out is not None:
            return out
    out = FockVector(space, {})
    for mode in modes:
        out = out + coeffs[mode] * create(v, mode, species)
    return out


def _mapped(shape, dtype) -> np.ndarray:
    """A zero-filled array in its own anonymous memory mapping.

    The kernels keep their large arrays out of the malloc heap: once glibc
    has raised its dynamic mmap threshold, freed numpy buffers of a few MB
    stay resident there as holes, while a mapping goes back to the system
    when its array is freed.  On the fock_states benchmark (Linux x86-64,
    glibc) this lowered the peak RSS by about 2.5 MB.
    """
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _occupation_dtype(cap: int):
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if cap <= np.iinfo(dtype).max:
            return dtype
    return None


def _occupation_matrix(v: FockVector):
    """Occupation rows of v in amplitudes order, cached on v.

    None when a key is not a tuple of num_slots occupations in [0, cap]
    (possible only for a hand-built vector); callers then use the dict loop.
    """
    if v._occupations is None:
        space = v.mode_space
        cap = space.occupation_cap
        dtype = _occupation_dtype(cap)
        if dtype is None:
            return None
        try:
            occ = np.array(list(v.amplitudes), dtype=dtype)
        except (OverflowError, TypeError, ValueError):
            return None
        if occ.shape != (len(v.amplitudes), space.num_slots) or occ.min() < 0 or occ.max() > cap:
            return None
        v._occupations = occ
    return v._occupations


def _pack(occ: np.ndarray, bits: int) -> np.ndarray:
    """Occupation rows as uint64 words, ``bits`` bits per slot; word-major."""
    per_word = 64 // bits
    num_slots = occ.shape[1]
    words = np.zeros((-(-num_slots // per_word), len(occ)), dtype=np.uint64)
    for slot in range(num_slots):
        words[slot // per_word] |= occ[:, slot].astype(np.uint64) << np.uint64(bits * (slot % per_word))
    return words


def _transformed_create_kernel(v: FockVector, coeffs, modes, base_slot: int):
    """transformed_create as one merge over all modes' contributions.

    Reproduces the loop ``out = out + c * create(v, mode)`` exactly:
    - each contribution is c * (amp * s), with s = sqrt(n+1) or the
      Jordan-Wigner sign, in the float operations of the scalar complex
      product;
    - each key's contributions are summed in mode order, one round per
      contribution rank, starting from +0.0; such a sum never holds -0.0,
      so neither the sign of a zero part of a contribution nor the reset
      after an exact cancellation needs handling;
    - a key whose running sum is exactly zero is dropped, and it is
      re-inserted by its next contribution, so keys come out ordered by
      the contribution that last inserted them.

    The loop's amplitudes stay Python complex when v's are, because numpy
    hands the coefficient to FockVector.__rmul__ as a Python complex; the
    kernel emits the same type.  Returns None, for the loop to run, when
    v's keys have no occupation matrix, its amplitudes mix types, or an
    amplitude or coefficient is not finite (where inf·0 terms matter).
    """
    space = v.mode_space
    occ = _occupation_matrix(v)
    kinds = {type(a) for a in v.amplitudes.values()}
    if occ is None or (kinds != {complex} and kinds != {np.complex128}):
        return None
    amps = np.fromiter(v.amplitudes.values(), dtype=complex, count=len(v.amplitudes))
    if not (np.all(np.isfinite(amps)) and np.all(np.isfinite(coeffs))):
        return None
    cap = space.occupation_cap
    bits = cap.bit_length()
    per_word = 64 // bits
    fermi = space.statistics is Statistics.FERMI

    # Contributions in the loop's order: mode-major, then v's order.  Each
    # is (source row, mode); its key is the source's packed row plus one in
    # the mode's slot.  The loop skips zero amplitudes; here they add ±0.0,
    # which changes no sum.
    src = [np.flatnonzero(occ[:, base_slot + mode] < cap).astype(np.int32) for mode in modes]
    bounds = np.cumsum([0] + [len(rows) for rows in src])
    total = int(bounds[-1])
    if total == 0:
        return FockVector(space, {})
    src = np.concatenate(src, out=_mapped(total, np.int32))
    mode_slots = base_slot + np.asarray(modes)
    mode_coeffs = coeffs[modes]
    if fermi:
        # occupied slots up to each slot; a raisable fermion slot is empty,
        # so there this counts the slots below it
        parity = np.cumsum(occ, axis=1) % 2

    def contributions(idx):
        """c * (amp * s) of the contributions idx, as (re, im)."""
        j = np.searchsorted(bounds, idx, side="right") - 1
        rows, slots = src[idx], mode_slots[j]
        if fermi:
            s = 1.0 - 2.0 * parity[rows, slots]
        else:
            s = np.sqrt(occ[rows, slots] + 1.0)
        u_re = amps.real[rows] * s
        u_im = amps.imag[rows] * s
        c_re, c_im = mode_coeffs.real[j], mode_coeffs.imag[j]
        return c_re * u_re - c_im * u_im, c_re * u_im + c_im * u_re

    def merge():
        """Sum each key's contributions; (inserting contribution, re, im) per kept key."""
        # Each key is its source's packed row plus one in the raised slot.
        # Group equal keys; lexsort is stable, so each key's run is in loop order.
        base = _pack(occ, bits)
        words = np.take(base, src, axis=1, out=_mapped((len(base), total), np.uint64))
        for j, mode in enumerate(modes):
            slot = base_slot + mode
            words[slot // per_word, bounds[j]:bounds[j + 1]] += np.uint64(1 << bits * (slot % per_word))
        order = np.lexsort(words)
        first = _mapped(total, bool)
        first[0] = True
        ranked = _mapped(total, np.uint64)
        for word in words:
            np.take(word, order, out=ranked)
            first[1:] |= ranked[1:] != ranked[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, total))

        # Round r adds every key's r-th contribution; keys are independent,
        # so blocks of keys go through their rounds one block at a time.
        acc_re = _mapped(len(starts), np.float64)
        acc_im = _mapped(len(starts), np.float64)
        present = _mapped(len(starts), bool)
        inserted_by = _mapped(len(starts), np.intp)
        for lo in range(0, len(starts), _ROUND_BLOCK):
            block = counts[lo:lo + _ROUND_BLOCK]
            for rank in range(int(block.max())):
                groups = lo + np.flatnonzero(block > rank)
                at = order[starts[groups] + rank]
                t_re, t_im = contributions(at)
                re = acc_re[groups] + t_re
                im = acc_im[groups] + t_im
                zero = (re == 0.0) & (im == 0.0)
                fresh = ~present[groups] & ~zero
                inserted_by[groups[fresh]] = at[fresh]
                acc_re[groups], acc_im[groups], present[groups] = re, im, ~zero
        return inserted_by[present], acc_re[present], acc_im[present]

    # Keys come out in the order of the contribution that inserted them.
    inserted_by, re, im = merge()
    order = np.argsort(inserted_by)
    idx = inserted_by[order]
    values = _mapped(len(idx), complex)
    values.real, values.imag = re[order], im[order]
    del inserted_by, re, im, order
    rows = np.take(occ, src[idx], axis=0, out=_mapped((len(idx), occ.shape[1]), occ.dtype))
    rows[np.arange(len(rows)), mode_slots[np.searchsorted(bounds, idx, side="right") - 1]] += 1
    amplitudes: dict = {}
    for lo in range(0, len(rows), _DICT_CHUNK):
        hi = lo + _DICT_CHUNK
        chunk = values[lo:hi].tolist() if kinds == {complex} else values[lo:hi]
        amplitudes.update(zip(zip(*rows[lo:hi].T.tolist()), chunk))
    out = FockVector(space, amplitudes)
    out._occupations = rows
    return out


def inner(u: FockVector, v: FockVector) -> complex:
    """⟨u, v⟩, conjugate-linear in the first argument."""
    _check_same_space(u, v)
    small, big = (u, v) if len(u.amplitudes) <= len(v.amplitudes) else (v, u)
    acc = 0.0 + 0.0j
    for occ, a in small.amplitudes.items():
        b = big.amplitudes.get(occ)
        if b is not None:
            acc += np.conj(u.amplitudes[occ]) * v.amplitudes[occ]
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
    if len(v.amplitudes) >= ARRAY_CUTOFF:
        occ = _occupation_matrix(v)
        if occ is not None:
            if v._weights is None:
                amps = np.fromiter(v.amplitudes.values(), dtype=complex, count=len(v.amplitudes))
                v._weights = np.add(amps.real * amps.real, amps.imag * amps.imag, out=_mapped(len(amps), np.float64))
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
