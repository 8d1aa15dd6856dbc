"""Workload ``fock_states``: the occupation-number layer alone.

Large states: a seeded four-boson state on M=32 modes (nmax=4, 52,360
components) and a four-fermion state on M=24 modes (10,626 components),
each built by four ``transformed_create`` calls with orthonormal orbitals,
then ``number_expectation`` on every mode and ``create``/``annihilate``
on two seeded modes.  A block of 300 small-vector operations on basis
states of M <= 8 modes runs first, the sizes that ``fock-check`` and
``verify eq3`` use.  The large states carry a representation change's
gain (``run_s``); the small ones its per-call cost (``op_p50_ms``).

Checks (outside the timed region): component counts and unit norm of
the built states, <n_m> equal to the orbital weight sum_k |c_k(m)|^2,
sum_m <n_m> = N, ||a_m psi||^2 = <n_m>, the truncated ||a+_m psi||^2,
adjointness <u, a_m psi> = <a+_m u, psi> against a small seeded u, and
closed-form results for every small operation.
"""

from __future__ import annotations

import math
import sys

import numpy as np

TOL = 1e-10
SMALL_OPS = 300
LARGE = (("bose", 32, 4), ("fermi", 24, None))  # (statistics, modes, nmax)
PARTICLES = 4
SMALL_KINDS = ("basis_state", "create", "annihilate", "number_expectation", "inner", "transformed_create")
LADDER_MODES = 2
EDGE_SHARE = 0.25


def small_shapes():
    """(kind, modes, statistics, nmax, edge) of each small operation, the same at every seed.

    edge selects the boundary case: a ladder operator whose image is the
    null element, or an inner product of a state with itself.  Fixing the
    shapes keeps a pass's cost independent of the seed; the seed picks
    occupations, target modes and coefficients.
    """
    rng = np.random.default_rng(150300675)
    shapes = []
    for i in range(SMALL_OPS):
        shapes.append((SMALL_KINDS[i % len(SMALL_KINDS)], int(rng.integers(2, 9)),
                       "fermi" if i // len(SMALL_KINDS) % 2 else "bose", int(rng.integers(1, 7)),
                       bool(rng.random() < EDGE_SHARE)))
    return shapes


def _orbitals(rng, modes, count):
    """count orthonormal complex orbitals on `modes` sites (rows)."""
    z = rng.normal(size=(modes, count)) + 1j * rng.normal(size=(modes, count))
    q, _ = np.linalg.qr(z)
    return q.T.copy()


def _basis_action(kind, occ, mode, stats, cap):
    """Closed-form image of a basis state under one ladder operator: {occ: amp}."""
    n = occ[mode]
    if kind == "create" and n + 1 > cap:
        return {}
    if kind == "annihilate" and n == 0:
        return {}
    new = occ[:mode] + ((n + 1) if kind == "create" else (n - 1),) + occ[mode + 1:]
    if stats == "fermi":
        amp = -1.0 if sum(occ[:mode]) % 2 else 1.0
    else:
        amp = math.sqrt(n + 1) if kind == "create" else math.sqrt(n)
    return {new: complex(amp)}


def _same(vector, expected, tol=TOL):
    got = vector.amplitudes
    if set(got) != set(expected):
        return False
    return all(abs(got[k] - expected[k]) <= tol for k in expected)


def _norm2(amplitudes):
    return sum(abs(a) ** 2 for a in amplitudes.values())


class Workload:
    name = "fock_states"

    def __init__(self, seed, tmp_dir):
        self.fock = sys.modules["fockfield.fock"]
        rng = np.random.default_rng(seed)
        large = []
        self.sizes = {}
        for stats, modes, nmax in LARGE:
            large.extend(self._large_ops(rng, stats, modes, nmax))
        small = [self._small_op(rng, *shape) for shape in small_shapes()]
        # The small operations run as one block before the large ones, as
        # they do in fock-check: right after a large state is built or
        # scanned, a small operation runs with cold caches and takes about
        # four times as long, which would make op_p50_ms measure cache
        # refills rather than the small-vector path.
        self._ops = small + large
        self.sizes["small_ops"] = len(small)
        self.sizes["large_ops"] = len(large)

    # -- large states ---------------------------------------------------

    def _large_ops(self, rng, stats, modes, nmax):
        fock = self.fock
        statistics = fock.Statistics.BOSE if stats == "bose" else fock.Statistics.FERMI
        space = fock.ModeSpace(modes, statistics, nmax=nmax or 1)
        cap = space.occupation_cap
        orbitals = _orbitals(rng, modes, PARTICLES)
        weights = np.sum(np.abs(orbitals) ** 2, axis=0)
        ladder_modes = [int(m) for m in rng.choice(modes, size=LADDER_MODES, replace=False)]
        components = math.comb(modes + PARTICLES - 1, PARTICLES) if stats == "bose" else math.comb(modes, PARTICLES)
        self.sizes[f"{stats}_state"] = {"modes": modes, "nmax": cap, "particles": PARTICLES, "components": components}
        vac = fock.vacuum(space)
        state = {"psi": vac, "n": {}}
        ops = []

        for k in range(PARTICLES):
            def build(c=orbitals[k], k=k):
                state["psi"] = self.fock.transformed_create(vac if k == 0 else state["psi"], c)
                return state["psi"]

            def check_build(v, k=k):
                count = math.comb(modes + k, k + 1) if stats == "bose" else math.comb(modes, k + 1)
                return len(v.amplitudes) == count and abs(_norm2(v.amplitudes) - 1.0) <= TOL

            ops.append((f"{stats}.transformed_create", build, check_build))

        for m in range(modes):
            def density(m=m):
                return self.fock.number_expectation(state["psi"], m)

            def check_density(value, m=m):
                state["n"][m] = value
                ok = abs(value - weights[m]) <= TOL
                if len(state["n"]) == modes:
                    ok = ok and abs(sum(state["n"].values()) - PARTICLES) <= TOL
                    state["n"] = {}
                return ok

            ops.append((f"{stats}.number_expectation", density, check_density))

        for m in ladder_modes:
            for kind in ("create", "annihilate"):
                def ladder(m=m, kind=kind):
                    return getattr(self.fock, kind)(state["psi"], m)

                def check_ladder(v, m=m, kind=kind):
                    psi = state["psi"].amplitudes
                    if kind == "annihilate":
                        want = sum(abs(a) ** 2 * occ[m] for occ, a in psi.items())
                    elif stats == "bose":
                        want = sum(abs(a) ** 2 * (occ[m] + 1) for occ, a in psi.items() if occ[m] < cap)
                    else:
                        want = sum(abs(a) ** 2 for occ, a in psi.items() if occ[m] == 0)
                    if abs(_norm2(v.amplitudes) - want) > TOL:
                        return False
                    return self._adjoint_ok(v, state["psi"], m, kind, space)

                ops.append((f"{stats}.{kind}", ladder, check_ladder))
        return ops

    def _adjoint_ok(self, image, psi, mode, kind, space):
        """<u, L psi> == <L^dagger u, psi> for a small u drawn from the image's support."""
        fock = self.fock
        keys = sorted(image.amplitudes)
        if not keys:
            return False
        rng = np.random.default_rng(len(keys) + 7919 * mode)
        picks = rng.choice(len(keys), size=min(20, len(keys)), replace=False)
        amps = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
        u = complex(amps[0]) * fock.basis_state(space, keys[int(picks[0])])
        for i, a in zip(picks[1:], amps[1:]):
            u = u + complex(a) * fock.basis_state(space, keys[int(i)])
        adjoint = fock.annihilate if kind == "create" else fock.create
        lhs = fock.inner(u, image)
        rhs = fock.inner(adjoint(u, mode), psi)
        return abs(lhs - rhs) <= TOL * max(1.0, abs(lhs))

    # -- small basis states ---------------------------------------------

    def _small_op(self, rng, kind, modes, stats, nmax, edge):
        fock = self.fock
        space = fock.ModeSpace(modes, fock.Statistics.FERMI if stats == "fermi" else fock.Statistics.BOSE, nmax=nmax)
        cap = space.occupation_cap
        occ = [int(n) for n in rng.integers(0, cap + 1, size=modes)]
        mode = int(rng.integers(modes))
        if kind == "create":
            occ[mode] = cap if edge else int(rng.integers(0, cap))
        elif kind == "annihilate":
            occ[mode] = 0 if edge else int(rng.integers(1, cap + 1))
        occ = tuple(occ)
        v = fock.basis_state(space, occ)

        if kind == "basis_state":
            return ("small.basis_state", lambda: self.fock.basis_state(space, occ), lambda r: _same(r, {occ: 1.0}))
        if kind in ("create", "annihilate"):
            want = _basis_action(kind, occ, mode, stats, cap)
            return (f"small.{kind}", lambda: getattr(self.fock, kind)(v, mode), lambda r: _same(r, want))
        if kind == "number_expectation":
            return ("small.number_expectation", lambda: self.fock.number_expectation(v, mode),
                    lambda r: abs(r - occ[mode]) <= TOL)
        if kind == "inner":
            other = occ if edge else occ[:mode] + ((occ[mode] + 1) % (cap + 1),) + occ[mode + 1:]
            w = fock.basis_state(space, other)
            return ("small.inner", lambda: self.fock.inner(v, w), lambda r: abs(r - (1.0 if other == occ else 0.0)) <= TOL)
        coeffs = rng.normal(size=modes) + 1j * rng.normal(size=modes)
        want = {}
        for m, c in enumerate(coeffs):
            for key, amp in _basis_action("create", occ, m, stats, cap).items():
                want[key] = want.get(key, 0.0) + c * amp
        want = {k: a for k, a in want.items() if a != 0.0}
        return ("small.transformed_create", lambda: self.fock.transformed_create(v, coeffs), lambda r: _same(r, want))

    def ops(self):
        return iter(self._ops)
