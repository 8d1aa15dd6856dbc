"""Workload ``wick_strings``: the symbolic normal-ordering layer alone.

Three long strings whose rewrite trees grow exponentially, alternating
``a a+`` x8 (bose) and ``a^6 a+^6`` (bose and fermi), among about 200
seeded short strings of length 2-8 over four labels, so labels repeat.
Each string goes through ``normal_order``, ``vacuum_expectation`` and
``evaluate`` at a seeded index assignment.  The long strings carry the
engine's cost; the short ones its per-call overhead.

Checks (outside the timed region): every normal-form term is normal
ordered with a nonzero coefficient; the operator-free part of the normal
form, the vacuum expectation and ``evaluate`` all equal Wick's theorem
computed directly, the permanent (bose) or the signed determinant
(fermi) of the delta matrix D[i][j] = [a_i left of a+_j] * [x_i == y_j];
and ``a^n a+^n`` over distinct labels gives n! vacuum terms.
"""

from __future__ import annotations

import math
import sys

import numpy as np

SHORT_STRINGS = 200
LABELS = ("x", "y", "z", "w")
# a^n a+^n over distinct labels, n <= this, is drawn in place of a random string
POWER_SHARE = 0.2
MAX_SHORT_POWER = 4


def power_string(stats, n):
    """a(x1)..a(xn) a+(y1)..a+(yn): n! complete contractions."""
    return f"{stats}: " + " ".join(f"a(x{i})" for i in range(1, n + 1)) + " " + " ".join(f"a+(y{i})" for i in range(1, n + 1))


def long_strings():
    """(text, n when the string is a power string) for the three long strings."""
    alt = " ".join(f"a(x{i}) a+(y{i})" for i in range(1, 9))
    return [(f"bose: {alt}", None), (power_string("bose", 6), 6), (power_string("fermi", 6), 6)]


def short_shapes():
    """(statistics, operator kinds, n for a power string) of each short string.

    The shapes are the same at every seed, which keeps a pass's cost
    independent of the seed; the seed picks the labels and the assignment.
    """
    rng = np.random.default_rng(150300675)
    shapes = []
    for _ in range(SHORT_STRINGS):
        stats = "fermi" if rng.random() < 0.5 else "bose"
        if rng.random() < POWER_SHARE:
            shapes.append((stats, None, int(rng.integers(1, MAX_SHORT_POWER + 1))))
        else:
            kinds = tuple("a+" if rng.random() < 0.5 else "a" for _ in range(int(rng.integers(2, 9))))
            shapes.append((stats, kinds, None))
    return shapes


def _matching_sum(matrix, signed):
    """Permanent, or determinant when signed, of a square 0/1 matrix (DP over column subsets)."""
    n = len(matrix)
    totals = {0: 1}
    for i in range(n):
        nxt = {}
        for mask, value in totals.items():
            for j in range(n):
                if matrix[i][j] and not mask >> j & 1:
                    sign = -1 if signed and bin(mask >> (j + 1)).count("1") % 2 else 1
                    key = mask | 1 << j
                    nxt[key] = nxt.get(key, 0) + sign * value
        totals = nxt
    return totals.get((1 << n) - 1, 0)


def _parity(sequence):
    inversions = sum(1 for i in range(len(sequence)) for j in range(i + 1, len(sequence)) if sequence[i] > sequence[j])
    return -1 if inversions % 2 else 1


def wick_oracle(atoms, fermi, assignment):
    """<0| atoms |0> at an index assignment by Wick's theorem.

    atoms is a list of (is_create, label) in string order.
    """
    ann = [(p, lab) for p, (c, lab) in enumerate(atoms) if not c]
    cre = [(p, lab) for p, (c, lab) in enumerate(atoms) if c]
    if len(ann) != len(cre):
        return 0
    matrix = [[int(pa < pc and assignment[la] == assignment[lc]) for pc, lc in cre] for pa, la in ann]
    if not fermi:
        return _matching_sum(matrix, signed=False)
    # sign of the reference pairing a_i <-> a+_i, times det over the others
    reference = [p for pair in zip(ann, cre) for p, _ in pair]
    return _parity(reference) * _matching_sum(matrix, signed=True)


def _atoms(op_string):
    return [(sym.kind.value == "a+", sym.label) for sym in op_string.symbols]


def _delta_sum(terms, assignment):
    return sum(coeff for coeff, deltas in terms if all(assignment[a] == assignment[b] for a, b in deltas))


class Workload:
    name = "wick_strings"

    def __init__(self, seed, tmp_dir):
        self.wick = sys.modules["fockfield.wick"]
        rng = np.random.default_rng(seed)
        texts = long_strings()
        for stats, kinds, power in short_shapes():
            if power:
                texts.append((power_string(stats, power), power))
            else:
                atoms = [f"{kind}({LABELS[rng.integers(len(LABELS))]})" for kind in kinds]
                texts.append((f"{stats}: " + " ".join(atoms), None))
        order = rng.permutation(len(texts))
        self._ops = []
        for index in order:
            text, power = texts[index]
            self._ops.extend(self._string_ops(int(index), text, power, rng))
        self._sizes = {
            "strings": len(texts),
            "long": [t for t, _ in texts[:3]],
            "short_atoms_total": sum(len(t.split()) - 1 for t, _ in texts[3:]),
            "power_strings": sum(1 for _, p in texts if p),
        }
        self._terms = {}  # (string index, stage) -> terms in the last checked output

    @property
    def sizes(self):
        """Input sizes, plus the term counts of the outputs checked so far."""
        out = dict(self._sizes)
        for stage in ("normal_form", "vacuum"):
            out[f"{stage}_terms"] = sum(n for (_, st), n in self._terms.items() if st == stage)
        return out

    def _string_ops(self, index, text, power, rng):
        wick = self.wick
        s = wick.parse(text)
        fermi = text.startswith("fermi:")
        labels = sorted({sym.label for sym in s.symbols})
        assignment = {lab: int(rng.integers(0, 3)) for lab in labels}
        expected = wick_oracle(_atoms(s), fermi, assignment)
        tag = "long" if index < 3 else "short"
        state = {}

        def normal_order():
            return self.wick.normal_order(s)

        def check_normal(nf):
            self._terms[index, "normal_form"] = len(nf.terms)
            for t in nf.terms:
                kinds = [sym.kind.value for sym in t.operators]
                if t.coefficient == 0 or kinds != sorted(kinds, key=lambda k: k != "a+"):
                    return False
            free = [(t.coefficient, t.deltas) for t in nf.terms if not t.operators]
            return _delta_sum(free, assignment) == expected

        def vacuum():
            state["dp"] = self.wick.vacuum_expectation(s)
            return state["dp"]

        def check_vacuum(dp):
            self._terms[index, "vacuum"] = len(dp.terms)
            if power is not None and len(dp.terms) != math.factorial(power):
                return False
            return _delta_sum(dp.terms, assignment) == expected

        def evaluate():
            return self.wick.evaluate(state["dp"], assignment)

        return [
            (f"{tag}.normal_order", normal_order, check_normal),
            (f"{tag}.vacuum_expectation", vacuum, check_vacuum),
            (f"{tag}.evaluate", evaluate, lambda value: value == expected),
        ]

    def ops(self):
        return iter(self._ops)
