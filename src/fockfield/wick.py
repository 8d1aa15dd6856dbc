"""Symbolic normal ordering of ladder-operator strings.

Expressions are sequences of abstract creation/annihilation symbols over
free labels (x, x', p1, ...).  Normal ordering is one left-to-right pass
over the symbols (Wick's theorem) that keeps what it has read as merged
normal-ordered states, grouped by operator block: (sorted creator labels,
sorted annihilator labels) → {sorted delta pairs → integer coefficient}.
An annihilator joins its block.  A creator contracts with each pending
annihilator by

    a(α) a+(β) = δ_{αβ} ± a+(β) a(α)     (+ bosons, − fermions),

and also joins its block.  A fermion pays the parity of the symbols it
passes; a repeated fermion label is zero.  The new block and the sign of
a contraction or a move depend on the block alone, so they are found
once per block, and each state of the block then only inserts its delta.
A moving block no other block has reached moves whole: always for an
annihilator, where no two blocks meet, and for a creator unless a
contraction got to its target first.  The vacuum expectation runs the
same pass, contracting every creator, and keeps the block with no
operator left.

A symbol's step raises ValueError when it ends with more than MAX_TERMS
live states.  The count is checked as the step adds states, so the
step's memory stays bounded while it runs.  Deltas stay symbolic until
an index assignment is supplied.

Grammar (parse/format round-trip):

    string  = prefix atom*
    prefix  = "bose:" | "fermi:"
    atom    = "a(" label ")" | "a+(" label ")"
    label   = one or more characters excluding whitespace and parentheses
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

from .fock import _FERMI, Statistics


class LadderKind(Enum):
    CREATE = "a+"
    ANNIHILATE = "a"


# Read on every symbol: as for fock._FERMI, a module global costs about
# 20 ns, the class attribute LadderKind.CREATE about 170 ns.
_CREATE = LadderKind.CREATE


@dataclass(frozen=True)
class LadderSymbol:
    kind: LadderKind
    label: str

    def __str__(self):
        return f"{self.kind.value}({self.label})"


@dataclass(frozen=True)
class OperatorString:
    symbols: tuple
    statistics: Statistics

    def __str__(self):
        atoms = " ".join(str(s) for s in self.symbols)
        return f"{self.statistics.value}:" + (f" {atoms}" if atoms else "")


def _signed_sum(terms) -> str:
    """Print (coefficient, factors) pairs as a sum: a magnitude of 1 is left
    out before factors, a term without factors prints its magnitude alone,
    the first sign is a bare "-" and later ones " + " or " - ", and an empty
    sum prints 0."""
    out = []
    for coeff, factors in terms:
        body = " ".join(factors)
        if not body:
            piece = f"{abs(coeff)}"
        elif abs(coeff) == 1:
            piece = body
        else:
            piece = f"{abs(coeff)} {body}"
        if out:
            piece = ("- " if coeff < 0 else "+ ") + piece
        elif coeff < 0:
            piece = "-" + piece
        out.append(piece)
    return " ".join(out) or "0"


@dataclass(frozen=True)
class NormalTerm:
    """coefficient × (product of deltas) × normal-ordered operator string."""

    coefficient: int
    deltas: tuple  # sorted tuple of sorted label pairs
    operators: tuple  # LadderSymbols, all CREATE before all ANNIHILATE

    def _factors(self) -> list:
        return [f"d({a},{b})" for a, b in self.deltas] + [str(s) for s in self.operators]

    def __str__(self):
        return _signed_sum([(abs(self.coefficient), self._factors())])


@dataclass(frozen=True)
class NormalForm:
    terms: tuple
    statistics: Statistics

    def __str__(self):
        return _signed_sum((t.coefficient, t._factors()) for t in self.terms)


@dataclass(frozen=True)
class DeltaPolynomial:
    """Sum of integer-weighted Kronecker delta products over label pairs."""

    terms: tuple  # of (coefficient, deltas) pairs

    def labels(self) -> set:
        out = set()
        for _, deltas in self.terms:
            for a, b in deltas:
                out.update((a, b))
        return out

    def __str__(self):
        return _signed_sum((coeff, [f"d({a},{b})" for a, b in deltas]) for coeff, deltas in self.terms)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ATOM = re.compile(r"a(\+)?\(([^()\s]+)\)$")
_PREFIXES = {"bose:": Statistics.BOSE, "fermi:": Statistics.FERMI}


def parse(text: str) -> OperatorString:
    """Parse an operator string; raises ParseError with the failing position."""
    stripped = text.lstrip()
    offset = len(text) - len(stripped)
    for prefix, stats in _PREFIXES.items():
        if stripped.startswith(prefix):
            break
    else:
        raise ParseError("expected statistics prefix 'bose:' or 'fermi:'", offset)
    symbols = []
    pos = offset + len(prefix)
    rest = text[pos:]
    for m in re.finditer(r"\S+", rest):
        atom = m.group(0)
        am = _ATOM.match(atom)
        if am is None:
            raise ParseError(f"malformed atom {atom!r}", pos + m.start())
        kind = LadderKind.CREATE if am.group(1) else LadderKind.ANNIHILATE
        symbols.append(LadderSymbol(kind, am.group(2)))
    return OperatorString(tuple(symbols), stats)


MAX_TERMS = 100_000


def _over_the_limit() -> ValueError:
    return ValueError(f"expression has more than {MAX_TERMS} terms")


def _contract(s: OperatorString, vacuum: bool) -> dict:
    """The contraction pass: {(creator labels, annihilator labels): {deltas: coefficient}}."""
    fermi = s.statistics is _FERMI
    states = {((), ()): {(): 1}}
    for sym in s.symbols:
        label = sym.label
        new: dict = {}
        live = 0
        if sym.kind is not _CREATE:
            # an annihilator joins its block, passing the larger labels; no two blocks meet
            for (cre, ann), block in states.items():
                i = bisect_right(ann, label)
                if fermi and i and ann[i - 1] == label:
                    continue  # a repeated fermion is the zero operator
                if fermi and (len(ann) - i) & 1:
                    for deltas, coeff in block.items():
                        block[deltas] = -coeff
                new[cre, ann[:i] + (label,) + ann[i:]] = block
                live += len(block)
            if live > MAX_TERMS:
                raise _over_the_limit()
        else:
            for (cre, ann), block in states.items():
                last = len(ann) - 1
                for j, other in enumerate(ann):  # contract with ann[j] after passing ann[j+1:]
                    key = (cre, ann[:j] + ann[j + 1:])
                    target = new.get(key)
                    if target is None:
                        target = new[key] = {}
                        before = 0
                    else:
                        before = len(target)
                    sign = -1 if fermi and (last - j) & 1 else 1
                    if other == label:  # δ(x, x) = 1
                        for deltas, coeff in block.items():
                            target[deltas] = target.get(deltas, 0) + sign * coeff
                    else:
                        pair = (other, label) if other < label else (label, other)
                        for deltas, coeff in block.items():
                            i = bisect_left(deltas, pair)
                            if deltas[i:i + 1] != (pair,):  # δ² = δ
                                deltas = deltas[:i] + (pair,) + deltas[i:]
                            target[deltas] = target.get(deltas, 0) + sign * coeff
                    live += len(target) - before
                    if live > MAX_TERMS:
                        raise _over_the_limit()
                if vacuum:
                    continue
                # the creator joins its block, passing every annihilator and then the larger labels
                i = bisect_right(cre, label)
                if fermi and i and cre[i - 1] == label:
                    continue
                key = (cre[:i] + (label,) + cre[i:], ann)
                sign = -1 if fermi and (len(cre) - i + len(ann)) & 1 else 1
                target = new.get(key)
                if target is None:  # nothing reads this block again, so it moves whole
                    if sign < 0:
                        for deltas, coeff in block.items():
                            block[deltas] = -coeff
                    new[key] = block
                    live += len(block)
                else:
                    before = len(target)
                    for deltas, coeff in block.items():
                        target[deltas] = target.get(deltas, 0) + sign * coeff
                    live += len(target) - before
                if live > MAX_TERMS:
                    raise _over_the_limit()
        states = new
    return states


def normal_order(s: OperatorString) -> NormalForm:
    """Rewrite into an equal sum of normal-ordered terms.

    Equality is as operator identities on the safe (untruncated) subspace.
    Within each term the same-kind symbols are label-sorted (free up to a
    fermionic sign) and the term list is ordered canonically, so equal
    inputs print identically.
    """
    states = _contract(s, vacuum=False)
    creators, annihilators = {}, {}
    for sym in s.symbols:
        (creators if sym.kind is _CREATE else annihilators)[sym.label] = sym
    creator, annihilator = creators.__getitem__, annihilators.__getitem__
    # Terms order as ((kind, label) of each operator, deltas) would: a shorter
    # block sorts first, as "a" < "a+".  Sorting the blocks, then each block's
    # deltas, is the order of the flat (cre, ann, deltas) keys.
    terms = []
    for (cre, ann), block in sorted(states.items()):
        if not any(block.values()):
            continue  # every state of the block cancelled
        operators = (*map(creator, cre), *map(annihilator, ann))
        for deltas, coeff in sorted(block.items()):
            if coeff:
                terms.append(NormalTerm(coeff, deltas, operators))
    return NormalForm(tuple(terms), s.statistics)


def vacuum_expectation(s: OperatorString) -> DeltaPolynomial:
    """⟨ψ₀, s ψ₀⟩ as a delta polynomial.

    Only fully contracted terms survive: any annihilator acting on the
    vacuum (or creator acting leftward on it) kills the term, so the
    expectation is the sum of coefficients of operator-free terms.
    """
    found = sorted(_contract(s, vacuum=True).get(((), ()), {}).items())
    return DeltaPolynomial(tuple((coeff, deltas) for deltas, coeff in found if coeff))


def evaluate(dp: DeltaPolynomial, assignment) -> int:
    """Resolve a delta polynomial against concrete indices per label."""
    missing = dp.labels() - set(assignment)
    if missing:
        raise ValueError(f"no assignment for labels {sorted(missing)}")
    total = 0
    for coeff, deltas in dp.terms:
        if all(assignment[a] == assignment[b] for a, b in deltas):
            total += coeff
    return total
