"""Symbolic normal ordering of ladder-operator strings.

Expressions are sequences of abstract creation/annihilation symbols over
free labels (x, x', p1, ...).  Normal ordering is one left-to-right pass
over the symbols (Wick's theorem) that keeps what it has read as merged
normal-ordered states: (sorted creator labels, sorted annihilator labels,
sorted delta pairs) → integer coefficient.  An annihilator joins its
block.  A creator contracts with each pending annihilator by

    a(α) a+(β) = δ_{αβ} ± a+(β) a(α)     (+ bosons, − fermions),

and also joins its block.  A fermion pays the parity of the symbols it
passes; a repeated fermion label is zero.  The vacuum expectation runs
the same pass, contracting every creator, and keeps the states with no
annihilator left.  More than MAX_TERMS live states raise ValueError.
Deltas stay symbolic until an index assignment is supplied.

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

from .fock import Statistics


class LadderKind(Enum):
    CREATE = "a+"
    ANNIHILATE = "a"


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


def _contract(s: OperatorString, vacuum: bool) -> dict:
    """The contraction pass: {(creator labels, annihilator labels, deltas): coefficient}."""
    fermi = s.statistics is Statistics.FERMI
    swap = -1 if fermi else 1
    states = {((), (), ()): 1}
    for sym in s.symbols:
        label, create = sym.label, sym.kind is LadderKind.CREATE
        new: dict = {}
        for (cre, ann, deltas), coeff in states.items():
            if create:
                for j, other in enumerate(ann):  # contract with ann[j] after passing ann[j+1:]
                    d = deltas
                    if other != label:  # δ(x, x) = 1, and δ² = δ
                        pair = (other, label) if other < label else (label, other)
                        i = bisect_left(deltas, pair)
                        if deltas[i:i + 1] != (pair,):
                            d = deltas[:i] + (pair,) + deltas[i:]
                    key = (cre, ann[:j] + ann[j + 1:], d)
                    new[key] = new.get(key, 0) + coeff * swap ** (len(ann) - 1 - j)
                if len(new) > MAX_TERMS:
                    raise ValueError(f"expression has more than {MAX_TERMS} terms")
                if vacuum:
                    continue
            # move into its block: a creator passes every annihilator, then the larger labels
            block = cre if create else ann
            i = bisect_right(block, label)
            if fermi and i and block[i - 1] == label:
                continue  # a repeated fermion is the zero operator
            passed = len(block) - i + (len(ann) if create else 0)
            block = block[:i] + (label,) + block[i:]
            key = (block, ann, deltas) if create else (cre, block, deltas)
            new[key] = new.get(key, 0) + coeff * swap ** passed
        states = new
    return states


def normal_order(s: OperatorString) -> NormalForm:
    """Rewrite into an equal sum of normal-ordered terms.

    Equality is as operator identities on the safe (untruncated) subspace.
    Within each term the same-kind symbols are label-sorted (free up to a
    fermionic sign) and the term list is ordered canonically, so equal
    inputs print identically.
    """
    creators = {sym.label: sym for sym in s.symbols if sym.kind is LadderKind.CREATE}
    annihilators = {sym.label: sym for sym in s.symbols if sym.kind is LadderKind.ANNIHILATE}
    # A state key orders as ((kind, label) of each operator, deltas) would:
    # a shorter block sorts first, as "a" < "a+".
    terms = (
        NormalTerm(coeff, deltas, tuple(map(creators.__getitem__, cre)) + tuple(map(annihilators.__getitem__, ann)))
        for (cre, ann, deltas), coeff in sorted(_contract(s, vacuum=False).items())
        if coeff
    )
    return NormalForm(tuple(terms), s.statistics)


def vacuum_expectation(s: OperatorString) -> DeltaPolynomial:
    """⟨ψ₀, s ψ₀⟩ as a delta polynomial.

    Only fully contracted terms survive: any annihilator acting on the
    vacuum (or creator acting leftward on it) kills the term, so the
    expectation is the sum of coefficients of operator-free terms.
    """
    found = sorted(
        (deltas, coeff) for (_, ann, deltas), coeff in _contract(s, vacuum=True).items() if coeff and not ann
    )
    return DeltaPolynomial(tuple((coeff, deltas) for deltas, coeff in found))


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
