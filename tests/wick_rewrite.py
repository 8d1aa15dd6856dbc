"""Reference normal ordering by adjacent-swap rewriting, kept for the tests.

The exchange rule

    a(α) a+(β) = δ_{αβ} ± a+(β) a(α)     (+ bosons, − fermions)

is applied to the leftmost offending adjacent pair until every term has
all creators left of all annihilators; the inversion count strictly
decreases, so this terminates.  It expands the whole rewrite tree, so
keep its inputs short.  ``fockfield.wick`` must give equal results.
"""

from fockfield.fock import Statistics
from fockfield.wick import DeltaPolynomial, LadderKind, NormalForm, NormalTerm, OperatorString


def _term_sort_key(term: NormalTerm):
    ops = tuple((s.kind.value, s.label) for s in term.operators)
    return (ops, term.deltas)


def _sorted_block(symbols, fermi: bool):
    """Canonicalize same-kind symbols by label.

    They (anti)commute exactly, so sorting is free up to a fermionic sign
    given by the parity of the permutation; a fermionic repeat makes the
    whole term the zero operator.
    """
    labels = [s.label for s in symbols]
    if fermi and len(set(labels)) != len(labels):
        return 0, ()
    sign = 1
    if fermi:
        inversions = sum(
            1
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
            if labels[i] > labels[j]
        )
        sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(symbols, key=lambda s: s.label))


def rewrite_normal_order(s: OperatorString) -> NormalForm:
    swap_sign = 1 if s.statistics is Statistics.BOSE else -1
    pending = [(1, frozenset(), list(s.symbols))]
    collected: dict = {}
    while pending:
        coeff, deltas, syms = pending.pop()
        for i in range(len(syms) - 1):
            if syms[i].kind is LadderKind.ANNIHILATE and syms[i + 1].kind is LadderKind.CREATE:
                a, b = syms[i].label, syms[i + 1].label
                contracted = syms[:i] + syms[i + 2:]
                new_deltas = deltas if a == b else deltas | {tuple(sorted((a, b)))}
                pending.append((coeff, new_deltas, contracted))
                swapped = syms[:i] + [syms[i + 1], syms[i]] + syms[i + 2:]
                pending.append((coeff * swap_sign, deltas, swapped))
                break
        else:
            fermi = s.statistics is Statistics.FERMI
            split = next(
                (i for i, sym in enumerate(syms) if sym.kind is LadderKind.ANNIHILATE),
                len(syms),
            )
            csign, creates = _sorted_block(syms[:split], fermi)
            asign, annihilates = _sorted_block(syms[split:], fermi)
            if csign * asign == 0:
                continue
            key = (tuple(sorted(deltas)), creates + annihilates)
            collected[key] = collected.get(key, 0) + coeff * csign * asign
    terms = [
        NormalTerm(coeff, deltas, ops)
        for (deltas, ops), coeff in collected.items()
        if coeff != 0
    ]
    terms.sort(key=_term_sort_key)
    return NormalForm(tuple(terms), s.statistics)


def rewrite_vacuum_expectation(s: OperatorString) -> DeltaPolynomial:
    """The operator-free terms of the rewritten normal form."""
    nf = rewrite_normal_order(s)
    return DeltaPolynomial(
        tuple((t.coefficient, t.deltas) for t in nf.terms if not t.operators)
    )
