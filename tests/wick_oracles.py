"""The per-state contraction pass, kept for the tests as the oracle of ``fockfield.wick``.

It keeps one flat dict, {(creator labels, annihilator labels, deltas):
coefficient}, and moves each state through each symbol on its own.
``fockfield.wick._contract`` groups the same states by operator block,
{(creator labels, annihilator labels): {deltas: coefficient}}; flattened,
the two must be equal key for key, zero coefficients included.
"""

from bisect import bisect_left, bisect_right

from fockfield.fock import Statistics
from fockfield.wick import LadderKind, OperatorString


def contract_steps(s: OperatorString, vacuum: bool, max_terms=None):
    """Yield the live states after each symbol's step.

    With ``max_terms`` given, raise ValueError under the per-state rule: a
    creator's step raises when, after some state's contractions, more than
    ``max_terms`` states are live.  That count leaves out the state's own
    move-in, so a step that ends with exactly ``max_terms + 1`` states can
    pass here where ``fockfield.wick`` raises.
    """
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
                if max_terms is not None and len(new) > max_terms:
                    raise ValueError(f"expression has more than {max_terms} terms")
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
        yield states


def contract(s: OperatorString, vacuum: bool) -> dict:
    """The whole pass: {(creator labels, annihilator labels, deltas): coefficient}."""
    states = {((), (), ()): 1}
    for states in contract_steps(s, vacuum):
        pass
    return states


def flatten(grouped: dict) -> dict:
    """{(cre, ann): {deltas: coefficient}} as {(cre, ann, deltas): coefficient}."""
    return {(cre, ann, deltas): coeff for (cre, ann), block in grouped.items() for deltas, coeff in block.items()}
