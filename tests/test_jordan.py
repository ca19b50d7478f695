"""fuse against Ver_p as the semisimplification of Rep(Z/p) (Jordan blocks over F_p).

The oracle shares no code with the tilting route: no characters, no weights,
only ranks of integer matrices mod p.
"""
import pytest

from verlab import FusionElement
from verlab import fusion

from oracles import jordan_fusion

# every simple at the small primes, and L_0..L_4 at p = 11
SIMPLES = {2: 1, 3: 2, 5: 4, 7: 6, 11: 5}


def mismatches(p: int) -> list[tuple[int, int]]:
    """The pairs (a, b) of simples whose fusion row differs from the oracle's."""
    simples = range(SIMPLES[p])
    return [
        (a, b) for a in simples for b in simples
        if fusion.fuse(p, a, b).mults != jordan_fusion(p, a, b)
    ]


@pytest.mark.parametrize("p", sorted(SIMPLES))
def test_fuse_matches_jordan_blocks(p):
    assert mismatches(p) == []


def test_perturbed_row_is_caught(monkeypatch):
    exact = fusion.fuse

    def perturbed(p, a, b):
        row = exact(p, a, b)
        if (p, a, b) != (7, 2, 3):
            return row
        mults = row.mults
        mults[min(mults)] += 1
        return FusionElement(p, mults)

    monkeypatch.setattr(fusion, "fuse", perturbed)
    assert mismatches(7) == [(2, 3)]

