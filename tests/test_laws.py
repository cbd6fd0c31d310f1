"""Metamorphic laws over the answers: relations between two answers that
hold whatever either answer is, so they need no oracle."""

import pytest

from blowup.errors import ResolveError
from blowup.expr import parse_element
from blowup.position import resolve

from golden.generate import CONCRETE


@pytest.mark.parametrize("text", CONCRETE)
def test_inversion_swaps_zeros_and_poles(text):
    # f and 1/f are undetermined at the same points, and a zero of one is a
    # pole of the other, so the descent of `resolve` is the same for both
    f, inverse = parse_element(text), parse_element(f"1/({text})")
    try:
        found = resolve(f)
    except ResolveError as error:
        # vanishing along an exceptional curve is a pole of 1/f along it
        side = "has a pole" if " vanishes along " in str(error) else "vanishes"
        with pytest.raises(ResolveError, match=f" {side} along "):
            resolve(inverse)
        return
    flipped = resolve(inverse)
    assert (flipped.zeros, flipped.poles) == (found.poles, found.zeros)
    assert flipped.depth_used == found.depth_used
    assert flipped.diagnostics == found.diagnostics
