"""Metamorphic laws over the answers: relations between two answers that
hold whatever either answer is, so they need no oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from blowup.errors import ResolveError
from blowup.expr import parse_element
from blowup.families import Chain, Siblings
from blowup.jsonio import family_from_json
from blowup.oracle import in_family
from blowup.position import resolve

from golden.generate import CONCRETE, ELEMENTS, FAMILIES


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


GOLDEN_FAMILIES = {name: family_from_json(part) for name, part in FAMILIES.items()}
# the paths of the golden chains and siblings, periodic and along a curve
GOLDEN_PATHS = tuple(dict.fromkeys(part.valuation for part in GOLDEN_FAMILIES.values()
                                   if isinstance(part, (Chain, Siblings))))


@given(st.sampled_from(ELEMENTS), st.sampled_from(sorted(GOLDEN_FAMILIES)),
       st.sampled_from(sorted(GOLDEN_FAMILIES)))
@settings(max_examples=40, deadline=None)
def test_membership_in_a_union_is_the_conjunction(text, first, second):
    # the ring of [F1, F2] is the intersection of the two rings, and its
    # parts are decided in order, so a no names the first part's witness
    f = parse_element(text)
    parts = (GOLDEN_FAMILIES[first], GOLDEN_FAMILIES[second])
    answers = [in_family(f, part) for part in parts]
    union = in_family(f, parts)
    assert (union.verdict == "yes") == all(answer.verdict == "yes" for answer in answers)
    failing = [answer for answer in answers if answer.verdict == "no"]
    assert (union.verdict == "no") == bool(failing)
    if failing:
        assert union.witness == failing[0].witness


@given(st.sampled_from(ELEMENTS), st.sampled_from(GOLDEN_PATHS), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_a_chain_started_later_keeps_every_yes(text, path, level):
    # the rings grow down the path, so the ring at the later first member
    # holds the ring at the earlier one
    f = parse_element(text)
    if in_family(f, Chain(path, level)).verdict == "yes":
        assert in_family(f, Chain(path, level + 1)).verdict == "yes"
