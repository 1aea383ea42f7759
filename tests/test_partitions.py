import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspectra import (
    Polynomial,
    admissible_sequences,
    count_partitions,
    expand_in_gbasis,
    hook_leg_profile,
    is_admissible,
    partitions_with_length,
    profile_to_partition,
    s_basis,
    spanning_products,
)
from fockspectra.partitions import HookLeg, check_partition


def test_enumeration_examples():
    assert partitions_with_length(4, 2) == ((3, 1), (2, 2))
    assert partitions_with_length(3, 3) == ((1, 1, 1),)
    assert len(partitions_with_length(12, 4)) == 15
    assert partitions_with_length(3, 5) == ()
    assert partitions_with_length(0, 0) == ((),)
    assert partitions_with_length(0, 1) == ()
    assert partitions_with_length(5, 0) == ()


def test_large_inputs_need_no_recursion():
    assert count_partitions(3000, 2) == 1500
    assert partitions_with_length(1200, 1200) == ((1,) * 1200,)


def test_enumeration_is_decreasing_lex():
    for d in range(0, 15):
        for ell in range(0, d + 1):
            ps = partitions_with_length(d, ell)
            assert list(ps) == sorted(ps, reverse=True)
            assert all(sum(p) == d and len(p) == ell for p in ps)


def test_count_examples():
    assert count_partitions(12, 4) == 15
    for d in (1, 5, 11):
        assert count_partitions(d, 1) == 1
    assert count_partitions(4, 2) == 2
    assert count_partitions(0, 0) == 1
    assert count_partitions(3, 0) == 0


def test_count_matches_enumeration():
    for d in range(0, 15):
        for ell in range(0, d + 1):
            assert count_partitions(d, ell) == len(partitions_with_length(d, ell))


def test_hook_leg_profile_flagship_example():
    profile = hook_leg_profile((7, 7, 5, 4, 3, 2))
    assert [(e.hook, e.leg) for e in profile] == [(12, 6), (10, 5), (5, 3), (1, 1)]
    assert [e.increment for e in profile] == [1, 2, 2, 1]


def test_hook_leg_profile_degenerate_shapes():
    assert hook_leg_profile((5,)) == (HookLeg(5, 1, 1),)
    assert hook_leg_profile((1, 1, 1)) == (HookLeg(3, 3, 3),)
    assert hook_leg_profile((99999999999,)) == (HookLeg(99999999999, 1, 1),)


def test_hook_leg_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        hook_leg_profile(())
    with pytest.raises(ValueError):
        hook_leg_profile((1, 2))
    with pytest.raises(ValueError):
        hook_leg_profile((2, 0))


def test_profile_invariants():
    for d in range(1, 13):
        for ell in range(1, d + 1):
            for parts in partitions_with_length(d, ell):
                profile = hook_leg_profile(parts)
                assert sum(e.hook for e in profile) == d
                assert profile[0].leg == ell
                diffs = [e.hook - e.leg for e in profile]
                assert all(a > b for a, b in zip(diffs, diffs[1:]))
                legs = [e.leg for e in profile] + [0]
                assert all(
                    e.increment == legs[i] - legs[i + 1] for i, e in enumerate(profile)
                )
                assert is_admissible([(e.hook, e.increment) for e in profile])


def test_profile_to_partition_examples():
    assert profile_to_partition([(12, 1), (10, 2), (5, 2), (1, 1)]) == (7, 7, 5, 4, 3, 2)
    assert profile_to_partition([(6, 1)]) == (6,)
    assert profile_to_partition([(3, 3)]) == (1, 1, 1)


def test_profile_to_partition_rejects_inadmissible():
    with pytest.raises(ValueError):
        profile_to_partition([(2, 1), (1, 1)])  # needs 2 > 1 + 1
    with pytest.raises(ValueError):
        profile_to_partition([(2, 3)])  # hook below leg
    with pytest.raises(ValueError):
        profile_to_partition([(3, 0)])


def test_round_trip_through_profiles():
    for d in range(1, 21):
        for ell in range(1, d + 1):
            for parts in partitions_with_length(d, ell):
                profile = hook_leg_profile(parts)
                seq = [(e.hook, e.increment) for e in profile]
                assert profile_to_partition(seq) == parts


def test_is_admissible_examples():
    assert is_admissible([(4, 2)])
    assert is_admissible([(3, 1), (1, 1)])
    assert not is_admissible([(2, 1), (1, 1)])
    assert not is_admissible([(5, 2), (1, 0)])
    assert is_admissible([])


def test_admissible_sequences_biject_with_partitions():
    for d in range(1, 17):
        for ell in range(1, d + 1):
            seqs = admissible_sequences(d, ell)
            assert len(seqs) == count_partitions(d, ell)
            assert len(set(seqs)) == len(seqs)
            for seq in seqs:
                assert sum(p[0] for p in seq) == d
                assert sum(p[1] for p in seq) == ell
                assert is_admissible(seq)
            # the bijection itself: every sequence names a distinct diagram
            diagrams = {profile_to_partition(seq) for seq in seqs}
            assert diagrams == set(partitions_with_length(d, ell))


def test_admissible_sequences_match_a_search_that_shares_no_code_with_the_hook_map():
    # spanning_products searches all canonical products; the basis is the admissible ones
    for d in range(0, 17):
        for ell in range(0, d + 1):
            expected = tuple(p for p in spanning_products(d, ell) if is_admissible(p))
            assert admissible_sequences(d, ell) == expected, (d, ell)


def test_the_empty_component():
    assert admissible_sequences(0, 0) == ((),)
    assert s_basis(0, 0) == ()
    assert expand_in_gbasis(Polynomial.one(), 0, 0) == (1,)


def test_admissible_sequences_of_long_components():
    # one diagram per partition, however long and thin the component
    assert admissible_sequences(60, 60) == (((60, 60),),)
    seqs = admissible_sequences(40, 30)
    assert {profile_to_partition(seq) for seq in seqs} == set(partitions_with_length(40, 30))


@settings(max_examples=60)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=7))
def test_any_sorted_parts_round_trip(raw):
    parts = check_partition(tuple(sorted(raw, reverse=True)))
    profile = hook_leg_profile(parts)
    assert profile_to_partition([(e.hook, e.increment) for e in profile]) == parts
