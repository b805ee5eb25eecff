"""Randomized property suites for the scoring and recommendation pipeline.

Each suite drives at least ten thousand seeded random cases through a
shared check function so the acceptance gate can rerun the exact same
logic.  Seeds are fixed: failures reproduce deterministically.
"""

from helpers import (
    check_dense_leaf_equivalence,
    check_in_vocabulary_guarantee,
    check_lta_monotonicity,
    check_permutation_insensitivity,
    check_prune_group_rule,
)

N_CASES = 10_000


def test_lta_strictly_increases_with_overlap():
    assert check_lta_monotonicity(N_CASES) == N_CASES


def test_title_token_order_never_matters():
    assert check_permutation_insensitivity(N_CASES) == N_CASES


def test_predictions_stay_inside_the_queried_leaf():
    assert check_in_vocabulary_guarantee(N_CASES) == N_CASES


def test_count_group_pruning_matches_reference():
    assert check_prune_group_rule(N_CASES) == N_CASES


def test_dense_leaves_match_the_full_scan():
    assert check_dense_leaf_equivalence(N_CASES) == N_CASES
