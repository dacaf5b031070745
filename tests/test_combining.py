import pytest

from combining_oracle import ORACLE, all_vectors
from lexgate.combining import combine
from lexgate.errors import UnknownCombinerError
from lexgate.model import Decision

P, D, NA, IND = (
    Decision.PERMIT,
    Decision.DENY,
    Decision.NOT_APPLICABLE,
    Decision.INDETERMINATE,
)


def test_deny_overrides_examples():
    assert combine("deny-overrides", [P, D]) is D
    assert combine("deny-overrides", [P, P]) is P
    assert combine("deny-overrides", [NA, NA]) is NA
    assert combine("deny-overrides", [P, IND]) is D  # fail-safe folding


def test_permit_overrides_examples():
    assert combine("permit-overrides", [D, P]) is P
    assert combine("permit-overrides", [D, NA]) is D
    assert combine("permit-overrides", [NA, IND]) is IND


def test_first_applicable_examples():
    assert combine("first-applicable", [NA, D, P]) is D
    assert combine("first-applicable", [NA, NA]) is NA
    assert combine("first-applicable", [IND, P]) is IND  # terminal error


def test_only_one_applicable_examples():
    assert combine("only-one-applicable", [NA, P, NA]) is P
    assert combine("only-one-applicable", [P, D]) is IND  # two applicable
    assert combine("only-one-applicable", [NA, NA]) is NA


def test_empty_vector_combines_to_not_applicable():
    for algorithm in ORACLE:
        assert combine(algorithm, []) is NA


def test_engine_combiners_match_the_prose_oracle_exhaustively():
    vectors = all_vectors(max_len=4)
    assert len(vectors) == 340
    for algorithm, oracle_fn in ORACLE.items():
        for vector in vectors:
            assert combine(algorithm, vector) is oracle_fn(vector), (
                algorithm,
                vector,
            )


def test_unknown_combiner_raises():
    with pytest.raises(UnknownCombinerError):
        combine("sometimes-applicable", [P])

