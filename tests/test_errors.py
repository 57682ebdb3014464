"""The axiom errors share one constructor: each keeps its axiom and
witness, and its default message is its own prefix with both."""

import pytest

from fintopo.errors import (AxiomViolation, BaseCriterionViolation, ClosedAxiomViolation,
                            DomainError, InteriorAxiomViolation, KuratowskiViolation,
                            NeighborhoodAxiomViolation, NeighborhoodBaseViolation,
                            SetMapAxiomViolation)

DEFAULTS = [
    (BaseCriterionViolation, "base criterion covers-carrier violated (witness 3)"),
    (ClosedAxiomViolation, "closed-system axiom covers-carrier violated (witness 3)"),
    (NeighborhoodAxiomViolation, "neighborhood axiom covers-carrier violated (witness 3)"),
    (SetMapAxiomViolation, "set-neighborhood-map axiom covers-carrier violated (witness 3)"),
    (NeighborhoodBaseViolation, "neighborhood base axiom covers-carrier violated (witness 3)"),
    (KuratowskiViolation, "closure-operator axiom covers-carrier violated (witness 3)"),
    (InteriorAxiomViolation, "interior-operator axiom covers-carrier violated (witness 3)"),
]


@pytest.mark.parametrize('cls, message', DEFAULTS, ids=[c.__name__ for c, _ in DEFAULTS])
def test_default_message(cls, message):
    exc = cls('covers-carrier', 3)
    assert isinstance(exc, AxiomViolation) and isinstance(exc, DomainError)
    assert (exc.axiom, exc.witness) == ('covers-carrier', 3)
    assert str(exc) == message
    assert exc.payload() == {'error': cls.__name__, 'detail': message}


@pytest.mark.parametrize('cls', [c for c, _ in DEFAULTS], ids=[c.__name__ for c, _ in DEFAULTS])
def test_given_message_and_tuple_witness(cls):
    exc = cls('union-closed', (1, 2), "not a topology: union-closed fails (witness (1, 2))")
    assert exc.witness == (1, 2)
    assert str(exc) == "not a topology: union-closed fails (witness (1, 2))"
    assert "%s" % cls('union-closed', (1, 2)) == (
        "%s union-closed violated (witness (1, 2))" % cls.prefix)
