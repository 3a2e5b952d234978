"""The package's records: immutable NamedTuples with value equality,
hash, keyword repr, defaults, methods, and constructor validation."""

import pickle

import pytest

from globalzeta import (
    DomainError,
    EulerConsistencyReport,
    EvaluationRecord,
    ExactCheckResult,
    FunctionalEquationReport,
    FunctionFieldDescriptor,
    GridSpec,
    KroneckerCharacter,
    LPolynomial,
    NumberFieldDescriptor,
    Place,
    PoleSet,
    SweepSummary,
    make_quadratic,
    make_rational_function_field,
)

# One instance of each record, by keyword, with the repr it must print.
RECORDS = [
    (
        NumberFieldDescriptor(kind="quadratic", d=-1, discriminant=-4, r1=0, r2=1),
        "NumberFieldDescriptor(kind='quadratic', d=-1, discriminant=-4, r1=0, r2=1)",
    ),
    (LPolynomial(coefficients=(1, 3, 5)), "LPolynomial(coefficients=(1, 3, 5))"),
    (
        FunctionFieldDescriptor(q=5, genus=0, lpoly=LPolynomial((1,))),
        "FunctionFieldDescriptor(q=5, genus=0, lpoly=LPolynomial(coefficients=(1,)))",
    ),
    (Place(qv=5, kind="rational_prime", label="5#1"), "Place(qv=5, kind='rational_prime', label='5#1')"),
    (KroneckerCharacter(modulus=-4), "KroneckerCharacter(modulus=-4)"),
    (
        EvaluationRecord(s=2j, zeta_value=1j, gamma_factor_value=2.0, completed_value=2j, pole_distance=1.0),
        "EvaluationRecord(s=2j, zeta_value=1j, gamma_factor_value=2.0, completed_value=2j, "
        "pole_distance=1.0, precision_cliff=False)",
    ),
    (PoleSet(bases=(0.0, 1.0), period=None), "PoleSet(bases=(0.0, 1.0), period=None)"),
    (
        FunctionalEquationReport(
            s=1j, lhs=None, rhs=None, relative_residual=None, pole_distance_min=0.0, status="near_pole_skipped"
        ),
        "FunctionalEquationReport(s=1j, lhs=None, rhs=None, relative_residual=None, "
        "pole_distance_min=0.0, status='near_pole_skipped')",
    ),
    (
        GridSpec(re_min=0.1, re_max=0.9, re_steps=5, im_min=0.0, im_max=10.0, im_steps=5),
        "GridSpec(re_min=0.1, re_max=0.9, re_steps=5, im_min=0.0, im_max=10.0, im_steps=5)",
    ),
    (
        SweepSummary(field="Q", grid="g", count_ok=1, count_skipped=2, count_failed=0, max_residual=0.5),
        "SweepSummary(field='Q', grid='g', count_ok=1, count_skipped=2, count_failed=0, max_residual=0.5)",
    ),
    (ExactCheckResult(holds=True, witness=None), "ExactCheckResult(holds=True, witness=None)"),
    (
        EulerConsistencyReport(closed_form=1j, truncated=1j, gap=0.0, tail_bound=1.0, passed=True),
        "EulerConsistencyReport(closed_form=1j, truncated=1j, gap=0.0, tail_bound=1.0, passed=True)",
    ),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_names_every_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_immutable(record, text):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance __dict__


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_value_equality_and_hash(record, text):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_unpack_like_tuples():
    k = make_quadratic(-1)
    kind, d, disc, r1, r2 = k
    assert (kind, d, disc, r1, r2) == ("quadratic", -1, -4, 0, 1)
    assert k == ("quadratic", -1, -4, 0, 1)
    assert k != make_quadratic(2) and hash(k) != hash(make_quadratic(2))


def test_defaults_and_methods():
    rec = EvaluationRecord(1j, 1j, 1.0, 1j, 1.0)
    assert rec.precision_cliff is False
    assert EvaluationRecord(1j, 1j, 1.0, 1j, 1.0, True).precision_cliff is True
    assert make_quadratic(5).degree == 2
    grid = GridSpec(0.1, 0.9, 5, 0.0, 10.0, 5)
    assert grid.describe() == "re[0.1:0.9:5] im[0:10:5]"
    chi = KroneckerCharacter(-4)
    assert [chi(n) for n in range(1, 6)] == [1, 0, -1, 0, 1]
    p = LPolynomial((1, 3, 5))
    assert (p.degree, p.genus, p(2.0)) == (2, 1, complex(27.0))
    assert p.symmetry_violation(5) is None and p.symmetry_violation(7) == 0
    assert make_rational_function_field(5).lpoly == LPolynomial((1,))


def test_lpolynomial_converts_coefficients_to_int():
    p = LPolynomial([1.0, 3, 5.0])
    assert p.coefficients == (1, 3, 5)
    assert all(type(c) is int for c in p.coefficients)


@pytest.mark.parametrize(
    "coefficients, message",
    [((), "at least the constant"), ((2, 0, 2), "constant coefficient must be 1"), ((1, 3), "even")],
)
def test_lpolynomial_validation(coefficients, message):
    with pytest.raises(DomainError, match=message):
        LPolynomial(coefficients)


@pytest.mark.parametrize("modulus", [0, 2, 3, 20, -16])
def test_kronecker_character_validation(modulus):
    with pytest.raises(DomainError, match="fundamental discriminant"):
        KroneckerCharacter(modulus)
