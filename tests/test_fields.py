"""Field catalog tests: descriptors, places, Euler factors, L-polynomials."""

import cmath
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from globalzeta import (
    DomainError,
    LPolynomial,
    SymmetryError,
    WeilBoundWarning,
    covolume,
    enumerate_places,
    field_spec_string,
    kronecker_chi,
    local_euler_factor,
    log_covolume,
    lpoly_from_point_counts,
    make_curve_function_field,
    make_quadratic,
    make_rational_function_field,
    make_rationals,
    parse_field_spec,
    places_above,
    splitting_type,
    truncated_euler_product,
)
from globalzeta import ffield
from globalzeta import fields as fields_mod

import oracles

ZETA3_ORACLE, ZETA3_BOUND = 1.202056903159602, 1.6e-14  # zeta_series(3.0, 2000)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class TestNumberFieldConstruction:
    def test_rationals(self):
        q = make_rationals()
        assert (q.discriminant, q.r1, q.r2) == (1, 1, 0)
        assert q.degree == 1
        assert covolume(q) == 1

    def test_gaussian(self):
        k = make_quadratic(-1)
        assert (k.discriminant, k.r1, k.r2) == (-4, 0, 1)
        assert k.degree == 2

    def test_real_quadratic(self):
        k = make_quadratic(5)
        assert (k.discriminant, k.r1, k.r2) == (5, 2, 0)

    def test_more_discriminants(self):
        assert make_quadratic(2).discriminant == 8
        assert make_quadratic(-2).discriminant == -8
        assert make_quadratic(-3).discriminant == -3
        assert make_quadratic(3).discriminant == 12

    def test_rejects_bad_d(self):
        for bad in (12, 0, 1, -4, 18, 50):
            with pytest.raises(DomainError):
                make_quadratic(bad)

    def test_ramified_primes_are_exactly_divisors_of_discriminant(self):
        # oracle: p ramifies iff x^2 = D mod p has exactly one solution
        # class (p | D); otherwise split/inert by residue count
        for d in (-1, 5, 2, -3, -5, 7):
            k = make_quadratic(d)
            for p in (2, 3, 5, 7, 11, 13, 17, 19):
                typ = splitting_type(k, p)
                if k.discriminant % p == 0:
                    assert typ == "ramified"
                    assert len(places_above(k, p)) == 1
                elif p != 2:
                    n_roots = oracles.count_sqrt_solutions(k.discriminant, p)
                    assert typ == ("split" if n_roots == 2 else "inert")
                else:
                    assert typ == ("split" if k.discriminant % 8 == 1 else "inert")

    def test_signature_covers_all_three_cases(self):
        sigs = {
            (make_rationals().r1, make_rationals().r2),
            (make_quadratic(5).r1, make_quadratic(5).r2),
            (make_quadratic(-1).r1, make_quadratic(-1).r2),
        }
        assert sigs == {(1, 0), (2, 0), (0, 1)}


class TestFunctionFieldConstruction:
    def test_rational_function_field(self):
        f = make_rational_function_field(5)
        assert (f.q, f.genus) == (5, 0)
        assert f.lpoly.coefficients == (1,)

    def test_prime_power_allowed(self):
        assert make_rational_function_field(4).q == 4

    def test_non_prime_power_rejected(self):
        for bad in (6, 1, 0, 12, 10):
            with pytest.raises(DomainError):
                make_rational_function_field(bad)

    def test_curve_constructor(self):
        f = make_curve_function_field(5, [1, 3, 5])
        assert (f.q, f.genus) == (5, 1)

    def test_symmetry_rejection(self):
        with pytest.raises(SymmetryError):
            make_curve_function_field(5, [1, 3, 7])

    def test_genus_zero_curve(self):
        assert make_curve_function_field(3, [1]).genus == 0

    def test_lpolynomial_validation(self):
        with pytest.raises(DomainError):
            LPolynomial((2, 0, 2))
        with pytest.raises(DomainError):
            LPolynomial((1, 2))
        with pytest.raises(DomainError):
            LPolynomial(())

    def test_symmetry_witness(self):
        assert LPolynomial((1, 3, 5)).symmetry_violation(5) is None
        assert LPolynomial((1, 3, 7)).symmetry_violation(5) == 0


# ---------------------------------------------------------------------------
# Covolume
# ---------------------------------------------------------------------------

class TestCovolume:
    def test_gaussian_exact(self):
        assert covolume(make_quadratic(-1)) == 2

    def test_real_sqrt5(self):
        assert abs(covolume(make_quadratic(5)) - math.sqrt(5)) <= 1e-15 * math.sqrt(5)
        assert abs(covolume(make_quadratic(5)) - 2.2360679775) < 1e-10

    def test_function_field_exact_rational(self):
        for q in (2, 3, 4, 5):
            assert covolume(make_rational_function_field(q)) == Fraction(1, q)

    def test_genus_one_exact(self):
        assert covolume(make_curve_function_field(5, [1, 3, 5])) == 1

    def test_positivity(self):
        fields = [
            make_rationals(),
            make_quadratic(-1),
            make_quadratic(5),
            make_quadratic(-3),
            make_quadratic(2),
            make_rational_function_field(2),
            make_rational_function_field(5),
            make_curve_function_field(5, [1, 3, 5]),
            make_curve_function_field(2, [1, 0, 0, 0, 4]),
        ]
        for f in fields:
            assert covolume(f) > 0

    def test_log_covolume_matches(self):
        for f in (make_quadratic(-1), make_quadratic(5), make_rational_function_field(3),
                  make_curve_function_field(5, [1, 3, 5])):
            assert abs(log_covolume(f) - math.log(float(covolume(f)))) < 1e-13


# ---------------------------------------------------------------------------
# Splitting and places
# ---------------------------------------------------------------------------

class TestSplitting:
    def test_gaussian_examples(self):
        k = make_quadratic(-1)
        assert splitting_type(k, 5) == "split"
        assert splitting_type(k, 3) == "inert"
        assert splitting_type(k, 2) == "ramified"
        # oracle: x^2 = -1 mod 5 has two solutions, mod 3 none
        assert oracles.count_sqrt_solutions(-1, 5) == 2
        assert oracles.count_sqrt_solutions(-1, 3) == 0

    def test_requires_prime(self):
        with pytest.raises(DomainError):
            splitting_type(make_quadratic(-1), 6)

    def test_requires_quadratic(self):
        with pytest.raises(DomainError):
            splitting_type(make_rationals(), 5)


def _codes(polys, q: int, n: int) -> list[int]:
    """Base-q codes of monic degree-n polynomials, checked to ascend strictly."""
    codes = []
    for f in polys:
        assert len(f) == n + 1 and f[-1] == 1
        codes.append(sum(c * q ** i for i, c in enumerate(f[:-1])))
    assert all(a < b for a, b in zip(codes, codes[1:]))
    return codes


def _table_field(q: int):
    """GF(q)'s add, mul and negation tables from the oracle, modulo
    galois_field(q).modulus after checking that the modulus is a monic
    irreducible of degree k (so the tables make a field)."""
    _, p, k, modulus = ffield.galois_field(q)
    assert len(modulus) == k + 1 and modulus[-1] == 1
    assert oracles.rabin_irreducible(modulus, p), (q, modulus)
    add, mul = oracles.extension_field_tables(modulus, p)
    return add, mul, [row.index(0) for row in add]


def _rootless_codes(q: int, n: int) -> list[int]:
    """Codes of the monic degree-n polynomials over GF(q) with no root in GF(q).

    For each root r and each c_1..c_(n-1), the one c_0 giving f(r) = 0
    is c_0 = -(c_1 r + ... + r^n).  For n <= 3 these are the irreducibles.
    """
    add, mul, neg = _table_field(q)
    rooted = set()
    for r in range(q):
        powers = [1]
        for _ in range(n):
            powers.append(mul[powers[-1]][r])
        for rest in product(range(q), repeat=n - 1):
            value = powers[n]
            for c, power in zip(rest, powers[1:]):
                value = add[value][mul[c][power]]
            rooted.add(neg[value] + q * sum(c * q ** i for i, c in enumerate(rest)))
    return [code for code in range(q ** n) if code not in rooted]


class TestEnumeratePlaces:
    def test_rationals(self):
        places = enumerate_places(make_rationals(), 10)
        assert [p.qv for p in places] == [2, 3, 5, 7]

    def test_f2_example(self):
        # each degree in lexicographic order of (c_0, c_1, ...): T^3+T^2+1
        # is (1, 0, 1, 1) and comes before T^3+T+1, (1, 1, 0, 1)
        places = enumerate_places(make_rational_function_field(2), 8)
        assert [(p.qv, p.label) for p in places] == [
            (2, "inf"),
            (2, "T"),
            (2, "T+1"),
            (4, "T^2+T+1"),
            (8, "T^3+T^2+1"),
            (8, "T^3+T+1"),
        ]

    def test_infinite_place_respects_bound(self):
        f = make_rational_function_field(5)
        assert enumerate_places(f, 4) == []
        assert truncated_euler_product(f, 2, 4) == 1
        assert [p.label for p in enumerate_places(f, 5)][:2] == ["inf", "T"]

    def test_places_above_requires_prime(self):
        for field in (make_rationals(), make_quadratic(-1)):
            for n in (1, 4, 9, 91):
                with pytest.raises(DomainError, match="not prime"):
                    places_above(field, n)

    def test_places_above_requires_number_field(self):
        for field in (make_rational_function_field(5), make_curve_function_field(5, [1, 3, 5])):
            with pytest.raises(DomainError, match="places_above: field must be a number field"):
                places_above(field, 5)

    def test_gaussian_example(self):
        places = enumerate_places(make_quadratic(-1), 10)
        assert sorted(p.qv for p in places) == [2, 5, 5, 9]

    def test_split_pair_labels(self):
        pair = places_above(make_quadratic(-1), 5)
        assert [p.label for p in pair] == ["5#1", "5#2"]
        assert pair[0] != pair[1]

    def test_irreducible_counts_match_necklace_formula(self):
        # prime powers up to k = 3, and the corners: q^n = MAX_NORM_BOUND
        # at (2, 17), a prime p > 36 at (37, 3), k = 3 at (27, 3)
        cases = [(q, n) for q in (2, 3, 4, 5) for n in range(1, 7)]
        cases += [(q, n) for q, top in ((8, 4), (9, 4), (16, 3), (25, 3), (27, 3)) for n in range(1, top + 1)]
        cases += [(2, 17), (37, 3)]
        assert 2 ** 17 == fields_mod.MAX_NORM_BOUND
        for q, n in cases:
            codes = _codes(ffield.monic_irreducibles(q, n), q, n)
            assert len(codes) == oracles.necklace_count(q, n), (q, n)

    def test_low_degree_irreducibles_are_the_rootless_monics(self):
        # up to degree 3 a monic is irreducible iff it has no root
        for q in (4, 8, 9, 16, 25, 27, 37):
            for n in (2, 3):
                assert _codes(ffield.monic_irreducibles(q, n), q, n) == _rootless_codes(q, n), (q, n)

    def test_quartics_have_no_monic_factor_of_degree_one_or_two(self):
        # with the necklace count and distinct codes, this pins each tuple
        for q in (4, 9):
            add, mul, neg = _table_field(q)
            divisors = [c + (1,) for m in (1, 2) for c in product(range(q), repeat=m)]
            polys = ffield.monic_irreducibles(q, 4)
            assert len(_codes(polys, q, 4)) == oracles.necklace_count(q, 4)
            for f in polys:
                for g in divisors:
                    u, m = list(f), len(g) - 1
                    for top in range(4, m - 1, -1):  # long division by monic g
                        c = u[top]
                        for i, gi in enumerate(g):
                            u[top - m + i] = add[u[top - m + i]][neg[mul[c][gi]]]
                    assert any(u[:m]), (q, f, g)

    def test_degree_one_builds_no_field_tables(self):
        # linear monics are all irreducible: no products to mark, so the
        # sieve never asks for the field
        ffield.monic_irreducibles.cache_clear()
        ffield.galois_field.cache_clear()
        assert len(ffield.monic_irreducibles(1009, 1)) == 1009
        assert ffield.galois_field.cache_info().currsize == 0

    def test_irreducibles_pass_rabin_oracle(self):
        # with the necklace count above, this pins each tuple exactly
        for p, top in ((2, 12), (3, 8), (5, 5), (7, 4)):
            for n in range(1, top + 1):
                polys = ffield.monic_irreducibles(p, n)
                assert len(polys) == oracles.necklace_count(p, n)
                codes = []
                for f in polys:
                    assert len(f) == n + 1 and f[-1] == 1
                    assert oracles.rabin_irreducible(f, p), (p, f)
                    codes.append(sum(c * p ** i for i, c in enumerate(f[:-1])))
                assert all(a < b for a, b in zip(codes, codes[1:]))

    def test_number_field_places_match_a_per_prime_loop(self):
        # reference: one place list per prime, chi_D(p) by brute-force
        # residue counting, stable-sorted by q_v; bounds land on an inert
        # p^2 (361 = 19^2 in Q(sqrt 10)) and just below one
        for d, bound in ((-1, 2000), (10, 361), (10, 360), (-35, 2000), (13, 2000), (-1299, 2000), (997, 1500)):
            k = make_quadratic(d)
            D = k.discriminant
            want = []
            for p in range(2, bound + 1):
                if any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
                    continue
                chi = oracles.brute_kronecker(D, p)
                if chi == 1:
                    want += [(p, "rational_prime", f"{p}#1"), (p, "rational_prime", f"{p}#2")]
                elif chi == -1:
                    want += [(p * p, "rational_prime", str(p))] if p * p <= bound else []
                else:
                    want.append((p, "rational_prime", str(p)))
            want.sort(key=lambda row: row[0])
            assert enumerate_places(k, bound) == want, (d, bound)

    def test_kronecker_calls_at_most_one_per_residue_class(self, monkeypatch):
        # never more calls than one per unramified prime, and for a long
        # prime list only one per class coprime to |D| (phi(35) = 24)
        calls = []

        def counting_chi(D, n):
            calls.append(n)
            return kronecker_chi(D, n)

        monkeypatch.setattr(fields_mod, "kronecker_chi", counting_chi)
        k = make_quadratic(-35)
        places = enumerate_places(k, 99991)
        assert len(calls) == 24 and len(set(calls)) == 24
        assert places == enumerate_places(make_quadratic(-35), 99991)
        calls.clear()
        enumerate_places(k, 12)  # primes 2, 3, 5, 7, 11; 5 and 7 ramify
        assert len(calls) == 3

    def test_deterministic(self):
        a = enumerate_places(make_quadratic(-1), 60)
        b = enumerate_places(make_quadratic(-1), 60)
        assert a == b
        assert [p.qv for p in a] == sorted(p.qv for p in a)

    def test_bound_validation(self):
        with pytest.raises(DomainError):
            enumerate_places(make_rationals(), 1)

    def test_positive_genus_rejected(self):
        with pytest.raises(DomainError):
            enumerate_places(make_curve_function_field(5, [1, 3, 5]), 25)


class TestLocalEulerFactor:
    def test_rational_prime_two(self):
        place = places_above(make_rationals(), 2)[0]
        v = local_euler_factor(make_rationals(), place, 2)
        assert abs(v - 4.0 / 3.0) < 1e-14

    def test_inert_prime_three_in_gaussian(self):
        k = make_quadratic(-1)
        (place,) = places_above(k, 3)
        assert place.qv == 9
        v = local_euler_factor(k, place, 2)
        assert abs(v - 81.0 / 80.0) < 1e-14
        # chi-twisted cross-check: (1-p^-s)^-1 (1-chi(p) p^-s)^-1
        twisted = 1.0 / ((1 - 3.0 ** -2) * (1 - kronecker_chi(-4, 3) * 3.0 ** -2))
        assert abs(v - twisted) < 1e-14

    def test_degree_one_place_f5(self):
        f = make_rational_function_field(5)
        place = enumerate_places(f, 5)[1]  # first finite degree-1 place
        assert place.qv == 5
        assert abs(local_euler_factor(f, place, 2) - 25.0 / 24.0) < 1e-14

    def test_factor_zero_guard(self):
        f = make_rationals()
        place = places_above(f, 2)[0]
        s = complex(0.0, 2.0 * math.pi / math.log(2.0))  # 1 - 2^-s = 0
        with pytest.raises(DomainError):
            local_euler_factor(f, place, s)

    def test_place_field_mismatch(self):
        prime_place = places_above(make_rationals(), 2)[0]
        with pytest.raises(DomainError):
            local_euler_factor(make_rational_function_field(5), prime_place, 2)

    def test_places_of_the_field_only(self):
        # In Q(sqrt 5) (D = 5) 11 splits, 7 is inert and 5 ramifies: each
        # of their places is accepted, with its own q_v.
        k = make_quadratic(5)
        s = 2.0 + 1.5j
        for p, qvs in ((11, [11, 11]), (7, [49]), (5, [5])):
            places = places_above(k, p)
            assert [place.qv for place in places] == qvs
            for place in places:
                expected = 1.0 / (1.0 - cmath.exp(-s * math.log(place.qv)))
                assert abs(local_euler_factor(k, place, s) - expected) < 1e-14
        foreign = [
            places_above(make_rationals(), 7)[0],  # q_v = 7, but k's place above 7 has q_v = 49
            places_above(make_rationals(), 11)[0],  # "11", where k has "11#1" and "11#2"
            places_above(make_quadratic(-1), 5)[0],  # "5#1", where k has the ramified "5"
            *(fields_mod.Place(qv, "rational_prime", str(qv)) for qv in (1, 6, 36)),  # no prime below
        ]
        for place in foreign:
            with pytest.raises(DomainError, match="place does not belong to the field"):
                local_euler_factor(k, place, 2)

    def test_function_field_place_norms(self):
        # Every place of GF(q)(T) that enumerate_places lists is accepted,
        # and only those
        for q in (4, 5):
            k = make_rational_function_field(q)
            for place in enumerate_places(k, q**3):
                expected = 1.0 / (1.0 - place.qv ** -2.0)
                assert abs(local_euler_factor(k, place, 2) - expected) < 1e-14
        foreign = [
            (5, fields_mod.Place(7, "infinite", "inf")),  # not a power of 5
            (5, fields_mod.Place(1, "infinite", "inf")),  # 5^0
            (5, fields_mod.Place(0, "infinite", "inf")),
            (5, fields_mod.Place(24, "monic_irreducible", "T^2+2")),
            (5, fields_mod.Place(5, "monic_irreducible", "T^2+2")),  # degree 2 at q_v = 5
            (5, fields_mod.Place(125, "monic_irreducible", "T^2+2")),
            (5, fields_mod.Place(25, "monic_irreducible", "T+1")),  # degree 1 at q_v = 25
            (5, fields_mod.Place(25, "monic_irreducible", "T^x+1")),
            (5, fields_mod.Place(25, "unknown", "T^2+2")),
            (2, fields_mod.Place(4, "monic_irreducible", "T^2+1")),  # (T+1)^2, reducible
            (2, fields_mod.Place(4, "monic_irreducible", "T^2+7")),  # 7 is not in GF(2)
            (2, fields_mod.Place(4, "infinite", "inf")),  # the infinite place has q_v = q
        ]
        for q, place in foreign:
            with pytest.raises(DomainError, match="place does not belong to the field"):
                local_euler_factor(make_rational_function_field(q), place, 2)
        # refused before any sieve, as enumerate_places refuses them
        with pytest.raises(DomainError, match="MAX_NORM_BOUND"):
            local_euler_factor(make_rational_function_field(2), fields_mod.Place(2**40, "infinite", "inf"), 2)
        with pytest.raises(DomainError, match="positive-genus"):
            local_euler_factor(make_curve_function_field(5, [1, 3, 5]), fields_mod.Place(5, "infinite", "inf"), 2)

    def test_quadratic_local_factorization_identity(self):
        # product over places above p == (1-p^-s)^-1 (1-chi(p) p^-s)^-1
        rng = random.Random(991)
        for d in (-1, 5, 2, -3):
            k = make_quadratic(d)
            for p in (2, 3, 5, 7, 11, 31, 97, 199):
                for _ in range(10):
                    s = complex(rng.uniform(1.05, 4.0), rng.uniform(-8.0, 8.0))
                    prod = 1.0 + 0.0j
                    for place in places_above(k, p):
                        prod *= local_euler_factor(k, place, s)
                    chi_p = kronecker_chi(k.discriminant, p)
                    ps = cmath.exp(-s * math.log(p))
                    expected = 1.0 / ((1.0 - ps) * (1.0 - chi_p * ps))
                    assert abs(prod - expected) <= 1e-12 * abs(expected)


class TestTruncatedEulerProduct:
    def test_rationals_s3(self):
        v = truncated_euler_product(make_rationals(), 3, 100)
        assert abs(v - ZETA3_ORACLE) < 5.1e-5

    def test_monotone_growth_to_basel(self):
        prev = 0.0
        for bound in (10, 50, 200, 1000):
            v = truncated_euler_product(make_rationals(), 2, bound).real
            assert v > prev
            prev = v
        assert abs(prev - 1.6449340668) < 1e-3

    def test_f5_approaches_closed_form(self):
        v = truncated_euler_product(make_rational_function_field(5), 2, 25)
        assert abs(v - 125.0 / 96.0) < 5e-3

    def test_requires_convergence_halfplane(self):
        with pytest.raises(DomainError):
            truncated_euler_product(make_rationals(), 1.0, 100)
        with pytest.raises(DomainError):
            truncated_euler_product(make_rationals(), 0.5 + 3j, 100)


# ---------------------------------------------------------------------------
# L-polynomials from point counts
# ---------------------------------------------------------------------------

class TestLpolyFromPointCounts:
    def test_genus_one_over_f5(self):
        lp = lpoly_from_point_counts(5, 1, [9])
        assert lp.coefficients == (1, 3, 5)
        # the count itself comes from an actual curve: y^2 = x^3 + x + 1
        assert oracles.elliptic_point_count_f5() == 9
        # and the zeta expansion of P reproduces N_1 = 9
        assert oracles.log_zeta_series_counts([1, 3, 5], 5, 1) == [9]

    def test_genus_zero(self):
        assert lpoly_from_point_counts(5, 0, []).coefficients == (1,)

    def test_genus_two_newton_example(self):
        lp = lpoly_from_point_counts(2, 2, [3, 5])
        assert lp.coefficients == (1, 0, 0, 0, 4)
        assert oracles.log_zeta_series_counts([1, 0, 0, 0, 4], 2, 2) == [3, 5]

    def test_count_length_mismatch(self):
        with pytest.raises(DomainError):
            lpoly_from_point_counts(5, 2, [9])

    def test_counts_must_be_positive(self):
        with pytest.raises(DomainError):
            lpoly_from_point_counts(5, 1, [0])

    def test_non_integer_newton_output(self):
        with pytest.raises(DomainError):
            lpoly_from_point_counts(2, 2, [2, 5])

    def test_weil_bound_warning_is_nonfatal(self):
        with pytest.warns(WeilBoundWarning):
            lp = lpoly_from_point_counts(5, 1, [30])
        assert lp.coefficients[1] == 24  # a_1 = N_1 - (q+1)

    def test_no_warning_for_honest_counts(self):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", WeilBoundWarning)
            lpoly_from_point_counts(5, 1, [9])

    @settings(max_examples=80, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 4, 5]),
        genus=st.integers(1, 3),
        data=st.data(),
    )
    def test_symmetry_preserved_for_random_counts(self, q, genus, data):
        import warnings as _w

        counts = []
        for m in range(1, genus + 1):
            bound = math.floor(2 * genus * math.sqrt(q) ** m)
            counts.append(
                data.draw(st.integers(max(1, q ** m + 1 - bound), q ** m + 1 + bound))
            )
        try:
            with _w.catch_warnings():
                _w.simplefilter("ignore", WeilBoundWarning)
                lp = lpoly_from_point_counts(q, genus, counts)
        except DomainError:
            assume(False)
            return
        assert lp.symmetry_violation(q) is None
        assert lp.coefficients[0] == 1


# ---------------------------------------------------------------------------
# Field-spec grammar
# ---------------------------------------------------------------------------

class TestFieldSpecGrammar:
    def test_round_trips(self):
        for spec in ("Q", "Q(sqrt=-1)", "Q(sqrt=5)", "Fq(T)?q=5", "curve?q=5&L=1,3,5"):
            assert field_spec_string(parse_field_spec(spec)) == spec

    def test_counts_form(self):
        f = parse_field_spec("curve?q=5&N=9")
        assert f.lpoly.coefficients == (1, 3, 5)

    def test_errors_name_token(self):
        with pytest.raises(DomainError, match="sqrt"):
            parse_field_spec("Q(sqrt=x)")
        with pytest.raises(DomainError, match="exactly the parameter q"):
            parse_field_spec("Fq(T)?p=5")
        with pytest.raises(DomainError, match="L= or N="):
            parse_field_spec("curve?q=5")
        with pytest.raises(DomainError, match="L= or N="):
            parse_field_spec("curve?q=5&L=1,3,5&N=9")
        with pytest.raises(DomainError, match="'foo'"):
            parse_field_spec("curve?q=5&L=1,3,5&foo=1")
        with pytest.raises(DomainError, match="unrecognized"):
            parse_field_spec("Z")
        with pytest.raises(DomainError, match="coefficient"):
            parse_field_spec("curve?q=5&L=1,x,5")

    def test_construction_errors_propagate(self):
        with pytest.raises(SymmetryError):
            parse_field_spec("curve?q=5&L=1,3,7")
        with pytest.raises(DomainError):
            parse_field_spec("Q(sqrt=12)")
        with pytest.raises(DomainError):
            parse_field_spec("Fq(T)?q=6")
