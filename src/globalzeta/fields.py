"""Global-field descriptors, their places, and exact covolume data.

A global field is described either by a NumberFieldDescriptor (the
rationals or a quadratic field, carrying the signature (r1, r2) and the
fundamental discriminant) or by a FunctionFieldDescriptor (constant
field size q, genus g, and the integer L-polynomial P with deg P = 2g).

The covolume of the field inside its adeles is sqrt|D| for number
fields and q^(g-1) in positive characteristic; both closed forms are
kept exact where the data allows.
"""

from __future__ import annotations

import cmath
import math
import warnings
from bisect import bisect_right
from functools import reduce
from itertools import compress, repeat
from operator import itemgetter, mul
from typing import NamedTuple

from . import ffield
from .errors import DomainError, SymmetryError, WeilBoundWarning
from .arith import MAX_ABS_S, POLE_EXCLUSION_RADIUS, _as_complex, _is_squarefree, _require_log_term, kronecker_chi

#: Largest norm bound enumerate_places accepts.  A number field sieves
#: the primes up to it, GF(q)(T) the q^d codes of the largest degree d
#: with q^d <= bound: about 15 ms and 0.3 s (q = 2) on one x86 core.
MAX_NORM_BOUND = 2**17

# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class NumberFieldDescriptor(NamedTuple):
    """The rationals or a quadratic field Q(sqrt d).

    r1 and r2 count real and imaginary places; r1 + 2*r2 is the degree.
    discriminant is 1 for Q and the fundamental discriminant otherwise.
    """

    kind: str  # 'rationals' | 'quadratic'
    d: int
    discriminant: int
    r1: int
    r2: int

    @property
    def degree(self) -> int:
        return self.r1 + 2 * self.r2


class _LPolynomialFields(NamedTuple):
    coefficients: tuple[int, ...]


class LPolynomial(_LPolynomialFields):
    """Integer numerator P(T) of a function-field zeta, a_0 = 1, deg = 2g.

    The constructor converts the coefficients to int and only pins
    a_0 = 1 and even degree; the coefficient symmetry
    a[2g-i] = q^(g-i) a[i] involves q and is enforced by
    make_curve_function_field.
    """

    __slots__ = ()

    def __new__(cls, coefficients):
        coeffs = tuple(int(c) for c in coefficients)
        if not coeffs:
            raise DomainError("LPolynomial needs at least the constant coefficient")
        if coeffs[0] != 1:
            raise DomainError(f"LPolynomial constant coefficient must be 1, got {coeffs[0]}")
        if (len(coeffs) - 1) % 2 != 0:
            raise DomainError(f"LPolynomial degree must be even, got {len(coeffs) - 1}")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def genus(self) -> int:
        return self.degree // 2

    def __call__(self, t: complex) -> complex:
        acc = complex(0.0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def symmetry_violation(self, q: int) -> int | None:
        """First index i with a[2g-i] != q^(g-i) a[i], or None."""
        g = self.genus
        a = self.coefficients
        for i in range(g + 1):
            if a[2 * g - i] != q ** (g - i) * a[i]:
                return i
        return None


class FunctionFieldDescriptor(NamedTuple):
    """A function field of genus g over the constant field GF(q)."""

    q: int
    genus: int
    lpoly: LPolynomial


FieldDescriptor = NumberFieldDescriptor | FunctionFieldDescriptor


class Place(NamedTuple):
    """One place of a global field as its output row: the residual
    cardinality q_v, the kind and the printed label ("inf", a monic
    irreducible such as "T^2+T+1", or a rational prime "p", with "p#1"
    and "p#2" for the two places above a split prime)."""

    qv: int
    kind: str  # 'rational_prime' | 'monic_irreducible' | 'infinite'
    label: str


def _poly_labels(polys, q: int, degree: int) -> list[str]:
    # e.g. "T^3+2T+1": nonzero terms from the top, coefficient 1 unprinted.
    # tables[j][c] is the text of c T^(degree - j), "" for c = 0, so each
    # label is one C-level join over lookups.
    powers = ["", "T", *[f"T^{i}" for i in range(2, degree + 1)]]
    tables = [
        ["", powers[i] or "1", *[f"{c}{powers[i]}" for c in range(2, q)]]
        for i in range(degree, -1, -1)
    ]
    return ["+".join(filter(None, map(list.__getitem__, tables, reversed(poly)))) for poly in polys]


# ---------------------------------------------------------------------------
# Small integer helpers
# ---------------------------------------------------------------------------

def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((n - i * i) // i + 1)
    return list(compress(range(n + 1), sieve))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_rationals() -> NumberFieldDescriptor:
    """The degree-1 base case: Q with discriminant 1 and one real place."""
    return NumberFieldDescriptor(kind="rationals", d=1, discriminant=1, r1=1, r2=0)


def make_quadratic(d: int) -> NumberFieldDescriptor:
    """Q(sqrt d) for squarefree d not in {0, 1}.

    The discriminant is d itself when d = 1 mod 4 and 4d otherwise;
    the signature is (2, 0) for real and (0, 1) for imaginary fields.
    """
    if d in (0, 1):
        raise DomainError(f"make_quadratic: d must not be {d}")
    if not _is_squarefree(d):
        raise DomainError(f"make_quadratic: d = {d} is not squarefree")
    disc = d if d % 4 == 1 else 4 * d
    r1, r2 = (2, 0) if d > 0 else (0, 1)
    return NumberFieldDescriptor(kind="quadratic", d=d, discriminant=disc, r1=r1, r2=r2)


def make_rational_function_field(q: int) -> FunctionFieldDescriptor:
    """GF(q)(T): genus 0, trivial L-polynomial."""
    if ffield.factor_prime_power(q) is None:
        raise DomainError(f"make_rational_function_field: {q!r} is not a prime power")
    return FunctionFieldDescriptor(q=q, genus=0, lpoly=LPolynomial((1,)))


def make_curve_function_field(q: int, lpoly) -> FunctionFieldDescriptor:
    """Function field with the given L-polynomial over GF(q).

    Rejects coefficient lists violating the symmetry
    a[2g-i] = q^(g-i) a[i] with SymmetryError; that symmetry is the
    positive-characteristic functional equation and is an invariant of
    every constructible descriptor.
    """
    if ffield.factor_prime_power(q) is None:
        raise DomainError(f"make_curve_function_field: {q!r} is not a prime power")
    if not isinstance(lpoly, LPolynomial):
        lpoly = LPolynomial(tuple(lpoly))
    witness = lpoly.symmetry_violation(q)
    if witness is not None:
        g = lpoly.genus
        a = lpoly.coefficients
        raise SymmetryError(
            f"L-polynomial symmetry fails at index {witness}: "
            f"a[{2 * g - witness}] = {a[2 * g - witness]} != "
            f"{q ** (g - witness)} * {a[witness]}"
        )
    return FunctionFieldDescriptor(q=q, genus=lpoly.genus, lpoly=lpoly)


def lpoly_from_point_counts(q: int, genus: int, counts) -> LPolynomial:
    """L-polynomial from point counts N_1..N_g over GF(q^m).

    The power sums of the inverse roots are p_m = q^m + 1 - N_m; the
    first g+1 coefficients follow from Newton's identities
    m a_m = -sum_{j<m} a_j p_(m-j), and the upper half is filled in by
    the symmetry a[2g-i] = q^(g-i) a[i].  Counts violating the Weil
    bound |a_i| <= C(2g,i) q^(i/2) trigger a WeilBoundWarning but are
    not rejected.
    """
    if ffield.factor_prime_power(q) is None:
        raise DomainError(f"lpoly_from_point_counts: {q!r} is not a prime power")
    counts = list(counts)
    if genus < 0:
        raise DomainError("lpoly_from_point_counts: genus must be >= 0")
    if len(counts) != genus:
        raise DomainError(
            f"lpoly_from_point_counts: expected {genus} counts, got {len(counts)}"
        )
    if any(int(n) != n or n <= 0 for n in counts):
        raise DomainError("lpoly_from_point_counts: counts must be positive integers")
    power_sums = [q ** m + 1 - int(counts[m - 1]) for m in range(1, genus + 1)]
    coeffs = [1]
    for m in range(1, genus + 1):
        acc = sum(coeffs[j] * power_sums[m - 1 - j] for j in range(m))
        if acc % m:
            g = math.gcd(acc, m)
            raise DomainError(
                f"lpoly_from_point_counts: counts give non-integer coefficient a_{m} = {-acc // g}/{m // g}"
            )
        coeffs.append(-acc // m)
    for i in range(genus - 1, -1, -1):
        coeffs.append(q ** (genus - i) * coeffs[i])
    for i, c in enumerate(coeffs):
        bound_sq = math.comb(2 * genus, i) ** 2 * q ** i
        if c * c > bound_sq:
            warnings.warn(
                f"coefficient a_{i} = {c} violates the Weil bound "
                f"|a_{i}| <= C({2 * genus},{i}) q^({i}/2)",
                WeilBoundWarning,
                stacklevel=2,
            )
            break
    return LPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# Covolume
# ---------------------------------------------------------------------------

def covolume(field: FieldDescriptor):
    """Adelic covolume: sqrt|D| for number fields, q^(g-1) for function fields.

    Exact where the data allows: an int when |D| is a perfect square,
    a Fraction in positive characteristic, a float otherwise.
    """
    if isinstance(field, FunctionFieldDescriptor):
        # imported here: fractions (with decimal) costs a cold process
        # about 3 ms, and no other path needs it
        from fractions import Fraction

        return Fraction(field.q) ** (field.genus - 1)
    n = abs(field.discriminant)
    r = math.isqrt(n)
    if r * r == n:
        return r
    return math.sqrt(n)


def log_covolume(field: FieldDescriptor) -> float:
    """log of the covolume, computed from exact data."""
    if isinstance(field, FunctionFieldDescriptor):
        return (field.genus - 1) * math.log(field.q)
    return 0.5 * math.log(abs(field.discriminant))


# ---------------------------------------------------------------------------
# Places and Euler factors
# ---------------------------------------------------------------------------

def _require_prime(p: int, caller: str) -> None:
    if ffield.factor_prime_power(p) != (p, 1):
        raise DomainError(f"{caller}: {p!r} is not prime")


#: How a rational prime p behaves in a quadratic field, by chi_D(p).
_SPLITTING_TYPE = {1: "split", -1: "inert", 0: "ramified"}


def _splitting_types(D: int, primes: list[int]) -> list[str]:
    # chi_D is periodic mod |D|, so one kronecker_chi call per residue
    # class serves every prime in it; a class sharing a factor with D
    # holds only ramified primes (chi = 0) and needs no call.
    q = abs(D)
    residues = [p % q for p in primes]
    memo = {
        r: _SPLITTING_TYPE[kronecker_chi(D, r) if math.gcd(r, q) == 1 else 0]
        for r in set(residues)
    }
    return list(map(memo.__getitem__, residues))


def _number_field_places(field: NumberFieldDescriptor, primes: list[int], norm_bound: int) -> list[Place]:
    # The places above the ascending primes with q_v <= norm_bound, in
    # output order: a split p gives "p#1" and "p#2", an inert p one place
    # of norm p^2, a ramified p (or any p of Q) one place "p".  Rows are
    # built and sorted by C-level loops, with no Python call per place.
    if field.kind == "rationals":
        split, inert, single = [], [], primes
    else:
        types = _splitting_types(field.discriminant, primes)
        split, inert, single = (
            list(compress(primes, map(name.__eq__, types))) for name in ("split", "inert", "ramified")
        )
        inert = inert[: bisect_right(inert, math.isqrt(norm_bound))]
    kind = "rational_prime"
    rows = [
        *zip(split, repeat(kind), map("{}#1".format, split)),
        *zip(split, repeat(kind), map("{}#2".format, split)),
        *zip(single, repeat(kind), map(str, single)),
        *zip(map(mul, inert, inert), repeat(kind), map(str, inert)),
    ]
    # stable: each "p#1" stays ahead of its "p#2"
    rows.sort(key=itemgetter(0))
    return list(map(tuple.__new__, repeat(Place), rows))


def splitting_type(field: NumberFieldDescriptor, p: int) -> str:
    """'split', 'inert' or 'ramified' for a rational prime p in a quadratic field."""
    if not isinstance(field, NumberFieldDescriptor) or field.kind != "quadratic":
        raise DomainError("splitting_type: field must be quadratic")
    _require_prime(p, "splitting_type")
    return _splitting_types(field.discriminant, [p])[0]


def places_above(field: NumberFieldDescriptor, p: int) -> list[Place]:
    """The places of a number field lying above the rational prime p."""
    if not isinstance(field, NumberFieldDescriptor):
        raise DomainError("places_above: field must be a number field")
    _require_prime(p, "places_above")
    return _number_field_places(field, [p], p * p)


def enumerate_places(field: FieldDescriptor, norm_bound: int) -> list[Place]:
    """All places with q_v <= norm_bound in deterministic order.

    Order is ascending q_v.  In GF(q)(T) the infinite place comes first,
    then the monic irreducibles of each degree in lexicographic order of
    their coefficients (c_0, c_1, ...), constant term first.  In a number
    field, places of equal q_v lie above one split prime and come in
    slot order.  Curve fields of positive genus carry no place list
    (their zeta comes from the closed rational form) and are rejected,
    as is a norm_bound above MAX_NORM_BOUND.
    """
    if norm_bound < 2:
        raise DomainError("enumerate_places: norm_bound must be >= 2")
    if norm_bound > MAX_NORM_BOUND:
        raise DomainError(f"enumerate_places: norm_bound = {norm_bound} exceeds MAX_NORM_BOUND = {MAX_NORM_BOUND}")
    if isinstance(field, FunctionFieldDescriptor):
        if field.genus != 0:
            raise DomainError(
                "enumerate_places: positive-genus fields carry no explicit place list"
            )
        q = field.q
        out = [Place(q, "infinite", "inf")] if q <= norm_bound else []
        degree = 1
        while q ** degree <= norm_bound:
            labels = _poly_labels(sorted(ffield.monic_irreducibles(q, degree)), q, degree)
            out += map(tuple.__new__, repeat(Place), zip(repeat(q ** degree), repeat("monic_irreducible"), labels))
            degree += 1
        return out
    return _number_field_places(field, _primes_up_to(norm_bound), norm_bound)


def _require_abs_s(s: complex) -> None:
    # q^-s is exp(-s log q), whose phase Im(s) log q is rounded
    if abs(s) > MAX_ABS_S:
        raise DomainError(
            f"|s| = {abs(s):.17g} exceeds MAX_ABS_S = {MAX_ABS_S:g}; "
            "the phase of q^-s carries a rounding error of about |Im s| 2^-53"
        )


def _inverse_factors(s: complex, qvs: list[int]) -> list[complex]:
    # (1 - q_v^-s)^-1 for each q_v, with q_v^-s = exp(-s log q_v), in
    # C-level loops; complex.__rsub__ and __rtruediv__ with 1.0 are the
    # operations 1.0 - z and 1.0 / z themselves.
    _require_abs_s(s)
    _require_log_term(s, -s.real * math.log(max(qvs, default=1)))
    neg_s = -s
    denoms = list(map(complex.__rsub__, map(cmath.exp, map(neg_s.__mul__, map(math.log, qvs))), repeat(1.0)))
    if min(map(abs, denoms), default=1.0) < POLE_EXCLUSION_RADIUS:
        raise DomainError(f"1 - q_v^-s is within {POLE_EXCLUSION_RADIUS} of 0 at s = {s!r}")
    return list(map(complex.__rtruediv__, denoms, repeat(1.0)))


def local_euler_factor(field: FieldDescriptor, place: Place, s) -> complex:
    """The local factor (1 - q_v^-s)^-1 of the Euler product at one place.

    A number field's place must be in places_above(field, p), q_v = p or
    p^2.  A function field's place must be one that enumerate_places lists
    up to its q_v, which refuses q_v > MAX_NORM_BOUND and positive genus.
    Raises DomainError where |s| > MAX_ABS_S or q_v^-s would pass
    exp(MAX_LOG_TERM).
    """
    s = _as_complex(s)
    if isinstance(field, FunctionFieldDescriptor):
        belongs = place.qv >= 2 and place in enumerate_places(field, place.qv)
    else:
        root = math.isqrt(max(place.qv, 0))
        p = root if root * root == place.qv else place.qv
        belongs = ffield.factor_prime_power(p) == (p, 1) and place in places_above(field, p)
    if not belongs:
        raise DomainError("local_euler_factor: place does not belong to the field")
    return _inverse_factors(s, [place.qv])[0]


def truncated_euler_product(field: FieldDescriptor, s, norm_bound: int) -> complex:
    """Product of local factors over all places with q_v <= norm_bound (Re s > 1).

    The factors are multiplied in place order, starting from 1.  Raises
    DomainError where |s| > MAX_ABS_S.
    """
    s = _as_complex(s)
    if s.real <= 1.0:
        raise DomainError("truncated_euler_product: requires Re s > 1")
    qvs = list(map(itemgetter(0), enumerate_places(field, norm_bound)))
    return reduce(mul, _inverse_factors(s, qvs), complex(1.0))


# ---------------------------------------------------------------------------
# Field-spec grammar (shared with the CLI)
# ---------------------------------------------------------------------------

def field_spec_string(field: FieldDescriptor) -> str:
    """Canonical spec string for a descriptor (inverse of parse_field_spec)."""
    if isinstance(field, FunctionFieldDescriptor):
        if field.genus == 0:
            return f"Fq(T)?q={field.q}"
        coeffs = ",".join(str(c) for c in field.lpoly.coefficients)
        return f"curve?q={field.q}&L={coeffs}"
    if field.kind == "rationals":
        return "Q"
    return f"Q(sqrt={field.d})"


def _parse_query(query: str, spec: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for chunk in query.split("&"):
        if "=" not in chunk:
            raise DomainError(f"field spec {spec!r}: bad parameter {chunk!r}")
        key, _, value = chunk.partition("=")
        if not key or not value:
            raise DomainError(f"field spec {spec!r}: bad parameter {chunk!r}")
        if key in params:
            raise DomainError(f"field spec {spec!r}: duplicate parameter {key!r}")
        params[key] = value
    return params


def _parse_int(value: str, what: str, spec: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DomainError(f"field spec {spec!r}: {what} {value!r} is not an integer") from None


def parse_field_spec(spec: str) -> FieldDescriptor:
    """Parse the field-spec grammar:

        "Q" | "Q(sqrt=<d>)" | "Fq(T)?q=<q>" |
        "curve?q=<q>&L=<a0,a1,...,a2g>" | "curve?q=<q>&N=<N1,...,Ng>"

    Errors name the offending token.
    """
    text = spec.strip()
    if text == "Q":
        return make_rationals()
    if text.startswith("Q(sqrt=") and text.endswith(")"):
        return make_quadratic(_parse_int(text[len("Q(sqrt=") : -1], "d", spec))
    if text.startswith("Fq(T)?"):
        params = _parse_query(text[len("Fq(T)?") :], spec)
        if set(params) != {"q"}:
            raise DomainError(f"field spec {spec!r}: expected exactly the parameter q")
        return make_rational_function_field(_parse_int(params["q"], "q", spec))
    if text.startswith("curve?"):
        params = _parse_query(text[len("curve?") :], spec)
        if "q" not in params:
            raise DomainError(f"field spec {spec!r}: missing parameter q")
        q = _parse_int(params["q"], "q", spec)
        if ("L" in params) == ("N" in params):
            raise DomainError(f"field spec {spec!r}: need exactly one of L= or N=")
        if set(params) - {"q", "L", "N"}:
            extra = sorted(set(params) - {"q", "L", "N"})[0]
            raise DomainError(f"field spec {spec!r}: unknown parameter {extra!r}")
        if "L" in params:
            coeffs = [_parse_int(t, "coefficient", spec) for t in params["L"].split(",")]
            return make_curve_function_field(q, coeffs)
        counts = [_parse_int(t, "count", spec) for t in params["N"].split(",")]
        return make_curve_function_field(q, lpoly_from_point_counts(q, len(counts), counts))
    raise DomainError(f"unrecognized field spec {spec!r}")
