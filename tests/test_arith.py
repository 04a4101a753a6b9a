import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from stickelberger.arith import (
    _MR_BASES,
    _MR_EXTRA_WITNESSES,
    _MR_PSI,
    _is_irreducible,
    _miller_rabin,
    _poly_powmod,
    _slot_width,
    canon_power,
    factorize,
    ff_mul,
    ff_pow,
    ff_trace,
    field_make,
    is_prime,
    multiplicative_order,
    packed_mul,
    primitive_root,
    residue_char_exponent,
    signed_packed_mul,
)
from reference import (
    ff_elements,
    irreducible_by_trial_division,
    is_prime_first_bases,
    smallest_prime_with_order,
)

ODD_PRIMES_TO_100 = [p for p in range(3, 101) if is_prime(p)]


def brute_force_primitive_root(p):
    """Independent oracle: exhaustive multiplicative-order check."""
    for v in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * v % p
            seen.add(x)
        if len(seen) == p - 1:
            return v
    raise AssertionError


class TestPrimes:
    def test_small_values(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_bigger_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
        assert not is_prime(341)  # Fermat pseudoprime base 2
        assert not is_prime(3215031751)  # strong pseudoprime to 2,3,5,7

    @pytest.mark.parametrize("psi, k", _MR_PSI)
    def test_every_psi_is_rejected(self, psi, k):
        # psi_k passes the first k bases, so is_prime must run more of them
        assert _miller_rabin(psi, _MR_EXTRA_WITNESSES[:k])
        assert not is_prime(psi)

    def test_psi_12_is_composite(self):
        psi_12 = 318665857834031151167461
        assert psi_12 == 399165290221 * 798330580441
        assert not is_prime(psi_12)

    @pytest.mark.parametrize("psi", [psi for psi, _ in _MR_PSI])
    def test_agrees_with_all_40_bases_around_each_psi(self, psi):
        for n in range(psi - 2000, psi + 2001):
            if n > _MR_EXTRA_WITNESSES[-1]:
                assert is_prime(n) == _miller_rabin(n, _MR_EXTRA_WITNESSES), n

    @pytest.mark.parametrize(
        "bound, factors, bases",
        [
            (4_759_123_141, (48781, 97561), (2, 7, 61)),
            (1_122_004_669_633, (611557, 1834669), (2, 13, 23, 1_662_803)),
        ],
    )
    def test_jaeschke_bounds_are_strong_pseudoprimes(self, bound, factors, bases):
        # the bound is the first composite the bases let through, so an n at
        # the bound must reach the next row of the table
        assert (bound, bases) in _MR_BASES
        assert factors[0] * factors[1] == bound
        assert _miller_rabin(bound, bases)
        assert not is_prime(bound)

    @pytest.mark.parametrize("centre", [1024**2, 4_759_123_141, 1_122_004_669_633])
    def test_agrees_with_the_first_bases_near_each_bound(self, centre):
        for n in range(centre - 2000, centre + 2001):
            assert is_prime(n) == is_prime_first_bases(n), n

    def test_agrees_with_the_first_bases_on_a_seeded_sample(self):
        rng = random.Random(10)
        primes = 0
        for bits in range(2, 91):
            for _ in range(150):
                n = rng.getrandbits(bits) | 1 << (bits - 1)
                assert is_prime(n) == is_prime_first_bases(n), n
                primes += is_prime(n)
        assert primes > 300

    def test_agrees_with_a_sieve(self):
        # crosses 1024^2, below which the gcds with the small primes decide
        n = 1_100_000
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for d in range(2, int(n**0.5) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, n, d)))
        assert [m for m in range(n) if is_prime(m)] == [m for m in range(n) if sieve[m]]

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(97) == {97: 1}
        assert factorize(1) == {}


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3
        assert primitive_root(3) == 2

    def test_rejects_non_odd_primes(self):
        for bad in (1, 2, 4, 9, 15):
            with pytest.raises(ValueError):
                primitive_root(bad)

    @pytest.mark.parametrize("p", [p for p in range(3, 501) if is_prime(p)])
    def test_order_is_exactly_p_minus_1(self, p):
        assert multiplicative_order(primitive_root(p), p) == p - 1

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_100[:10])
    def test_matches_brute_force(self, p):
        assert primitive_root(p) == brute_force_primitive_root(p)


class TestCanonPower:
    def test_examples(self):
        assert canon_power(2, -1, 5) == 3  # 2*3 = 1 mod 5
        assert canon_power(2, 0, 5) == 1
        assert canon_power(3, -3, 7) == 6  # 3^3 = 6, 6*6 = 1 mod 7

    def test_rejects_multiple_of_p(self):
        with pytest.raises(ValueError):
            canon_power(10, 2, 5)

    @settings(max_examples=1000, deadline=None)
    @given(
        p=st.sampled_from(ODD_PRIMES_TO_100),
        v=st.integers(min_value=1, max_value=10**6),
        k=st.integers(min_value=-500, max_value=500),
    )
    def test_inverse_pairs(self, p, v, k):
        if v % p == 0:
            v += 1
        assert canon_power(v, k, p) * canon_power(v, -k, p) % p == 1


def schoolbook_mul(a, b, p, length):
    """Reference for packed_mul: the quadratic convolution, truncated."""
    out = [0] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] = (out[i + j] + x * y) % p
    return out


@st.composite
def residue_product_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 257, 9973, 2**61 - 1]))
    # p-1-heavy entries stress the slot width; zeros stress the padding
    entry = st.one_of(st.integers(0, p - 1), st.just(p - 1), st.just(0))
    a = draw(st.lists(entry, min_size=1, max_size=40))
    b = draw(st.lists(entry, min_size=1, max_size=40))
    stop = draw(st.integers(1, len(a) + len(b) + 3))
    start = draw(st.integers(0, stop))
    return p, a, b, stop, start


class TestPackedMul:
    @settings(max_examples=400, deadline=None)
    @given(residue_product_case())
    def test_equals_schoolbook(self, case):
        p, a, b, stop, start = case
        assert packed_mul(a, b, p, stop, start) == schoolbook_mul(a, b, p, stop)[start:]

    @pytest.mark.parametrize("p", [2, 3, 9973, 2**61 - 1])
    def test_edge_inputs(self, p):
        top = p - 1
        assert packed_mul([top], [top], p, 1) == [top * top % p]
        assert packed_mul([0] * 7, [top] * 5, p, 12) == [0] * 12
        full = [top] * 64
        assert packed_mul(full, full, p, 127) == schoolbook_mul(full, full, p, 127)
        assert packed_mul([], full, p, 3) == [0, 0, 0]

    # (computed slot width in bytes, p): eight entries of p - 1 make the
    # product coefficient 8 (p-1)^2 of exactly 8 * width bits, a full top
    # slot.  Widths 1, 2 and 4 are packed by struct, 3 is widened to 4.
    @pytest.mark.parametrize(
        "width,p",
        [
            (1, 5),
            (2, 89),
            (3, 1447),
            (4, 23167),
            (5, 370723),
            (7, 94906249),
            (8, 1518500213),
            (9, 24296003933),
        ],
    )
    def test_slot_width_boundaries(self, width, p):
        top = p - 1
        assert (8 * top**2).bit_length() == 8 * width
        assert _slot_width(8 * width) == (4 if width == 3 else width)
        full = [top] * 8
        mixed = [(i * i * 7919 + i) % p for i in range(20)]
        for a, b in ((full, full), (full, [top] * 20), (mixed, full)):
            length = len(a) + len(b) - 1
            for start, stop in ((0, length), (1, length), (7, 9), (length - 1, length)):
                assert packed_mul(a, b, p, stop, start) == (
                    schoolbook_mul(a, b, p, stop)[start:]
                )


@st.composite
def signed_product_case(draw):
    # very different magnitudes on the two sides stress the slot width
    def side():
        bits = draw(st.sampled_from([1, 7, 8, 64, 500]))
        top = 1 << bits
        entry = st.one_of(st.integers(-top, top), st.sampled_from([-top, top, 0]))
        return draw(st.lists(entry, min_size=1, max_size=30))

    return side(), side()


class TestSignedPackedMul:
    @settings(max_examples=400, deadline=None)
    @given(signed_product_case())
    def test_equals_schoolbook(self, case):
        a, b = case
        expected = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                expected[i + j] += x * y
        assert signed_packed_mul(a, b) == expected

    def test_edge_inputs(self):
        assert signed_packed_mul([0, 0], [5, -3, 2]) == [0, 0, 0, 0]
        assert signed_packed_mul([-1], [-1]) == [1]
        # 255 * 255 fills one byte exactly; the sign needs a second
        assert signed_packed_mul([-255, 255], [255]) == [-65025, 65025]
        big = -(1 << 300)
        assert signed_packed_mul([big] * 3, [big, 1]) == [
            big * big, big * big + big, big * big + big, big,
        ]

    # computed slot width in bytes: eight entries of +-m with 8 m^2 of
    # exactly 8 * width - 1 bits, so the sign bit fills the top slot
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8, 9])
    def test_slot_width_boundaries(self, width):
        m = isqrt((2 ** (8 * width - 1) - 1) // 8)
        assert (8 * m * m).bit_length() == 8 * width - 1
        assert _slot_width(8 * width) == (4 if width == 3 else width)
        alternating = [m, -m] * 4
        for a, b in (
            ([m] * 8, [m] * 8),
            ([m] * 8, [-m] * 8),
            (alternating, alternating),
            ([-m] * 8, [m, 0, -m] * 5),
        ):
            expected = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    expected[i + j] += x * y
            assert signed_packed_mul(a, b) == expected


# Every pair with p < 80, q < 60 and at most 2^16 field elements.
FIELD_PAIRS = [
    (p, q)
    for p in ODD_PRIMES_TO_100
    if p < 80
    for q in range(2, 60)
    if is_prime(q) and q != p and q ** multiplicative_order(q, p) <= 2**16
]


def reference_modulus(q, f):
    """The first irreducible x^f + c_(f-1) x^(f-1) + ... + c_0, counting
    n = c_0 + c_1 q + ... in base q, by trial division."""
    for n in range(q**f):
        modulus = tuple(n // q**i % q for i in range(f)) + (1,)
        if irreducible_by_trial_division(modulus, q):
            return modulus


def reference_generator(modulus, q, f):
    """The first element of order q^f - 1 in the same base-q count."""
    order = q**f - 1
    for n in range(1, q**f):
        x = tuple(n // q**i % q for i in range(f))
        if all(
            _poly_powmod(x, order // ell, modulus, q) != (1,) + (0,) * (f - 1)
            for ell in factorize(order)
        ):
            return x


class TestFieldMake:
    def test_inertial_degrees(self):
        assert field_make(5, 11).f == 1
        assert field_make(5, 3).f == 4
        assert field_make(7, 29).f == 1
        assert field_make(7, 2).f == 3
        assert field_make(11, 3).f == 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            field_make(5, 5)
        with pytest.raises(ValueError):
            field_make(4, 7)
        with pytest.raises(ValueError):
            field_make(5, 9)

    def test_zeta_image_has_order_p(self):
        for (p, q) in [(3, 7), (5, 3), (7, 2), (5, 31)]:
            fd = field_make(p, q)
            one = (1,) + (0,) * (fd.f - 1)
            x = fd.zeta_p_image
            assert x != one
            assert ff_pow(x, p, fd) == one

    def test_f_is_minimal(self):
        for (p, q) in [(5, 3), (7, 2), (11, 3), (5, 7)]:
            fd = field_make(p, q)
            assert pow(q, fd.f, p) == 1
            assert all(pow(q, k, p) != 1 for k in range(1, fd.f))

    @pytest.mark.parametrize("p, q", FIELD_PAIRS)
    def test_search_order_is_frozen(self, p, q):
        fd = field_make(p, q)
        f = multiplicative_order(q, p)
        modulus = reference_modulus(q, f)
        generator = reference_generator(modulus, q, f)
        if f == 1:
            assert (modulus, generator) == ((0, 1), (primitive_root(q),))
        zeta = _poly_powmod(generator, (q**f - 1) // p, modulus, q)
        assert (fd.modulus, fd.generator, fd.zeta_p_image) == (modulus, generator, zeta)


class TestIrreducible:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_every_monic_polynomial_up_to_4096(self, q):
        f = 1
        while q**f <= 4096:
            for n in range(q**f):
                modulus = tuple(n // q**i % q for i in range(f)) + (1,)
                expected = irreducible_by_trial_division(modulus, q)
                assert _is_irreducible(modulus, q, f) == expected, modulus
            f += 1

    def test_only_the_unit_step_rejects_a_product_of_degrees_dividing_f(self):
        # 1 + x + x^4 + x^6 = (x + 1)(x^2 + x + 1)(x^3 + x + 1) over F_2
        modulus = (1, 1, 0, 0, 1, 0, 1)
        x = (0, 1, 0, 0, 0, 0)
        assert _poly_powmod(x, 2**6, modulus, 2) == x
        assert not irreducible_by_trial_division(modulus, 2)
        assert not _is_irreducible(modulus, 2, 6)


class TestResidueChar:
    def test_one_maps_to_zero(self):
        for (p, q) in [(5, 11), (5, 3), (7, 2)]:
            fd = field_make(p, q)
            assert residue_char_exponent((1,) + (0,) * (fd.f - 1), fd) == 0

    def test_pth_powers_map_to_zero(self):
        fd = field_make(5, 11)
        for y in range(1, 11):
            assert residue_char_exponent((pow(y, 5, 11),), fd) == 0

    def test_fixed_example_p5_q11(self):
        # 3^2 = 9 must be some power of the order-5 element
        fd = field_make(5, 11)
        c = residue_char_exponent((3,), fd)
        assert ff_pow((3,), 2, fd) == ff_pow(fd.zeta_p_image, c, fd)

    def test_rejects_zero(self):
        fd = field_make(5, 11)
        with pytest.raises(ValueError):
            residue_char_exponent((0,), fd)

    @pytest.mark.parametrize("pair", [(5, 11), (5, 3), (7, 2), (3, 13)])
    def test_homomorphism(self, pair):
        fd = field_make(*pair)
        elements = list(ff_elements(fd))
        sample = elements[:: max(1, len(elements) // 20)]
        for x in sample:
            for y in sample:
                cx = residue_char_exponent(x, fd)
                cy = residue_char_exponent(y, fd)
                cxy = residue_char_exponent(ff_mul(x, y, fd), fd)
                assert (cx + cy - cxy) % fd.p == 0


class TestTrace:
    def test_identity_on_prime_field(self):
        fd = field_make(5, 11)
        for a in range(11):
            assert ff_trace((a,), fd) == a

    def test_zero(self):
        fd = field_make(5, 3)
        assert ff_trace((0, 0, 0, 0), fd) == 0

    def test_f2_against_brute_force(self):
        fd = field_make(3, 5)  # f = 2
        assert fd.f == 2
        for x in ff_elements(fd):
            frob = ff_pow(x, 5, fd)
            total = tuple((a + b) % 5 for a, b in zip(x, frob))
            assert total[1] == 0
            assert ff_trace(x, fd) == total[0]

    @pytest.mark.parametrize("pair", [(5, 3), (7, 2), (3, 5)])
    def test_linear_and_frobenius_invariant(self, pair):
        fd = field_make(*pair)
        elements = list(ff_elements(fd))
        sample = elements[:: max(1, len(elements) // 15)]
        for x in sample:
            assert ff_trace(ff_pow(x, fd.q, fd), fd) == ff_trace(x, fd)
            for y in sample[:5]:
                sum_xy = tuple((a + b) % fd.q for a, b in zip(x, y))
                assert ff_trace(sum_xy, fd) == (ff_trace(x, fd) + ff_trace(y, fd)) % fd.q


def test_smallest_prime_with_order():
    assert smallest_prime_with_order(7, 3) == 2
    assert smallest_prime_with_order(5, 4) == 2  # 2 has order 4 mod 5
    assert smallest_prime_with_order(5, 1) == 11
    with pytest.raises(ValueError):
        smallest_prime_with_order(7, 4)
