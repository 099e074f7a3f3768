import math

import pytest
from hypothesis import given, strategies as st

from cyclicdensity import InvalidArgument
from cyclicdensity.arith import _MR_BOUND, _strong_probable_prime, euler_phi, factorize
from cyclicdensity.arith import unit_generators


def test_phi_small_values():
    # first values of the totient, plus phi(12) = 4 which the coset checks lean on
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
                10: 4, 12: 4, 16: 8, 255: 128, 256: 128}
    for k, want in expected.items():
        assert euler_phi(k) == want


def test_phi_rejects_nonpositive():
    with pytest.raises(InvalidArgument):
        euler_phi(0)
    with pytest.raises(InvalidArgument):
        euler_phi(-3)


def test_factorize_reconstructs():
    for k in (1, 2, 12, 97, 360, 1024, 3 ** 5 * 7):
        f = factorize(k)
        assert math.prod(p ** e for p, e in f.items()) == k
        assert all(_strong_probable_prime(p) for p in f)


def test_factorize_rejects_nonpositive():
    with pytest.raises(InvalidArgument, match=r"^factorize requires k >= 1, got 0$"):
        factorize(0)


# primality below _MR_BOUND, where _strong_probable_prime is exact

def test_is_prime_small():
    for k in range(-2, 300):
        naive = k > 1 and all(k % d for d in range(2, k))
        assert _strong_probable_prime(k) == naive


def test_is_prime_matches_trial_division_below_200000():
    assert [k for k in range(200_000)
            if _strong_probable_prime(k) != (factorize(max(k, 1)) == {k: 1})] == []


@pytest.mark.parametrize("k", [
    3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
])
def test_is_prime_refuses_strong_pseudoprimes_to_its_first_bases(k):
    # each is a strong pseudoprime to every prime base up to 7, 11, 13, 17
    # and 23 in turn, so it is refused only if the later bases are tried
    assert not _strong_probable_prime(k)


@pytest.mark.parametrize("k", [2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59])
def test_is_prime_accepts_large_primes(k):
    assert _strong_probable_prime(k)


def test_past_the_bound_a_failed_base_proves_a_composite():
    # at and above _MR_BOUND the strong probable-prime test still refuses
    # each composite that fails a base
    m89, m61 = 2 ** 89 - 1, 2 ** 61 - 1
    assert m89 * m61 > _MR_BOUND and _strong_probable_prime(m89)
    assert not _strong_probable_prime(m89 * m61)
    assert not _strong_probable_prime(_MR_BOUND + 1)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_phi_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


@given(st.integers(min_value=1, max_value=300))
def test_phi_by_direct_count(k):
    assert euler_phi(k) == sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)


@given(st.integers(min_value=1, max_value=200))
def test_divisor_phi_sum(n):
    # sum of phi(d) over divisors d of n equals n
    assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def test_unit_generators_generate_the_unit_group():
    # brute force: coprime, exact order as stated, and {1} closed under the
    # listed u is all phi(n) units mod n
    for n in range(1, 513):
        gens = unit_generators(n)
        for u, m in gens:
            assert math.gcd(u, n) == 1, (n, u)
            powers = [pow(u, k, n) for k in range(1, m + 1)]
            assert powers[-1] == 1 % n and 1 % n not in powers[:-1], (n, u, m)
        reached, frontier = {1 % n}, [1 % n]
        while frontier:
            x = frontier.pop()
            for u, _ in gens:
                if x * u % n not in reached:
                    reached.add(x * u % n)
                    frontier.append(x * u % n)
        assert len(reached) == euler_phi(n), n
    assert unit_generators(1) == unit_generators(2) == ()
