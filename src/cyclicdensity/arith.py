"""Number-theory helpers: trial-division factoring, a strong probable-prime
test, Euler's totient, unit generators."""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidArgument


def factorize(k: int) -> dict[int, int]:
    """Prime factorization of k >= 1 as {prime: exponent}."""
    if k < 1:
        raise InvalidArgument(f"factorize requires k >= 1, got {k}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            out[d] = out.get(d, 0) + 1
            k //= d
        d += 1 if d == 2 else 2
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


@lru_cache(maxsize=4096, typed=True)  # pure in k; the sweep asks for the same few orders
def euler_phi(k: int) -> int:
    """Count of integers in [1, k] coprime to k."""
    if k < 1:
        raise InvalidArgument(f"euler_phi requires k >= 1, got {k}")
    result = k
    for p in factorize(k):
        result -= result // p
    return result


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # the least strong pseudoprime to every base


def _strong_probable_prime(k: int) -> bool:
    """Whether k is a strong probable prime to each of _MR_BASES.  Every
    prime is, and no composite below _MR_BOUND (Sorenson and Webster, Math.
    Comp. 86 (2017) 985-1003), so below it the answer is exact in O(log k)
    products; a False is exact at any size."""
    if k < 2 or any(k % p == 0 for p in _MR_BASES):
        return k in _MR_BASES
    s = ((k - 1) & (1 - k)).bit_length() - 1  # k - 1 = d 2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (k - 1) >> s, k)
        if x == 1:
            continue
        for _ in range(s):  # a passes if some x^(2^r), r < s, is -1
            if x == k - 1:
                break
            x = x * x % k
        else:
            return False
    return True


@lru_cache(maxsize=1024, typed=True)
def unit_generators(n: int) -> tuple[tuple[int, int], ...]:
    """Generators u of (Z/n)^* with their exact orders m mod n, as ((u, m), ...).

    Per p^a exactly dividing n (Cohen, A Course in Computational Algebraic
    Number Theory, 1993, 1.4): -1 if a >= 2 and 5 if a >= 3 for p = 2; for
    odd p the least primitive root g mod p with g^(p-1) != 1 mod p^2, which
    is primitive mod every p^a.  Each is lifted by CRT to 1 mod n / p^a.
    """
    gens: list[tuple[int, int]] = []
    for p, a in factorize(n).items():
        pa = p ** a
        idem = n // pa * pow(n // pa, -1, pa)  # 1 mod p^a, 0 mod n / p^a
        if p == 2:
            local = [(pa - 1, 2), (5, pa // 4)][:a - 1]  # -1 if a >= 2, 5 if a >= 3
        else:
            g = next(g for g in range(2, 2 * p)  # r or r + p, r the least root
                     if g % p and all(pow(g, (p - 1) // q, p) != 1 for q in factorize(p - 1))
                     and pow(g, p - 1, p * p) != 1)
            local = [(g, pa // p * (p - 1))]
        gens += [((1 + (g - 1) * idem) % n, m) for g, m in local]
    return tuple(gens)


__all__ = ["factorize", "euler_phi", "unit_generators"]
