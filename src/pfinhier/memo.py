"""Per-instance memoization for the kernel's one-argument query procedures."""

from functools import wraps


def memoized(fn):
    """Cache fn(owner, arg) on owner, keyed by its exact-rational arg.

    Every decorated procedure takes one rational, so there is one lookup:
    the rational is keyed by its integer (numerator, denominator) pair.
    Hashing a Fraction itself runs a modular inverse on every call, while
    a pair of ints hashes cheaply. Fractions are kept in lowest terms, so
    equal values give equal pairs.

    The owner is a Hierarchy, and its guard owner._check(arg) runs on
    every call, before the key is built, and raises on input the
    procedure refuses. The order matters: the argument must be an exact
    rational by the time its pair is read, and 0.5 and True, which equal
    Fraction(1, 2) and Fraction(1), must never be answered from a warm
    cache.

    Each owner holds one dict per decorated procedure, created on its
    first miss, so answers never cross owners: two hierarchies with
    different floors keep separate caches. Raised errors are not cached.
    """
    slot = "_memo_" + fn.__qualname__

    @wraps(fn)
    def lookup(owner, arg):
        owner._check(arg)
        key = arg._numerator, arg._denominator
        try:
            return getattr(owner, slot)[key]
        except (AttributeError, KeyError):
            pass
        result = fn(owner, arg)
        vars(owner).setdefault(slot, {})[key] = result
        return result

    return lookup
