"""Per-instance memoization for the kernel's query procedures."""

from functools import wraps


def memoized(guard):
    """Cache fn(owner, *args) on owner, keyed by args.

    A one-argument procedure is keyed by the argument itself, so its hits
    allocate nothing.

    guard(owner, *args) runs on every call, before the lookup, and raises
    on input the procedure refuses. The order matters: 0.5 and True hash
    and compare equal to Fraction(1, 2) and Fraction(1), so a lookup ahead
    of the guard would answer them from a warm cache.

    Each owner holds one dict per decorated procedure, created on its
    first miss, so answers never cross owners: two hierarchies with
    different floors keep separate caches. Raised errors are not cached.
    """

    def decorate(fn):
        slot = "_memo_" + fn.__qualname__

        if fn.__code__.co_argcount == 2:
            def lookup(owner, arg):
                guard(owner, arg)
                try:
                    return getattr(owner, slot)[arg]
                except (AttributeError, KeyError):
                    pass
                result = fn(owner, arg)
                vars(owner).setdefault(slot, {})[arg] = result
                return result
        else:
            def lookup(owner, *args):
                guard(owner, *args)
                try:
                    return getattr(owner, slot)[args]
                except (AttributeError, KeyError):
                    pass
                result = fn(owner, *args)
                vars(owner).setdefault(slot, {})[args] = result
                return result

        return wraps(fn)(lookup)

    return decorate
