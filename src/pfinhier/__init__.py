"""Exact computational kernel for the PFIN success-probability hierarchy.

The package answers membership, ordering, and structure queries about
the set of probabilities at which probabilistic finite learning power
changes, entirely over exact rationals: classification, predecessors,
limit sequences, interval enumeration, equivalence decision, optimal
tree labelings, order types in Cantor normal form, and conversion of
probabilistic machine traces into deterministic teams.

Every exported name is imported from its submodule on first access
(PEP 562), so `import pfinhier` and the command line load only the
modules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_SUBMODULE_OF = {
    name: module
    for module, names in (
        ("errors", (
            "ConsistencyError", "DomainError", "FloorError", "HierarchyError",
            "InputError",
        )),
        ("hierarchy", ("Classification", "Hierarchy")),
        ("minimal_sets", (
            "MinimalSet", "component_pool", "find_smallest", "prune_dominated",
        )),
        ("ordinals", (
            "OMEGA", "Ordinal", "alpha_at", "format_ordinal", "nat_add", "nat_mul",
            "omega_pow", "ord_add", "ord_mul", "ord_sub", "parse_ordinal",
        )),
        ("rationals", ("ExactRational", "format_rational", "parse_rational")),
        ("rules", (
            "apply_rule", "contribution", "h_inverse", "h_map",
            "is_valid_application", "solve_weights",
        )),
        ("teams", (
            "MachineTrace", "SimulationContext", "TeamAllocation", "format_trace",
            "g_function", "g_prime", "make_context", "parse_trace",
            "simulate_team", "team_size",
        )),
        ("trees", (
            "Labeling", "format_labeling", "format_tree", "integer_labeling",
            "p_of_tree", "parse_labeling", "parse_tree", "rational_labeling",
            "scale_labeling", "validate_labeling",
        )),
    )
    for name in names
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
