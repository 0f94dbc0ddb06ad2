"""Construction and exact verification of mutually unbiased bases in
square dimensions, via Latin squares, nets and generalized Hadamard
matrices, plus a tensor combiner and a count planner.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a command that needs
only the planner never compiles the verifier.
"""

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("arith", "prime_power"),
        ("hadamard", "GenHadamard char_table dft tensor_hadamard verify_hadamard"),
        ("latin", "LatinSquare MolsSet NotLatinError NotOrthogonalError best_mols"
                  " complete_mols_prime_power cyclic_square import_mols export_mols"
                  " macneish_product"),
        ("mub", "MubBasis MubReport MubSet MubVector VerificationFailedError build_mubs"
                " embed export_mubs import_mubs standard_basis tensor_mubs verify_mubs"),
        ("net", "IncidenceVector Net load_net mols_from_net net_from_mols save_net verify_net"),
        ("planner", "ImportsTable Plan PlanNode plan"),
        ("serial", "ParseError"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
