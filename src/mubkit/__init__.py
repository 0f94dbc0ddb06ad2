"""Construction and exact verification of mutually unbiased bases in
square dimensions, via Latin squares, nets and generalized Hadamard
matrices, plus a tensor combiner and a count planner."""

from .cyclotomic import Cyclotomic, IntPolynomial, cyclo_poly, root
from .galois import GField, prime_power
from .hadamard import GenHadamard, char_table, dft, tensor_hadamard, verify_hadamard
from .latin import (
    LatinSquare,
    MolsSet,
    NotLatinError,
    NotOrthogonalError,
    best_mols,
    complete_mols_prime_power,
    cyclic_square,
    import_mols,
    export_mols,
    macneish_product,
)
from .mub import (
    MubBasis,
    MubReport,
    MubSet,
    MubVector,
    VerificationFailedError,
    build_mubs,
    embed,
    export_mubs,
    import_mubs,
    inner_product,
    standard_basis,
    tensor_mubs,
    verify_mubs,
)
from .net import IncidenceVector, Net, load_net, mols_from_net, net_from_mols, save_net, verify_net
from .planner import ImportsTable, Plan, PlanNode, plan
from .serial import ParseError

__version__ = "0.1.0"

__all__ = [
    "Cyclotomic",
    "GField",
    "GenHadamard",
    "ImportsTable",
    "IncidenceVector",
    "IntPolynomial",
    "LatinSquare",
    "MolsSet",
    "MubBasis",
    "MubReport",
    "MubSet",
    "MubVector",
    "Net",
    "NotLatinError",
    "NotOrthogonalError",
    "ParseError",
    "Plan",
    "PlanNode",
    "VerificationFailedError",
    "best_mols",
    "build_mubs",
    "char_table",
    "complete_mols_prime_power",
    "cyclic_square",
    "cyclo_poly",
    "dft",
    "embed",
    "export_mols",
    "export_mubs",
    "import_mols",
    "import_mubs",
    "inner_product",
    "load_net",
    "macneish_product",
    "mols_from_net",
    "net_from_mols",
    "plan",
    "prime_power",
    "root",
    "save_net",
    "standard_basis",
    "tensor_hadamard",
    "tensor_mubs",
    "verify_hadamard",
    "verify_mubs",
    "verify_net",
]
