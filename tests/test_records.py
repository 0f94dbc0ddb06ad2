"""Records are named tuples: the import surface they keep small, and the
semantics the package relies on (reprs, equality, hashing, immutability,
checked construction, pickling)."""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys

import pytest

from mubkit.cyclotomic import Cyclotomic, IntPolynomial, root
from mubkit.hadamard import HadamardReport, dft, verify_hadamard
from mubkit.latin import MolsSet, NotLatinError, NotOrthogonalError, cyclic_square
from mubkit.mub import (
    MubBasis, MubReport, MubSet, MubVector, MubViolation, standard_basis, verify_mubs,
)
from mubkit.net import IncidenceVector, NetReport, NetViolation, net_from_mols
from mubkit.planner import ImportsTable, PlanNode, plan

from conftest import built_mubs

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, mubkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_no_module_imports_dataclasses():
    pkg = os.path.join(SRC, "mubkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                text = fh.read()
            assert not re.search(r"^\s*(from|import)\s+dataclasses\b", text, re.M), name


def test_reports_and_vectors_keep_their_reprs():
    assert repr(MubViolation("unbiasedness", 0, 1, 2, 3, "|S|^2 != 1/4")) == (
        "MubViolation(kind='unbiasedness', basis=0, index=1, basis2=2, index2=3, "
        "detail='|S|^2 != 1/4')")
    assert repr(MubReport("exact", 4, 2, (MubViolation("norm", 0, 1, 0, 1),))) == (
        "MubReport(mode='exact', dim=4, k=2, violations=(MubViolation(kind='norm', "
        "basis=0, index=1, basis2=0, index2=1, detail=''),))")
    assert repr(NetReport(2, 3, (NetViolation("weight", 0, 1, detail="weight 3, want 2"),))) == (
        "NetReport(s=2, k=3, violations=(NetViolation(kind='weight', block=0, index=1, "
        "block2=None, index2=None, detail='weight 3, want 2'),))")
    assert repr(HadamardReport(3, ((0, 1),))) == "HadamardReport(size=3, violations=((0, 1),))"
    leaf = PlanNode(2, "prime-power", 3, False, "cited-existence")
    assert repr(PlanNode(6, "tensor", 3, True, "tensor", (leaf,))) == (
        "PlanNode(d=6, kind='tensor', count=3, constructible=True, provenance='tensor', "
        "children=(PlanNode(d=2, kind='prime-power', count=3, constructible=False, "
        "provenance='cited-existence', children=()),))")
    assert repr(MubVector(dim=4, root_order=2, norm_sq=2, amps=((0, 0), (3, 1)))) == (
        "MubVector(dim=4, root_order=2, norm_sq=2, amps=((0, 0), (3, 1)), amps_float=None)")
    assert repr(MubVector(dim=2, root_order=1, norm_sq=1, amps_float=((1, 1j),))) == (
        "MubVector(dim=2, root_order=1, norm_sq=1, amps=None, amps_float=((1, 1j),))")


def test_cyclotomic_keeps_ring_equality_and_no_hash():
    a, zero = root(4, 0) + root(4, 2), Cyclotomic.zero(4)
    assert a.coeffs != zero.coeffs
    assert a == zero and not a != zero
    assert root(4, 1) != root(4, 3) and not root(4, 1) == root(4, 3)
    with pytest.raises(TypeError):
        hash(a)


def test_sets_compare_and_hash_by_dim_and_bases():
    x, y = standard_basis(3), standard_basis(3)
    assert x._fields == ("dim", "bases")
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert x != standard_basis(4) and not x == standard_basis(4)


def test_imports_tables_get_fresh_dicts():
    a, b = ImportsTable(), ImportsTable()
    a.mols_cited[10] = 2
    assert b == ImportsTable(mols={}, mubs={}, mols_cited={}) and a != b


def _one_of_each():
    vec = MubVector(dim=1, root_order=1, norm_sq=1, amps=((0, 0),))
    mols = MolsSet(2, (cyclic_square(2),))
    net = net_from_mols(mols)
    return [
        IntPolynomial.of(1, 1), root(3, 1), dft(2), verify_hadamard(dft(2)),
        cyclic_square(2), mols, net.blocks[0][0], net,
        NetViolation("weight", 0, 0), NetReport(2, 3, ()),
        vec, MubBasis((vec,)), standard_basis(1), MubViolation("norm", 0, 0, 0, 0),
        MubReport("exact", 1, 1, ()), PlanNode(2, "trivial", 1, True, "standard basis"),
        plan(6), ImportsTable(),
    ]


def test_fields_cannot_be_assigned():
    records = _one_of_each()
    assert len({type(r) for r in records}) == 18
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


@pytest.mark.parametrize("record, change, error, match", [
    (cyclic_square(3), {"grid": ((0, 1, 2), (0, 1, 2), (2, 0, 1))}, NotLatinError,
     "column 0 is not a permutation"),
    (MolsSet(3, (cyclic_square(3),)), {"squares": (cyclic_square(3), cyclic_square(3))},
     NotOrthogonalError, "squares 0 and 1 are not orthogonal"),
    (MolsSet(3, ()), {"order": 0}, ValueError, "order must be >= 1"),
    (MubVector(dim=2, root_order=2, norm_sq=1, amps=((0, 1),)), {"amps": ((0, 2),)},
     ValueError, "exponent 2 out of range for root order 2"),
    (MubVector(dim=2, root_order=2, norm_sq=1, amps=((0, 1),)), {"amps_float": ((0, 1j),)},
     ValueError, "exactly one of amps and amps_float"),
])
def test_replace_runs_the_constructor_checks(record, change, error, match):
    with pytest.raises(error, match=match):
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(error, match=match):
        record._replace(**change)


def test_replace_and_make_of_other_checked_records():
    with pytest.raises(ValueError, match="need 3 coefficients"):
        root(3, 1)._replace(coeffs=(0, 1))
    with pytest.raises(ValueError, match="out of range for root order"):
        dft(2)._replace(root_order=1)
    with pytest.raises(ValueError, match="bits out of range"):
        IncidenceVector._make((2, 4))
    with pytest.raises(ValueError, match="exceeds the bound d \\+ 1"):
        standard_basis(1)._replace(bases=standard_basis(1).bases * 3)
    with pytest.raises(ValueError, match="s must be >= 1"):
        net_from_mols(MolsSet(2, ()))._replace(s=0)


def test_reports_survive_pickling():
    x = built_mubs(2)
    vec = x.bases[0].vectors[0]
    vecs = (vec._replace(norm_sq=3),) + x.bases[0].vectors[1:]
    report = verify_mubs(MubSet(4, (MubBasis(vecs),)), mode="exact")
    assert report.violations
    back = pickle.loads(pickle.dumps(report))
    assert back == report and type(back) is MubReport
    assert type(back.violations[0]) is MubViolation and repr(back) == repr(report)
