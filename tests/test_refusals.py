"""Every refusal below is reachable from the public API and raises one class
with one message; each is pinned here because no other test reaches it."""

from __future__ import annotations

import json

import pytest

from hodgejump import linalg
from hodgejump.cli import main
from hodgejump.coeff import CoefficientError, GaussianRational as GR, Jet, Poly
from hodgejump.deform import (DeformationFamily, dbar_vector, mc_extend, o1_value,
                              second_class_subspace, validate_first_order)
from hodgejump.errors import ValidationFailure
from hodgejump.exterior import (ComplexStructureSpec, Diagnostic, InvariantForm, SpecError,
                                VectorForm, contract, differential)
from hodgejump.freemod import FreeComplex, JetCochain, h_dims, reduce_to_primitive

IW = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})
TORUS = ComplexStructureSpec(3)
S = Poly.variable(("s",), "s")
T = Poly.variable(("t",), "t")
F1 = InvariantForm.generator(IW, "f", 1)


def _complex(ranks, *diffs):
    return FreeComplex(param="t", ranks=tuple(ranks), diffs=tuple(
        linalg.ExactMatrix(len(rows), len(rows[0]), rows) for rows in diffs))


REFUSALS = {
    # deform
    "mc_extend on a constant psi": (
        lambda: mc_extend(IW, VectorForm(IW, 1, {(1, (1,)): GR(1)}), 2),
        ValidationFailure, "mc_extend expects polynomial first-order coefficients"),
    "family of a (0,2) direction": (
        lambda: DeformationFamily(spec=IW, psi=VectorForm(IW, 2), order=2),
        ValidationFailure, "family direction must be a (0,1) vector form"),
    "family off the base point": (
        lambda: DeformationFamily(spec=IW, psi=VectorForm(IW, 1, {(1, (1,)): S + 1}), order=2),
        ValidationFailure, "family must pass through the base point (zero constant term)"),
    "second-class subspace at q = 0": (
        lambda: second_class_subspace(IW, VectorForm(IW, 1, {(1, (1,)): S}), 1, 0),
        ValidationFailure, "second-class subspace needs q >= 1"),
    "dbar_vector on another spec's psi": (
        lambda: dbar_vector(IW, VectorForm(TORUS, 1)),
        SpecError, "dbar_vector: spec mismatch"),
    "o1_value on another spec's form": (
        lambda: o1_value(IW, VectorForm(IW, 1), InvariantForm.generator(TORUS, "f", 1)),
        SpecError, "form does not belong to this spec"),
    "o1_value on another spec's psi": (
        lambda: o1_value(IW, VectorForm(TORUS, 1), F1),
        SpecError, "contract: spec mismatch"),
    "differential on another spec's form": (
        lambda: differential(TORUS, F1),
        SpecError, "form does not belong to this spec"),
    "contract across specs": (
        lambda: contract(VectorForm(TORUS, 1), F1),
        SpecError, "contract: spec mismatch"),
    # freemod
    "free complex missing a differential": (
        lambda: FreeComplex(param="t", ranks=(1, 1), diffs=()),
        ValidationFailure, "need exactly one differential per adjacent pair"),
    "free complex of a wrong shape": (
        lambda: _complex([1, 1], [[T], [T]]),
        ValidationFailure, "d^0 has shape 2x1, expected 1x1"),
    "h_dims with d.d != 0": (
        lambda: h_dims(_complex([1, 1, 1], [[T + 1]], [[T + 1]])),
        ValidationFailure, "d^1 . d^0 has nonzero entry at row 0, column 0"),
    "reduce_to_primitive of a zero obstruction": (
        lambda: reduce_to_primitive(_complex([1, 1], [[T * T]]),
                                    JetCochain(degree=0, entries=[Jet(T, 1)], order=1), 1),
        ValidationFailure, "reduce_to_primitive needs a nonzero order-n obstruction"),
    # linalg
    "rank_const of a polynomial matrix": (
        lambda: linalg.rank_const(linalg.ExactMatrix(1, 1, [[T]])),
        linalg.LinalgError, "rank_const on polynomial matrix; use generic_rank"),
    # coeff
    "exponent vector of the wrong length": (
        lambda: Poly(("t",), {(1, 2): 1}),
        CoefficientError, "exponent vector (1, 2) does not match parameters ('t',)"),
    "negative exponent": (
        lambda: Poly(("t",), {(-1,): 1}), CoefficientError, "negative exponent"),
    "variable of an unknown name": (
        lambda: Poly.variable(("t",), "u"), CoefficientError, "unknown parameter 'u' (have ('t',))"),
    "parameter named i": (
        lambda: Poly.parse(("i",), "1"),
        CoefficientError, "parameter name 'i' collides with the imaginary unit"),
    "homogeneous part of degree -1": (
        lambda: T.homogeneous_part(-1), CoefficientError, "homogeneous part of negative degree"),
    "jet of negative order": (
        lambda: Jet(T, -1), CoefficientError, "jet order must be nonnegative"),
    "Poly plus a string": (
        lambda: T + "x", TypeError, "cannot coerce str into Poly"),
    # exterior
    "conjugating Poly constants": (
        lambda: ComplexStructureSpec(3, B={3: {(1, 2): S}}),
        SpecError, "conjugation of structure constants requires numeric coefficients; "
                   "pass explicit c-side tables instead"),
    "vector form of degree above n": (
        lambda: VectorForm(IW, 4), SpecError, "antiholomorphic degree 4 out of range"),
    "vector form on a decreasing index tuple": (
        lambda: VectorForm(IW, 2, {(1, (2, 1)): GR(1)}),
        SpecError, "index tuple (2, 1) is not strictly increasing"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_class_and_message(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, message)


def test_first_order_check_reports_a_q2_direction():
    assert validate_first_order(IW, VectorForm(IW, 2)) == [
        Diagnostic("error", "psi", "expected a (0,1) vector form, got q=2")]


MANIFESTS = {
    "unknown manifest kind: 'other'": {"kind": "other"},
    "deformation[0]: bad exponent in 't^'": {
        "kind": "lie-algebra", "dimension": 3, "parameters": ["t"],
        "structure": [{"k": 3, "monomial": "f1^f2", "coefficient": "-1"}],
        "deformation": [{"i": 1, "lambda": 1, "coefficient": "t^"}]},
    "point 'p': bad Q(i) literal: '1//2'": {
        "kind": "lie-algebra", "dimension": 3, "parameters": ["t"],
        "structure": [{"k": 3, "monomial": "f1^f2", "coefficient": "-1"}],
        "options": {"points": {"p": {"t": "1//2"}}}},
    # options hold a jet order and points of a deformation: a free complex has neither
    "unknown manifest fields: ['options']": {
        "kind": "free-complex", "ranks": [1, 1], "differentials": [[["t"]]],
        "options": {"order": 2}},
}


@pytest.mark.parametrize("message", MANIFESTS)
def test_manifest_refusal_exits_2_on_one_line(message, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MANIFESTS[message]), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"validation failure: {message}\n")
