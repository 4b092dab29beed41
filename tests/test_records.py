"""The record classes (reports, bases, manifests): construction, defaults,
equality, hashing, immutability, attribute order and repr."""

import pytest

from hodgejump import deform, exterior, freemod, linalg
from hodgejump.coeff import GR, Poly, _Record
from hodgejump.exterior import Diagnostic, VectorForm
from hodgejump.manifest import Manifest, load_manifest

FROZEN = {deform.DolbeaultBasis, linalg.CohomologyBasis, freemod.FreeComplex, Diagnostic}
MUTABLE = {
    Manifest, deform.DeformationFamily, deform.ObstructionReport, deform.ExtensionResult,
    deform.SecondClassReport, deform.JumpRow, deform.JumpTable, deform.Witness,
    freemod.JetCochain, freemod.LabObstruction, freemod.FirstClassReport,
    freemod.SecondClassLabReport, freemod.AccountingReport,
}


def _complex():
    d = linalg.ExactMatrix(1, 1, [[Poly.parse(("t",), "t")]])
    return freemod.FreeComplex("t", (1, 1), (d,))


def _accounting(**kwargs):
    return freemod.AccountingReport(0, 1, 0, 1, 0, 1, 0, 1, True, **kwargs)


def _all_records(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


def test_every_record_is_frozen_or_mutable_as_listed():
    assert set(_all_records()) == FROZEN | MUTABLE


def test_positional_and_keyword_construction_with_defaults():
    a = deform.ExtensionResult("extended", 2, 1, 0)
    b = deform.ExtensionResult(status="extended", order=2, p=1, q=0)
    assert a == b
    assert (a.obstruction_coords, a.obstruction_form, a.extension) == (None, None, None)
    c = deform.ExtensionResult("obstructed", 1, 1, 0, [GR(1)], extension=None)
    assert c.obstruction_coords == [GR(1)] and c != a
    assert deform.JumpTable(3, {}, {}).label == "first-order prediction"
    m = Manifest("x", "lie-algebra", {})
    assert (m.spec, m.parameters, m.order, m.points, m.warnings) == (None, (), 2, {}, [])


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2, 3, 4), {}),              # one too many
    ((1, 2), {}),                     # 'second' missing
    ((1, 2), {"third": 3}),           # unknown keyword
    ((1, 2, 3), {"first": 2}),        # 'first' given twice
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        deform.JumpRow(*args, **kwargs)


def test_mutable_defaults_are_not_shared(iwasawa):
    a, b = _accounting(), _accounting()
    a.notes.append("x")
    a.first_class_orders[1] = 1
    assert b.notes == [] and b.first_class_orders == {} and b.second_class_orders == {}
    assert a.second_class_orders is not b.second_class_orders
    m, n = Manifest("a", "lie-algebra", {}), Manifest("b", "lie-algebra", {})
    m.points["p"] = {}
    m.warnings.append("w")
    assert n.points == {} and n.warnings == []
    f = deform.DeformationFamily(iwasawa, VectorForm(iwasawa, 1, {}), 1)
    g = deform.DeformationFamily(iwasawa, VectorForm(iwasawa, 1, {}), 1)
    f.corrections[2] = None
    assert g.corrections == {}
    assert _accounting().notes == [] and Manifest("c", "x", {}).warnings == []


def test_equality_compares_fields_of_one_class():
    assert deform.JumpRow(3, 1, 0) == deform.JumpRow(h0=3, first=1, second=0)
    assert deform.JumpRow(3, 1, 0) != deform.JumpRow(3, 0, 1)
    assert deform.JumpRow(3, 1, 0) != (3, 1, 0)
    assert _accounting(notes=["n"]) != _accounting()
    assert Diagnostic("error", "s", "m") == Diagnostic("error", "s", "m")
    assert Diagnostic("error", "s", "m") != Diagnostic("warning", "s", "m")


def test_frozen_records_refuse_changes_and_hash_by_fields(iwasawa):
    dol = deform.Dolbeault.of(iwasawa)
    frozen = [Diagnostic("error", "s", "m"), _complex(), dol.basis(1, 1), dol.basis(1, 1).cores[(0, 1)]]
    for record in frozen:
        name = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert hash(Diagnostic("error", "s", "m")) == hash(Diagnostic("error", "s", "m"))
    assert _complex() == _complex() and hash(_complex()) == hash(_complex())
    # a basis holds read-only mappings, which do not hash; equality still works
    with pytest.raises(TypeError):
        hash(dol.basis(1, 1))
    basis = dol.basis(1, 1)
    assert basis == deform.DolbeaultBasis(1, 1, basis.cores, basis.layout, basis.core)
    assert basis == deform.DolbeaultBasis(p=1, q=1, cores=basis.cores, layout=exterior._layout(range(1, 4))[0],
                                          core=basis.core)
    assert basis != deform.DolbeaultBasis(1, 1, dol.basis(1, 0).cores, basis.layout, basis.core)


def test_mutable_records_are_unhashable():
    for cls in MUTABLE:
        assert cls.__hash__ is None, cls
    with pytest.raises(TypeError):
        hash(deform.JumpRow(1, 0, 0))
    row = deform.JumpRow(1, 0, 0)
    row.first = 1
    assert row.predicted == 0


def test_vars_keys_follow_field_order(iwasawa):
    assert list(vars(_accounting())) == [
        "q", "h0", "h_generic", "kernel_drop", "image_rise", "first_class_dim",
        "second_class_dim", "order_bound", "consistent", "notes", "first_class_orders",
        "second_class_orders"]
    c = _complex()
    first = freemod.classify_first_class(c, 0)
    assert list(vars(first)) == ["q", "order_bound", "dim", "extendable_dim",
                                 "extendable_basis", "obstructed_basis"]
    second = freemod.classify_second_class(c, 1)
    assert list(vars(second)) == ["q", "order_bound", "dim", "basis", "method_a_dim",
                                  "method_b_dim"]
    assert list(vars(freemod.LabObstruction(1, 0, [], []))) == ["n", "q", "coords",
                                                                "representative"]
    assert list(vars(load_manifest("iwasawa"))) == [
        "name", "kind", "raw", "spec", "parameters", "psi1", "complex", "order", "points",
        "warnings"]
    fam = deform.DeformationFamily(iwasawa, VectorForm(iwasawa, 1, {}), 1)
    assert list(vars(fam)) == ["spec", "psi", "order", "corrections", "deformed"]


def test_repr_hides_derived_and_bulky_fields(iwasawa):
    man = load_manifest("iwasawa")
    text = repr(man)
    assert text.startswith("Manifest(name='iwasawa', kind='lie-algebra', spec=")
    assert "raw=" not in text and "warnings=[]" in text
    basis = deform.Dolbeault.of(iwasawa).basis(1, 1)
    text = repr(basis)
    # every f of Iwasawa is free: H^{1,1} reads its one core basis, H^{0,1}
    # of c1, c2, c3, through f1, f2 and f3
    assert text.startswith("DolbeaultBasis(p=1, q=1, cores=mappingproxy({(0, 1): CohomologyBasis(dim=2, "
                           "sparse_representatives=")
    assert basis.dim == 6 and "label='H^0,1'" in text
    assert "layout=" not in text and "core=" not in text
    assert "coords=" not in text and "columns=" not in text
    fam = deform.DeformationFamily(iwasawa, VectorForm(iwasawa, 1, {}), 1, {2: None})
    text = repr(fam)
    assert "deformed=" not in text and "corrections=" not in text
    assert text.endswith(", order=1)")
    c = _complex()
    freemod.jump_accounting(c, 0)
    assert c._memo and "_memo" not in repr(c)
    assert repr(c) == repr(_complex()) and c == _complex() and hash(c) == hash(_complex())
    assert repr(Diagnostic("error", "s", "m")) == \
        "Diagnostic(severity='error', subject='s', message='m')"
    assert str(Diagnostic("error", "s", "m")) == "error: s: m"
    assert repr(exterior.validate_spec(iwasawa)) == "[]"
