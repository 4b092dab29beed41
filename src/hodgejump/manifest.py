"""Manifest documents: the JSON carrier for structure data and lab complexes.

Two kinds are supported.  ``lie-algebra`` declares a complex dimension,
parameter names, structure-constant triples, an optional first-order
deformation table and ``options`` (the oracle's jet order and named
points); ``free-complex`` declares ranks and polynomial matrices
over a single parameter.  Exact values are encoded as strings ("-1/2",
"3/4+1/4i", "3*t^2-1/2*t") so nothing is ever rounded.  Unknown fields are
rejected, and every manifest is validated on load.
"""

from __future__ import annotations

import json
import os
import re

from . import linalg
from .coeff import CoefficientError, GaussianRational, Poly, _Record
from .deform import dbar_vector, validate_first_order
from .errors import ValidationFailure
from .exterior import ComplexStructureSpec, SpecError, VectorForm, _is_int, validate_spec
from .freemod import FreeComplex, validate_complex

__all__ = ["Manifest", "parse_manifest", "load_manifest", "builtin_names"]

_MONOMIAL = re.compile(r"^f(\d+)\^([fc])(\d+)$")

_TOP_FIELDS_LIE = {"name", "kind", "dimension", "parameters", "structure", "deformation", "options"}
_TOP_FIELDS_LAB = {"name", "kind", "parameter", "ranks", "differentials"}
_OPTION_FIELDS = {"order", "points"}


class Manifest(_Record):
    name: str
    kind: str
    raw: dict
    # lie-algebra payload
    spec: ComplexStructureSpec | None = None
    parameters: tuple[str, ...] = ()
    psi1: VectorForm | None = None
    # free-complex payload
    complex: FreeComplex | None = None
    # lie-algebra options
    order: int = 2
    points: dict[str, dict[str, GaussianRational]] = {}
    warnings: list[str] = []
    _hidden = ("raw",)

    def full_point(self, assignments: dict[str, GaussianRational]) -> dict[str, GaussianRational]:
        """Complete a partial assignment with zeros for the rest."""
        unknown = set(assignments) - set(self.parameters)
        if unknown:
            raise ValidationFailure(f"unknown parameters in point: {sorted(unknown)}")
        point = {p: GaussianRational(0) for p in self.parameters}
        point.update(assignments)
        return point

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2)


def _expect(cond: bool, msg: str, *args):
    """Unless ``cond``, raise ``msg.format(*args)``, formatted only on failure."""
    if not cond:
        raise ValidationFailure(msg.format(*args))


def _parse_lie(doc: dict) -> Manifest:
    extra = set(doc) - _TOP_FIELDS_LIE
    _expect(not extra, "unknown manifest fields: {}", sorted(extra))
    n = doc.get("dimension")
    _expect(_is_int(n) and n >= 1, "dimension must be a positive integer")
    params = tuple(doc.get("parameters", ()))
    _expect(all(isinstance(p, str) and p for p in params), "parameters must be nonempty strings")
    _expect(len(set(params)) == len(params), "duplicate parameter names")
    _expect("i" not in params, "parameter name 'i' collides with the imaginary unit")

    A: dict[int, dict] = {}
    B: dict[int, dict] = {}
    for idx, triple in enumerate(doc.get("structure", [])):
        _expect(isinstance(triple, dict), "structure[{}] must be an object", idx)
        extra = set(triple) - {"k", "monomial", "coefficient"}
        _expect(not extra, "structure[{}]: unknown fields {}", idx, sorted(extra))
        k = triple.get("k")
        _expect(_is_int(k) and 1 <= k <= n, "structure[{}]: bad generator index", idx)
        m = _MONOMIAL.match(triple.get("monomial", ""))
        _expect(m is not None, "structure[{}]: monomial must look like 'f1^f2' or 'f1^c2'", idx)
        i, side, j = int(m.group(1)), m.group(2), int(m.group(3))
        _expect(1 <= i <= n and 1 <= j <= n, "structure[{}]: index out of range", idx)
        try:
            coeff = GaussianRational.parse(str(triple.get("coefficient")))
        except CoefficientError as e:
            raise ValidationFailure(f"structure[{idx}]: {e}") from None
        table = A if side == "f" else B
        if side == "f":
            _expect(i < j, "structure[{}]: holomorphic pair must be increasing", idx)
        row = table.setdefault(k, {})
        _expect((i, j) not in row, "structure[{}]: duplicate monomial for f{}", idx, k)
        row[(i, j)] = coeff

    try:
        spec = ComplexStructureSpec(n, A, B)
    except SpecError as e:
        raise ValidationFailure(f"invalid structure constants: {e}") from None
    diags = validate_spec(spec)
    errors = [str(d) for d in diags if d.severity == "error"]
    if errors:
        raise ValidationFailure("structure validation failed: " + "; ".join(errors))
    warnings = [str(d) for d in diags if d.severity == "warning"]

    psi1 = None
    deformation = doc.get("deformation")
    if deformation == "symbolic":
        auto_params = list(params)
        table = {}
        for i in range(1, n + 1):
            for lam in range(1, n + 1):
                if dbar_vector(spec, VectorForm.term(spec, i, (lam,))):
                    continue
                name = f"t{i}{lam}"
                if name not in auto_params:
                    auto_params.append(name)
                table[(i, (lam,))] = name
        params = tuple(auto_params)
        psi1 = VectorForm(
            spec, 1, {key: Poly.variable(params, name) for key, name in table.items()}
        )
    elif deformation is not None:
        _expect(isinstance(deformation, list), "deformation must be a list or 'symbolic'")
        _expect(bool(params), "deformation table requires declared parameters")
        coeffs = {}
        for idx, entry in enumerate(deformation):
            _expect(isinstance(entry, dict), "deformation[{}] must be an object", idx)
            extra = set(entry) - {"i", "lambda", "coefficient"}
            _expect(not extra, "deformation[{}]: unknown fields {}", idx, sorted(extra))
            i, lam = entry.get("i"), entry.get("lambda")
            _expect(_is_int(i) and 1 <= i <= n, "deformation[{}]: bad frame index", idx)
            _expect(_is_int(lam) and 1 <= lam <= n, "deformation[{}]: bad form index", idx)
            try:
                poly = Poly.parse(params, str(entry.get("coefficient")))
            except CoefficientError as e:
                raise ValidationFailure(f"deformation[{idx}]: {e}") from None
            key = (i, (lam,))
            _expect(key not in coeffs, "deformation[{}]: duplicate entry", idx)
            if poly:
                coeffs[key] = poly
        psi1 = VectorForm(spec, 1, coeffs)
    if psi1 is not None:
        errs = [str(d) for d in validate_first_order(spec, psi1) if d.severity == "error"]
        if errs:
            raise ValidationFailure("deformation validation failed: " + "; ".join(errs))

    order, points = _parse_options(doc.get("options", {}), params)
    return Manifest(
        name=doc.get("name", ""), kind="lie-algebra", raw=doc, spec=spec,
        parameters=params, psi1=psi1, order=order, points=points, warnings=warnings,
    )


def _parse_lab(doc: dict) -> Manifest:
    extra = set(doc) - _TOP_FIELDS_LAB
    _expect(not extra, "unknown manifest fields: {}", sorted(extra))
    param = doc.get("parameter", "t")
    _expect(isinstance(param, str) and param and param != "i", "bad parameter name")
    ranks = doc.get("ranks")
    _expect(
        isinstance(ranks, list) and len(ranks) >= 1
        and all(_is_int(r) and r >= 0 for r in ranks),
        "ranks must be a list of nonnegative integers",
    )
    mats = doc.get("differentials")
    _expect(isinstance(mats, list) and len(mats) == len(ranks) - 1,
            "need one differential per adjacent rank pair")
    diffs = []
    for q, rows in enumerate(mats):
        shape_rows, shape_cols = ranks[q + 1], ranks[q]
        _expect(isinstance(rows, list) and len(rows) == shape_rows,
                "differentials[{}] must have {} rows", q, shape_rows)
        entries = []
        for i, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == shape_cols,
                    "differentials[{}][{}] must have {} entries", q, i, shape_cols)
            out_row = []
            for j, cell in enumerate(row):
                try:
                    out_row.append(Poly.parse((param,), str(cell)))
                except CoefficientError as e:
                    raise ValidationFailure(f"differentials[{q}][{i}][{j}]: {e}") from None
            entries.append(out_row)
        diffs.append(linalg.ExactMatrix(shape_rows, shape_cols, entries))
    cx = FreeComplex(param=param, ranks=tuple(ranks), diffs=tuple(diffs))
    issues = validate_complex(cx)
    if issues:
        raise ValidationFailure("complex validation failed: " + "; ".join(issues))
    return Manifest(name=doc.get("name", ""), kind="free-complex", raw=doc,
                    complex=cx, parameters=(param,))


def _parse_options(options: dict, params: tuple[str, ...]):
    _expect(isinstance(options, dict), "options must be an object")
    extra = set(options) - _OPTION_FIELDS
    _expect(not extra, "unknown option fields: {}", sorted(extra))
    order = options.get("order", 2)
    _expect(_is_int(order) and order >= 1, "options.order must be a positive integer")
    raw_points = options.get("points", {})
    _expect(isinstance(raw_points, dict), "options.points must be an object")
    points: dict[str, dict[str, GaussianRational]] = {}
    for label, assignment in raw_points.items():
        _expect(isinstance(assignment, dict), "point {!r} must be an object", label)
        parsed = {}
        for pname, value in assignment.items():
            _expect(pname in params, "point {!r}: unknown parameter {!r}", label, pname)
            try:
                parsed[pname] = GaussianRational.parse(str(value))
            except CoefficientError as e:
                raise ValidationFailure(f"point {label!r}: {e}") from None
        points[label] = parsed
    return order, points


def parse_manifest(text: str) -> Manifest:
    """Parse and validate a manifest document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationFailure(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    _expect(isinstance(doc, dict), "manifest must be a JSON object")
    kind = doc.get("kind")
    if kind == "lie-algebra":
        return _parse_lie(doc)
    if kind == "free-complex":
        return _parse_lab(doc)
    raise ValidationFailure(f"unknown manifest kind: {kind!r}")


_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def builtin_names() -> list[str]:
    return sorted(name for name in os.listdir(_DATA) if name.endswith(".json"))


def load_manifest(path_or_name: str) -> Manifest:
    """Load from a filesystem path, falling back to the builtin library."""
    path = path_or_name
    if not os.path.exists(path):
        path = os.path.join(_DATA, path if path.endswith(".json") else path + ".json")
        if "/" in path_or_name or "\\" in path_or_name or not os.path.isfile(path):
            raise ValidationFailure(f"manifest not found: {path_or_name!r} (builtins: {', '.join(builtin_names())})")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:  # a directory, a file without read permission
        raise ValidationFailure(f"cannot read manifest {path_or_name!r}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ValidationFailure(f"manifest {path_or_name!r} is not UTF-8: {e.reason} at byte {e.start}") from None
    return parse_manifest(text)
