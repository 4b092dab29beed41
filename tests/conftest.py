from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hodgejump import linalg
from hodgejump.coeff import GR_ONE, GR_ZERO, GaussianRational, Jet, Poly
from hodgejump.exterior import ComplexStructureSpec, InvariantForm, VectorForm
from hodgejump.freemod import FreeComplex

IW_PARAMS = ("t11", "t12", "t21", "t22", "t31", "t32")


@pytest.fixture(scope="session")
def iwasawa() -> ComplexStructureSpec:
    return ComplexStructureSpec(3, A={3: {(1, 2): GaussianRational(-1)}})


@pytest.fixture(scope="session")
def torus3() -> ComplexStructureSpec:
    return ComplexStructureSpec(3)


@pytest.fixture(scope="session")
def mixed_spec() -> ComplexStructureSpec:
    # d f2 = f1^c1: a nilpotent structure with a nonzero mixed table
    return ComplexStructureSpec(2, B={2: {(1, 1): GaussianRational(1)}})


@pytest.fixture(scope="session")
def iw_psi1(iwasawa) -> VectorForm:
    return VectorForm(
        iwasawa, 1,
        {(i, (lam,)): Poly.variable(IW_PARAMS, f"t{i}{lam}")
         for i in (1, 2, 3) for lam in (1, 2)},
    )


def point_of(**kw) -> dict:
    pt = {p: GaussianRational(0) for p in IW_PARAMS}
    for k, v in kw.items():
        pt[k] = GaussianRational(v)
    return pt


@pytest.fixture(scope="session")
def point_ii() -> dict:
    return point_of(t11=1)


@pytest.fixture(scope="session")
def point_iii() -> dict:
    return point_of(t11=1, t22=1)


ROW_I = (3, 2, 3, 6, 2, 1, 6, 6, 1)
ROW_II = (2, 2, 2, 5, 2, 1, 5, 5, 1)
ROW_III = (2, 2, 1, 5, 2, 1, 4, 4, 1)


# -- random ingredients ----------------------------------------------------

def random_gr(rng: random.Random, zero_ok: bool = True) -> GaussianRational:
    while True:
        re = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        im = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) if rng.random() < 0.3 else Fraction(0)
        v = GaussianRational(re, im)
        if v or zero_ok:
            return v


def random_form(spec: ComplexStructureSpec, p: int, q: int, rng: random.Random) -> InvariantForm:
    from hodgejump.exterior import basis_monomials

    coeffs = {}
    for key in basis_monomials(spec.n, p, q):
        if rng.random() < 0.6:
            coeffs[key] = random_gr(rng)
    return InvariantForm(spec, p, q, coeffs)


def random_mixed_coeff(rng: random.Random):
    """A coefficient from Q(i), Q(i)[t] or the jets of order 2 in t.

    Polynomial and jet values have at most two terms of degree up to 2, so
    jet products often truncate to zero.
    """
    kind = rng.randrange(3)
    if kind == 0:
        return random_gr(rng)
    poly = Poly(("t",), {(rng.randint(0, 2),): random_gr(rng) for _ in range(2)})
    return poly if kind == 1 else Jet(poly, 2)


def random_mixed_form(spec: ComplexStructureSpec, p: int, q: int, rng: random.Random) -> InvariantForm:
    """Like random_form, with coefficients from random_mixed_coeff."""
    from hodgejump.exterior import basis_monomials

    coeffs = {}
    for key in basis_monomials(spec.n, p, q):
        if rng.random() < 0.6:
            coeffs[key] = random_mixed_coeff(rng)
    return InvariantForm(spec, p, q, coeffs)


def random_vector_form(spec: ComplexStructureSpec, rng: random.Random, closed: bool = True) -> VectorForm:
    """Random (0,1) vector form; with closed=True only delbar-closed terms."""
    from hodgejump.deform import dbar_vector

    coeffs = {}
    for i in range(1, spec.n + 1):
        for lam in range(1, spec.n + 1):
            if closed and dbar_vector(spec, VectorForm.term(spec, i, (lam,))):
                continue
            if rng.random() < 0.7:
                c = random_gr(rng)
                if c:
                    coeffs[(i, (lam,))] = c
    return VectorForm(spec, 1, coeffs)


# -- random lab complexes with ground truth --------------------------------

def _poly(param, pairs):
    return Poly((param,), {(k,): GaussianRational._coerce(c) for k, c in pairs if c})


def _zero(param):
    return Poly((param,))


def random_lab_complex(rng: random.Random, param: str = "t"):
    """Three-term complex assembled from elementary blocks, then scrambled.

    Returns (FreeComplex, truth) where truth lists per degree the exact
    (h at 0, h generic) derived from the block structure, along with the
    kernel-drop and image-rise of each differential.
    """
    blocks = []
    n_blocks = rng.randint(1, 3)
    for _ in range(n_blocks):
        kind = rng.choice(["free0", "free1", "free2", "map01", "map12", "pair"])
        blocks.append(kind)
    if all(b.startswith("free") for b in blocks):
        blocks.append(rng.choice(["map01", "map12", "pair"]))

    r = [0, 0, 0]
    d0_blocks = []  # (rows, cols, entries)
    d1_blocks = []
    truth_h0 = [0, 0, 0]
    truth_hg = [0, 0, 0]
    rank0_at0 = rank0_gen = rank1_at0 = rank1_gen = 0

    def unit(rng):
        return random_gr(rng, zero_ok=False)

    for kind in blocks:
        if kind == "free0":
            r[0] += 1
            truth_h0[0] += 1
            truth_hg[0] += 1
            d0_blocks.append((0, 1, []))
        elif kind == "free1":
            r[1] += 1
            truth_h0[1] += 1
            truth_hg[1] += 1
            d0_blocks.append((1, 0, [[]]))
            d1_blocks.append((0, 1, []))
        elif kind == "free2":
            r[2] += 1
            truth_h0[2] += 1
            truth_hg[2] += 1
            d1_blocks.append((1, 0, [[]]))
        elif kind == "map01":
            k = rng.randint(0, 2)
            u = unit(rng)
            r[0] += 1
            r[1] += 1
            d0_blocks.append((1, 1, [[_poly(param, [(k, u)])]]))
            d1_blocks.append((0, 1, []))
            if k == 0:
                rank0_at0 += 1
            else:
                truth_h0[0] += 1
                truth_h0[1] += 1
            rank0_gen += 1
        elif kind == "map12":
            k = rng.randint(0, 2)
            u = unit(rng)
            r[1] += 1
            r[2] += 1
            d0_blocks.append((1, 0, [[]]))
            d1_blocks.append((1, 1, [[_poly(param, [(k, u)])]]))
            if k == 0:
                rank1_at0 += 1
            else:
                truth_h0[1] += 1
                truth_h0[2] += 1
            rank1_gen += 1
        else:  # pair: R -> R^2 -> R with d0 = (f, g), d1 = (-g, f)
            jf, jg = rng.randint(0, 2), rng.randint(0, 2)
            fa, gb = unit(rng), unit(rng)
            f = _poly(param, [(jf, fa)])
            g = _poly(param, [(jg, gb)])
            r[0] += 1
            r[1] += 2
            r[2] += 1
            d0_blocks.append((2, 1, [[f], [g]]))
            d1_blocks.append((1, 2, [[-g, f]]))
            at0 = 1 if (jf == 0 or jg == 0) else 0
            rank0_at0 += at0
            rank1_at0 += at0
            rank0_gen += 1
            rank1_gen += 1
            truth_h0[0] += 1 - at0
            truth_h0[1] += 2 - 2 * at0
            truth_h0[2] += 1 - at0

    def assemble(blocks_list, rows, cols):
        entries = [[_zero(param) for _ in range(cols)] for _ in range(rows)]
        r0 = c0 = 0
        for (br, bc, be) in blocks_list:
            for i in range(br):
                for j in range(bc):
                    entries[r0 + i][c0 + j] = be[i][j]
            r0 += br
            c0 += bc
        return linalg.ExactMatrix(rows, cols, entries)

    d0 = assemble(d0_blocks, r[1], r[0])
    d1 = assemble(d1_blocks, r[2], r[1])

    # scramble with unimodular transforms U_q; d'_q = U_{q+1} d_q U_q^{-1}.
    # Row operations left-multiply, so applying the negated ops in reverse
    # order to the identity builds the exact inverse.  Degrees stay small
    # (at most two degree-<=1 operations per level) so the default order
    # bounds remain affordable.
    def unimodular(size):
        ident = [
            [Poly.constant((param,), GR_ONE if i == j else GR_ZERO) for j in range(size)]
            for i in range(size)
        ]
        u = [row[:] for row in ident]
        uinv = [row[:] for row in ident]
        ops = []
        for _ in range(rng.randint(0, min(2, size))):
            i, j = rng.randrange(size), rng.randrange(size)
            if i == j:
                continue
            p = _poly(param, [(rng.randint(0, 1), random_gr(rng))])
            if p:
                ops.append((i, j, p))
        for (i, j, p) in ops:
            for col in range(size):
                u[i][col] = u[i][col] + p * u[j][col]
        for (i, j, p) in reversed(ops):
            for col in range(size):
                uinv[i][col] = uinv[i][col] - p * uinv[j][col]
        return (
            linalg.ExactMatrix(size, size, u),
            linalg.ExactMatrix(size, size, uinv),
        )

    u0, u0i = unimodular(r[0])
    u1, u1i = unimodular(r[1])
    u2, u2i = unimodular(r[2])
    d0s = u1.matmul(d0).matmul(u0i)
    d1s = u2.matmul(d1).matmul(u1i)

    cx = FreeComplex(param=param, ranks=(r[0], r[1], r[2]), diffs=(d0s, d1s))
    truth = {
        "h": [(truth_h0[q], truth_hg[q]) for q in range(3)],
        "rank0": (rank0_at0, rank0_gen),
        "rank1": (rank1_at0, rank1_gen),
    }
    return cx, truth
