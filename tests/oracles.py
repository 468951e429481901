"""Reference routines that only the tests use, kept out of the package."""

from fractions import Fraction

from wcent import BasisElt, DiffOp, DiffPoly, DiffVar, UPoly, VacuumVector
from wcent.cdet import GeneratorTable, in_window
from wcent.centralizer import add_into


def form_on_elements(p, form, x, y):
    """Bilinear extension of a form given on basis pairs to two Lie maps."""
    return sum(ca * cb * form(p, a, b) for a, ca in x.items() for b, cb in y.items())


def echelon_insert(rows, vec):
    """centralizer.echelon_insert as it was before it kept integer rows with
    pivot value 1 or -1 as integers: every new row is divided by its pivot
    value, taken as a Fraction."""
    vec = dict(vec)
    for pivot, row in rows.items():
        c = vec.get(pivot)
        if c:
            add_into(vec, ((e, -c * q) for e, q in row.items()))
    if not vec:
        return None
    pivot = min(vec)
    c = Fraction(vec[pivot])
    rows[pivot] = {e: q / c for e, q in vec.items()}
    return pivot, c


# -- the explicit operator matrices, built entry by entry ----------------------
# The package builds all three from cdet.operator_matrix and a lift; these
# spell each matrix out as a reference for it.


def _lift_var(e):
    return DiffPoly.var(DiffVar.of(e))


def basis_u_series(p, i, j, lift=_lift_var):
    """E_ij(u): the valid-window generating series sum_r lift(E[i,j,r]) u^r."""
    return UPoly({r: lift(BasisElt(i, j, r)) for r in p.r_window(i, j)})


def diagonal_entry(p, i, one, lift=_lift_var):
    """The diagonal operator entry x + lam_i D + E_ii(u), with one the unit
    of the coefficient ring and lift the embedding of basis elements."""
    return DiffOp({
        (1, 0): UPoly({0: one}),
        (0, 1): UPoly({0: one.scale(p.part(i))}),
        (0, 0): basis_u_series(p, i, i, lift),
    })


def w_generator_matrix(p):
    """Matrix whose column determinant produces the W-algebra generators.

    Diagonal x + lam_i D + E_ii(u); superdiagonal u^(lam_{i+1}-1); lower
    entries E_ij(u); zero above the superdiagonal.
    """
    n = p.n
    one = DiffPoly.const(1)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == i:
                row.append(diagonal_entry(p, i, one))
            elif j == i + 1:
                row.append(DiffOp({(0, 0): UPoly({p.part(j) - 1: one})}))
            elif j < i:
                row.append(DiffOp({(0, 0): basis_u_series(p, i, j)}))
            else:
                row.append(DiffOp.zero())
        rows.append(row)
    return rows


def miura_matrix(p):
    """The diagonal operator factors on the diagonal, zero elsewhere."""
    one = DiffPoly.const(1)
    n = p.n
    return [[diagonal_entry(p, i, one) if j == i else DiffOp.zero()
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def ss_matrix(p):
    """Full operator matrix with diagonal x + lam_i T + E_ii(z) and all
    off-diagonal entries E_ij(z); coefficients are modes at t-power -1."""
    n = p.n
    one = VacuumVector.vacuum(p)

    def lift(e):
        return VacuumVector.single(p, e, -1)

    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == i:
                row.append(diagonal_entry(p, i, one, lift))
            else:
                row.append(DiffOp({(0, 0): basis_u_series(p, i, j, lift)}))
        rows.append(row)
    return rows


def window_table(p, cp, one):
    """The table of a column determinant applied to 1, given as the map
    x-power -> u-polynomial: entry (k, r) is the u^r coefficient of the
    x^(n-k) coefficient, kept apart when (k, r) is outside the window.

    Requires the x^n coefficient to be exactly the unit one.
    """
    n = p.n
    top = cp.get(n)
    if top is None or top != UPoly({0: one}):
        raise ArithmeticError("leading x-coefficient is not 1")
    t = GeneratorTable(p, {}, {})
    for k in range(1, n + 1):
        for r, val in cp.get(n - k, UPoly()).items():
            (t.entries if in_window(p, k, r) else t.out_of_window)[(k, r)] = val
    return t
