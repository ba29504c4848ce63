"""Independent naive oracle for the kernel dimensions and bases.

Everything here is deliberately written from scratch on plain dicts and
lists, with no imports from the package under test: substitution-based
power operation, repeated-multiplication powers, long division in x,
Taylor coefficients by synthetic division, the CRT lift of a jet at one
weight, and textbook Gauss-Jordan elimination for the nullity, the row
space and the kernel.  Slow and simple on purpose; the engine must agree
with it, not the other way around.
"""

from __future__ import annotations

from itertools import accumulate

# a polynomial is a dict (t_exp, x_exp) -> coefficient, zero entries dropped


def padd(a, b, p):
    out = dict(a)
    for k, v in b.items():
        w = (out.get(k, 0) + v) % p
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def pmul(a, b, p):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            w = (out.get(k, 0) + c1 * c2) % p
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def ppow(a, e, p):
    out = {(0, 0): 1}
    for _ in range(e):
        out = pmul(out, a, p)
    return out


def pscale(a, c, p):
    out = {}
    for k, v in a.items():
        w = v * c % p
        if w:
            out[k] = w
    return out


def sub_power(m, p):
    """Total power by literal substitution t -> t + t^p, x -> x + x^p."""
    t_img = {(1, 0): 1, (p, 0): 1}
    x_img = {(0, 1): 1, (0, p): 1}
    out = {}
    for (i, j), c in m.items():
        term = pmul(ppow(t_img, i, p), ppow(x_img, j, p), p)
        out = padd(out, pscale(term, c, p), p)
    return out


def x_degree(m):
    return max((j for (_i, j) in m), default=-1)


def divmod_x(num, den, p):
    """Long division by a divisor monic in x; returns (quotient, remainder)."""
    d = x_degree(den)
    lead = den[next((i, j) for (i, j) in den if j == d)]
    assert lead % p == 1, "divisor must be monic in x"
    rem = dict(num)
    quo = {}
    while True:
        jr = x_degree(rem)
        if jr < d:
            return quo, rem
        # cancel every remainder term of top x-degree in one pass
        top = [((i, j), c) for (i, j), c in rem.items() if j == jr]
        for (i, j), c in top:
            mono = {(i, j - d): c}
            quo = padd(quo, mono, p)
            rem = padd(rem, pscale(pmul(mono, den, p), p - 1, p), p)


def taylor_coefficients(coeffs, w, count, p):
    """The first `count` coefficients of G(w + y) for G = sum_j coeffs[j] x^(n - j)
    (highest power first), by repeated synthetic division by x - w."""
    taylor = []
    for _ in range(min(count, len(coeffs))):
        coeffs = list(accumulate(coeffs, lambda acc, g: (acc * w + g) % p))
        taylor.append(coeffs.pop())
    return taylor + [0] * (count - len(taylor))


def times_linear(poly, v, p):
    """poly * (x - v) for poly = sum_j poly[j] x^j (lowest power first)."""
    return [(a - v * b) % p for a, b in zip([0] + poly, poly + [0])]


def crt_lift(mult, w, jet, p):
    """The m of degree < d = sum(mult.values()) whose first e_w Taylor coefficients
    at w are `jet` and which vanishes to order e_v at every other weight v, by CRT:
    m = G_w(x) S(x - w), G_w = prod over v != w of (x - v)^e_v and
    S = jet / G_w(w + y) mod y^e_w.  Lowest power first, d coefficients."""
    e = mult[w]
    g_w = [1]
    for v, e_v in mult.items():
        if v != w:
            for _ in range(e_v):
                g_w = times_linear(g_w, v, p)
    shifted = taylor_coefficients(g_w[::-1], w, e, p)  # G_w(w + y) mod y^e
    inv = [pow(shifted[0], p - 2, p)]
    for n in range(1, e):
        inv.append(-inv[0] * sum(shifted[k] * inv[n - k] for k in range(1, n + 1)) % p)
    s = [sum(jet[k] * inv[n - k] for k in range(n + 1)) % p for n in range(e)]
    s_at = [0]  # S(x - w), by Horner
    for coeff in reversed(s):
        s_at = times_linear(s_at, w, p)
        s_at[0] = (s_at[0] + coeff) % p
    m = [0] * (len(g_w) + len(s_at))
    for i, a in enumerate(g_w):
        for j, b in enumerate(s_at):
            m[i + j] = (m[i + j] + a * b) % p
    return m[: sum(mult.values())]


def echelon(rows, ncols, p):
    """Textbook Gauss-Jordan elimination: the nonzero rows of the reduced row echelon form."""
    mat = [list(r) for r in rows]
    col = 0
    row = 0
    while row < len(mat) and col < ncols:
        piv = next((r for r in range(row, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [v * inv % p for v in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        row += 1
        col += 1
    return mat[:row]


def nullity(rows, ncols, p):
    """ncols minus the number of pivots."""
    return ncols - len(echelon(rows, ncols, p))


def nullspace(reduced, ncols, p):
    """Textbook kernel basis of a matrix given by its RREF rows: for each free
    column, set it to 1, the other free columns to 0, and solve for the pivots."""
    pivots = [next(c for c, v in enumerate(row) if v) for row in reduced]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[free] % p
        basis.append(vec)
    return basis


def linear_form(w, p):
    return {(0, 1): 1, (1, 0): (-w) % p}


def level_divisor(p, a):
    """r^(a-1) times the lower half of the linear weight forms."""
    r = {(0, 0): 1}
    for w in range(p):
        r = pmul(r, linear_form(w, p), p)
    f = {(0, 0): 1}
    for _ in range(a - 1):
        f = pmul(f, r, p)
    for w in range((p - 1) // 2 + 1):
        f = pmul(f, linear_form(w, p), p)
    return f


def reduced_columns(p, f, delta, h):
    """(P(m) - h*m) mod f for each degree-delta domain monomial m, highest x-power first."""
    d = x_degree(f)
    cols = []
    for j in range(min(delta, d - 1), -1, -1):
        m = {(delta - j, j): 1}
        diff = padd(sub_power(m, p), pscale(pmul(h, m, p), p - 1, p), p)
        _q, rem = divmod_x(diff, f, p)
        cols.append(rem)
    return cols


def operator_rows(p, f, delta, h):
    """The matrix of m -> (P(m) - h*m) mod f and its number of columns: one row per
    remainder monomial, sorted, one column per domain monomial as `reduced_columns` lists them."""
    cols = reduced_columns(p, f, delta, h)
    keys = sorted(set().union(*cols))
    return [[col.get(k, 0) for col in cols] for k in keys], len(cols)


def kernel_nullity(p, f, delta, h):
    """Nullity of m -> (P(m) - h*m) mod f on degree-delta monomials."""
    return nullity(*operator_rows(p, f, delta, h), p)


def kernel_basis(p, f, delta, h):
    """The RREF of the kernel of `operator_rows`: the unique reduced echelon
    basis of the kernel, as coordinate tuples on the domain."""
    rows, ncols = operator_rows(p, f, delta, h)
    kernel = nullspace(echelon(rows, ncols, p), ncols, p)
    return tuple(tuple(r) for r in echelon(kernel, ncols, p))


def level_problem(p, a):
    """(f, delta, h) of the level-a kernel space."""
    epsilon = (2 * a - 1) * (p - 1) // 2
    delta = p * a - (p + 3) // 2
    h = ppow({(0, 0): 1, (p - 1, 0): 1}, epsilon, p)
    return level_divisor(p, a), delta, h


def m_nullity(p, a):
    """Dimension of the level-a kernel space, computed the slow way."""
    return kernel_nullity(p, *level_problem(p, a))
