"""Raw polynomial helpers on plain coefficient lists (ascending powers).

Residue-level plumbing shared by the series, commutative and crossed layers.
All functions are pure; `q` is the working modulus p^N, or None for exact
integer arithmetic (used by the finiteness certificates).
"""

from math import comb


def trim_int(coeffs):
    """Strip trailing exact-integer zeros; keeps at least one coefficient."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def padd(a, b, q):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    if q is None:
        return out
    return [v % q for v in out]


def psub(a, b, q):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = out[i] - x
    if q is None:
        return out
    return [v % q for v in out]


def pmul(a, b, q, trunc=None):
    """Product, optionally truncated to `trunc` coefficients."""
    n = len(a) + len(b) - 1
    if trunc is not None and trunc < n:
        n = trunc
    out = [0] * n
    for i, x in enumerate(a):
        if not x:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            out[i + j] += x * b[j]
    if q is None:
        return out
    return [v % q for v in out]


def pdiv_exact(a, b):
    """a / b over Z[X] when b divides a exactly; b trimmed and nonzero.

    Long division from the top: every quotient coefficient is an exact
    integer quotient by the leading coefficient of b.
    """
    a = trim_int(a)
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else [x // c for x in a]
    db = len(b) - 1
    if len(a) <= db:
        return [0]
    lead = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        t = rem[i + db] // lead
        if t:
            quo[i] = t
            for j in range(db):
                rem[i + j] -= t * b[j]
    return quo


def pscale(a, c, q):
    if q is None:
        return [x * c for x in a]
    return [(x * c) % q for x in a]


def poly_eval(coeffs, x, q):
    acc = 0
    if q is None:
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def substitute_linear(coeffs, e, c, q, trunc=None):
    """f(X) -> f(e + c*X) by Horner, optionally truncated to `trunc` coefficients."""
    acc = [0]
    for a in reversed(coeffs):
        n = len(acc) + 1
        if trunc is not None and trunc < n:
            n = trunc
        nxt = [0] * n
        for i, v in enumerate(acc):
            if not v:
                continue
            nxt[i] += v * e
            if i + 1 < n:
                nxt[i + 1] += v * c
        nxt[0] += a
        acc = nxt if q is None else [v % q for v in nxt]
    return acc


def series_inverse(coeffs, q, trunc):
    """Multiplicative inverse of a series with unit constant term, mod (q, X^trunc)."""
    b0 = pow(coeffs[0], -1, q)
    out = [b0] + [0] * (trunc - 1)
    for k in range(1, trunc):
        s = 0
        top = min(k, len(coeffs) - 1)
        for j in range(1, top + 1):
            s += coeffs[j] * out[k - j]
        out[k] = (-b0 * s) % q
    return out


def omega_coeffs(p, n):
    """Exact integer coefficients of (1+X)^(p^n) - 1, ascending (degree p^n)."""
    pn = p ** n
    return [0] + [comb(pn, k) for k in range(1, pn + 1)]


def reduce_mod_omega(coeffs, p, n, q):
    """`coeffs` reduced modulo (1+X)^(p^n) - 1, as a length-p^n list.

    Terminates because each fold of the high part both shortens it by one
    and multiplies it into the p-divisible lower omega coefficients.
    """
    pn = p ** n
    out = list(coeffs[:pn])
    out += [0] * (pn - len(out))
    if q is not None:
        out = [c % q for c in out]
    if len(coeffs) <= pn:
        return out
    neg_wlow = [-w for w in omega_coeffs(p, n)[:pn]]
    if q is not None:
        neg_wlow = [w % q for w in neg_wlow]
    high = list(coeffs[pn:])
    while any(high):
        folded = pmul(high, neg_wlow, q)
        out = padd(out, folded[:pn], q)
        high = folded[pn:]
    return out


def mult_matrix_mod_omega(fbar, p, n, q):
    """Rows of right multiplication by `fbar` on (Z/q)[X]/((1+X)^(p^n)-1).

    Row k holds the coefficients of X^k * fbar reduced mod omega_n; `fbar`
    must already be reduced (length <= p^n).
    """
    pn = p ** n
    wlow = omega_coeffs(p, n)[:pn]
    first = list(fbar) + [0] * (pn - len(fbar))
    rows = [first]
    cur = first
    for _ in range(1, pn):
        top = cur[-1]
        nxt = [0] + cur[:-1]
        if top:
            if q is None:
                for j in range(pn):
                    nxt[j] = nxt[j] - top * wlow[j]
            else:
                for j in range(pn):
                    nxt[j] = (nxt[j] - top * wlow[j]) % q
        rows.append(nxt)
        cur = nxt
    return rows


def cyclic_reduce(coeffs, order, q):
    """Reduce modulo h^order - 1: indices wrap around."""
    out = [0] * order
    for i, c in enumerate(coeffs):
        out[i % order] += c
    if q is None:
        return out
    return [c % q for c in out]


def poly_divmod_unit_lead(f, g, q):
    """Long division f = q*g + r over Z/q for g with unit leading coefficient."""
    dg = len(g) - 1
    rem = [c % q for c in f]
    if len(rem) - 1 < dg:
        return [0], rem
    inv = pow(g[-1], -1, q)
    quo = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1 - dg, -1, -1):
        t = (rem[i + dg] * inv) % q
        if t:
            quo[i] = t
            for j, gc in enumerate(g):
                rem[i + j] = (rem[i + j] - t * gc) % q
    return quo, rem[:dg] if dg else [0]
