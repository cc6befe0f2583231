"""Output checks that share no code with lieweyl.

Coefficients are Gaussian rationals held as ``(re, im)`` pairs of
``fractions.Fraction``; a polynomial is a dict ``{exponent tuple: pair}``
that never stores a zero coefficient.  Every check returns ``None`` when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
HALF = (Fraction(1, 2), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def add_term(out, key, c):
    s = g_add(out.get(key, ZERO), c)
    if s == ZERO:
        out.pop(key, None)
    else:
        out[key] = s


def p_add(f, g):
    out = dict(f)
    for k, c in g.items():
        add_term(out, k, c)
    return out


def p_scale(f, c):
    return {k: g_mul(v, c) for k, v in f.items()} if c != ZERO else {}


def p_mul(f, g):
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            add_term(out, tuple(a + b for a, b in zip(k1, k2)), g_mul(c1, c2))
    return out


def p_partial(f, mu):
    out = {}
    for k, c in f.items():
        if k[mu]:
            key = k[:mu] + (k[mu] - 1,) + k[mu + 1 :]
            add_term(out, key, g_mul(c, (Fraction(k[mu]), Fraction(0))))
    return out


def p_degree(f):
    return max((sum(k) for k in f), default=-1)


def p_part(f, d):
    """The homogeneous part of total degree d."""
    return {k: c for k, c in f.items() if sum(k) == d}


def unit(n, mu):
    return tuple(1 if k == mu else 0 for k in range(n))


def lie_poisson(C, f, g):
    """{f, g} = sum C[al][be][rho] x_rho (d_al f)(d_be g)."""
    n = len(C)
    out = {}
    for al in range(n):
        df = p_partial(f, al)
        if not df:
            continue
        for be in range(n):
            dg = p_partial(g, be)
            if not dg:
                continue
            lin = {unit(n, rho): C[al][be][rho] for rho in range(n) if C[al][be][rho] != ZERO}
            out = p_add(out, p_mul(lin, p_mul(df, dg)))
    return out


# -- structure constants, written out from their definitions ----------------


def su2_constants():
    """C[mu][nu][lam] = epsilon_{mu nu lam}."""
    one, minus = (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))
    C = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    for mu, nu, lam in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        C[mu][nu][lam] = one
        C[nu][mu][lam] = minus
    return C


def kappa_constants(b):
    """C[mu][nu][lam] = b_mu delta_{nu lam} - b_nu delta_{mu lam}."""
    n = len(b)
    C = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for mu in range(n):
        for nu in range(n):
            C[mu][nu][nu] = g_add(C[mu][nu][nu], b[mu])
            C[mu][nu][mu] = g_add(C[mu][nu][mu], (-b[nu][0], -b[nu][1]))
    return C


# -- star-stream checks -------------------------------------------------------


def check_star(C, f, g, fg, gf_dual):
    """f*g against g*~f, and its two highest-degree parts against C alone.

    The top part of f*g is the commutative product of the top parts; the next
    part is the commutative cross terms plus half the Lie-Poisson bracket of
    the top parts.
    """
    if fg != gf_dual:
        return "f*g differs from the dual product g*~f"
    p, q = p_degree(f), p_degree(g)
    if p_degree(fg) > p + q:
        return f"f*g has degree {p_degree(fg)} above {p + q}"
    fp, gq = p_part(f, p), p_part(g, q)
    if p_part(fg, p + q) != p_mul(fp, gq):
        return "top part of f*g is not the commutative product of the top parts"
    next_part = p_add(
        p_add(p_mul(fp, p_part(g, q - 1)), p_mul(p_part(f, p - 1), gq)),
        p_scale(lie_poisson(C, fp, gq), HALF),
    )
    if p_part(fg, p + q - 1) != next_part:
        return "next-to-top part of f*g is not cross terms + {f, g}/2"
    return None


def check_y_action(f, mu, xy):
    """omega_inv(f) X_mu has top symbol (top part of f) * x_mu."""
    p = p_degree(f)
    if p_degree(xy) != p + 1:
        return f"y_action result has degree {p_degree(xy)}, not {p + 1}"
    n = len(next(iter(f)))
    if p_part(xy, p + 1) != p_mul(p_part(f, p), {unit(n, mu): (Fraction(1), Fraction(0))}):
        return "top part of y_action is not (top part of f) * x_mu"
    return None


# -- verify-report checks ------------------------------------------------------


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(code, text, seed, expected_sha=None):
    """A verify job: exit 0, valid JSON, every suite and check passing."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    if report.get("pass") is not True:
        return "report pass is not true"
    if report.get("seed") != seed:
        return f"report seed {report.get('seed')!r} is not {seed}"
    suites = report.get("suites") or {}
    if not suites:
        return "report has no suites"
    for name, rep in suites.items():
        if rep.get("pass") is not True:
            return f"suite {name} does not pass"
        for check in rep.get("checks", []):
            if check.get("pass") is not True:
                return f"check {check.get('identity')!r} in {name} does not pass"
    if expected_sha is not None and sha256_text(text) != expected_sha:
        return "report bytes differ from the recorded SHA-256"
    return None
