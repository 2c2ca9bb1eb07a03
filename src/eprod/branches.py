"""Kernel branch lists: one description of a point variant's coefficients.

A branch list [(coeff, s, x0, j)] stands for the sequence

    F[e_n] = sum_b  coeff_b * i**(s_b n) * e_n^(j_b)(x0_b),

with s in 0..3, x0 real or purely imaginary and j an x-derivative order
(``distributions.point_branches`` builds the lists).  ``branch_stream``
computes the coefficients, ``kernel_eval`` the closed-form Abel transform of
a pair of lists, and ``word_branches`` applies ladder words, whose letters
act on the argument side, so the result is again a list.

The coefficients come from the differentiated recurrence of the e_n, run on
Python integers in block floating point: the recurrence factors and the
point are fixed point with 32 bits past the working precision, and every
derivative column keeps its own binary exponent, renormalised up or down
once its integers drift 8 bits, so columns as far apart as those of
delta^(64) (63!! ~ 1e44) each keep their precision.  A step loses about 2**-bits of a column's
size, so through n = 4,000 each coefficient stays within 10**-dps of the
largest so far.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf

from . import hermite
from .precision import integer_form, to_mpc, working

__all__ = [
    "I_POWERS",
    "branch_stream",
    "sqrt_table",
    "merge",
    "ladder_branches",
    "word_branches",
    "kernel_eval",
]

I_POWERS = (mpc(1), mpc(0, 1), mpc(-1), mpc(0, -1))

# -- coefficient streams ---------------------------------------------------------
#
# A recurrence column j keeps its two live entries as integers of about
# ``bits`` = working precision + _GUARD_BITS bits over one binary exponent.

# fraction bits past the working precision
_GUARD_BITS = 32
# a column is renormalised once its entries drift this many bits from ``bits``
_SLACK_BITS = 8

# binary precision -> (a, b, roots): a[n] = sqrt(2/(n+1)) and b[n] =
# sqrt(n/(n+1)) as integers over 2**(precision + _GUARD_BITS), roots[m] =
# sqrt(m) as mpf, for the 8 most recently used precisions (least recently
# used first)
_ladder_tables: dict[int, tuple[list, list, list]] = {}


def _tables(prec: int) -> tuple[list, list, list]:
    tables = _ladder_tables.pop(prec, None) or ([], [], [])
    while len(_ladder_tables) >= 8:
        del _ladder_tables[next(iter(_ladder_tables))]
    _ladder_tables[prec] = tables
    return tables


def _ladder_table(n_max: int, prec: int) -> tuple[list, list]:
    """The recurrence factors through n_max, over 2**(prec + _GUARD_BITS)."""
    a, b, _ = _tables(prec)
    two = 2 * (prec + _GUARD_BITS)
    for n in range(len(a), n_max + 1):
        a.append(math.isqrt((2 << two) // (n + 1)))
        b.append(math.isqrt((n << two) // (n + 1)))
    return a, b


def sqrt_table(m_max: int) -> list:
    """sqrt(0), ..., sqrt(m_max) (at least) at the working precision."""
    roots = _tables(mp.prec)[2]
    for m in range(len(roots), m_max + 1):
        roots.append(mp.sqrt(m))
    return roots


def _shifted(man: int, shift: int) -> int:
    """man * 2**-shift, cut toward -inf."""
    return man >> shift if shift >= 0 else man << -shift


def _fixed(x: mpf, bits: int) -> int:
    """x as an integer over 2**bits (cut toward -inf)."""
    man, _, exp = integer_form(x)
    return _shifted(man, -exp - bits)


def _start(y, y_fixed: int, eps: int, top: int, bits: int):
    """[column n = -1, column n = 0] and the column exponents of a group.

    E_0^(j) = pi**(-1/4) P_j(y) exp(-eps y**2/2), with P_j(y) 2**(bits j)
    exact at the fixed-point y; a column that is 0 (P_j(0), j odd) takes the
    exponent of the one before it, which feeds it.
    """
    with mp.workprec(bits):
        man, _, exp = integer_form(mp.pi ** mpf("-0.25") * mp.exp(-eps * y * y / 2))
    q = [1]
    for j in range(top):
        q.append(-eps * (y_fixed * q[j] + (j * q[j - 1] << 2 * bits if j else 0)))
    cur, ex = [], []
    for j, p in enumerate(q):  # column j: man * p * 2**(exp - bits j), to `bits` bits
        shift = (man * p).bit_length() - bits
        cur.append(_shifted(man * p, shift))
        ex.append(exp - bits * j + shift if p else ex[j - 1])
    return [[0] * (top + 1), cur], ex


def _steps(group, first: int, last: int, a: list, b: list, bits: int) -> list:
    """The group's parts [(re, im, exp)] at each n in first..last, stepping
    its columns [n - 2, n - 1] to [n - 1, n] in place."""
    y, eps, terms, top, cols, ex = group
    lo, hi = bits - _SLACK_BITS, bits + _SLACK_BITS
    out = []
    for n in range(first, last + 1):
        if n:
            old, cur = cols
            an, bn = a[n - 1], b[n - 1]
            if y == 0:  # only the columns j of n's parity are nonzero, and read
                js = range(n % 2, top + 1, 2)
            else:
                js = range(top + 1)
                bn = bn if eps > 0 else -bn
            for j in js:
                v = (y * cur[j]) >> bits if y else 0
                if j:
                    shift = ex[j - 1] - ex[j]
                    v += j * (cur[j - 1] << shift if shift >= 0 else cur[j - 1] >> -shift)
                v = (an * v - bn * old[j]) >> bits
                old[j] = v
                size = v.bit_length()
                if size > hi or (size < lo and cur[j].bit_length() < lo):
                    # renormalise column j: both entries over a new exponent
                    size = (abs(v) | abs(cur[j])).bit_length()
                    if size:
                        shift = size - bits
                        old[j], cur[j] = _shifted(v, shift), _shifted(cur[j], shift)
                        ex[j] += shift
                    elif j:  # a zero column takes the exponent of the one feeding it
                        ex[j] = ex[j - 1]
            cols[0], cols[1] = cur, old  # column n took the place of n - 2
        cur = cols[1]
        out.append([(tr * cur[j], ti * cur[j], ex[j] + te) for j, tr, ti, te in terms[n % 4]])
    return out


def _rounded(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2**exp rounded to ``prec`` bits, to nearest with ties to even
    (as mpmath rounds)."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    mag = abs(man)
    q = mag >> shift
    rest = mag - (q << shift)
    half = 1 << (shift - 1)
    if rest > half or (rest == half and q & 1):
        q += 1
    return (-q if man < 0 else q), exp + shift


def _entry(parts, prec: int) -> tuple[int, int, int]:
    """The sum of (re, im, exp) parts as one triple, each part rounded to
    ``prec`` bits.

    Parts are aligned to the largest exponent among the nonzero ones, so a
    part is cut only far below the bits that are kept."""
    if len(parts) == 1:
        ((re, im, top),) = parts
    else:
        parts = [p for p in parts if p[0] or p[1]]
        if not parts:
            return (0, 0, 0)
        top = max(e for _, _, e in parts)
        re = sum(r >> (top - e) for r, _, e in parts)
        im = sum(i >> (top - e) for _, i, e in parts)
    re, re_exp = _rounded(re, top, prec)
    if not im:
        return re, 0, re_exp
    im, im_exp = _rounded(im, top, prec)
    if not re:
        return 0, im, im_exp
    exp = min(re_exp, im_exp)
    return re << (re_exp - exp), im << (im_exp - exp), exp


def branch_stream(branches, dps: int):
    """(extend, parity) of the coefficient stream of a branch list.

    ``extend(values, target)`` appends the entries through index target,
    each rounded to the working precision of ``dps`` and kept as a triple
    (re, im, exp) for (re + i im) * 2**exp.  Branches are grouped by point.
    An imaginary point x0 = i y folds its phase into s, through
    e_n^(j)(i y) = i**n (-i)**j R_n^(j)(y), so every group runs in real
    arithmetic: with eps = 1 at a real point and -1 at an imaginary one,

        E_{n+1}^(j) = a_n (y E_n^(j) + j E_n^(j-1)) - eps b_n E_{n-1}^(j),
        E_0^(j) = pi**(-1/4) P_j(y) exp(-eps y**2/2),
        P_0 = 1,  P_{j+1} = -eps (y P_j + j P_{j-1}),

    keeping two columns j <= J, each over a binary exponent of its own (see
    the module docstring).  The phases of a group become one table per j,
    indexed by n % 4; at y = 0, where e_n^(j)(0) vanishes unless n and j
    share parity, neither the vanishing entries nor the vanishing columns
    are computed.  ``parity`` is 0 or 1 when every coefficient of the other
    parity vanishes, else None.
    """
    tables: dict = {}  # (y, eps) -> {j: [T_0, ..., T_3]}
    with working(dps):
        prec = mp.prec
        for coeff, s, x0, j in branches:
            if x0.imag == 0:
                key = (x0.real, 1)
            elif x0.real == 0:
                key = (x0.imag, -1)
                coeff, s = coeff * I_POWERS[3 * j % 4], s + 1
            else:
                raise ValueError(f"branch point {x0} is neither real nor imaginary")
            row = tables.setdefault(key, {}).setdefault(j, [0, 0, 0, 0])
            for r in range(4):
                row[r] += coeff * I_POWERS[s * r % 4]
        bits = prec + _GUARD_BITS
        groups = []  # (y at `bits` fraction bits, eps, terms, top, columns, exponents)
        residues = set()
        for (y, eps), rows in tables.items():
            terms: list = [[], [], [], []]  # n % 4 -> [(j, re, im, exp)]
            for j, row in rows.items():
                for r, t in enumerate(row):
                    if t != 0 and not (y == 0 and (r - j) % 2):
                        terms[r].append((j, *integer_form(t)))
                        residues.add(r % 2)
            top = max((j for per in terms for j, *_ in per), default=-1)
            if top >= 0:
                y_fixed = _fixed(y, bits)
                groups.append((y_fixed, eps, terms, top, *_start(y, y_fixed, eps, top, bits)))
    parity = residues.pop() if len(residues) == 1 else None

    def extend(values, target):
        a, b = _ladder_table(target, prec)
        first = len(values)
        blocks = [_steps(group, first, target, a, b, bits) for group in groups]
        if len(blocks) == 1:
            values += [_entry(parts, prec) for parts in blocks[0]]
        elif blocks:
            values += [_entry([p for ps in per_n for p in ps], prec) for per_n in zip(*blocks)]
        else:
            values += [(0, 0, 0)] * (target + 1 - first)

    return extend, parity


# -- ladder letters on branch lists ---------------------------------------------


def merge(branches):
    """Like branches (same s, x0, j) summed, exact zeros dropped."""
    merged: dict = {}
    for coeff, s, x0, j in branches:
        key = (s, x0, j)
        merged[key] = merged.get(key, 0) + coeff
    return [(coeff, s, x0, j) for (s, x0, j), coeff in merged.items() if coeff != 0]


def ladder_branches(branches, letter: str):
    """Branch list of (letter applied to the sequence of a branch list).

    Transfers the ladder action from the index side to the argument side:
        sqrt(n+1) e_{n+1}^(j)(x) = (x e_n^(j) + j e_n^(j-1) - e_n^(j+1)) / sqrt(2)
        sqrt(n)   e_{n-1}^(j)(x) = (x e_n^(j) + j e_n^(j-1) + e_n^(j+1)) / sqrt(2)
    so the class of point-branch sources is closed under c, cdag, x, d.
    Every letter keeps s and x0, so after merging a word of L letters on
    one branch leaves at most j + L + 1 branches.  Runs at the caller's
    working precision.
    """
    root2 = mp.sqrt(2)
    if letter in ("x", "d"):
        sign = 1 if letter == "x" else -1  # x = (c + cdag)/sqrt2, d = (c - cdag)/sqrt2
        out = [(c / root2, s, x0, j) for c, s, x0, j in ladder_branches(branches, "c")]
        out += [
            (sign * c / root2, s, x0, j)
            for c, s, x0, j in ladder_branches(branches, "cdag")
        ]
        return merge(out)
    if letter not in ("c", "cdag"):
        raise ValueError(f"unknown ladder letter {letter!r}")
    out = []
    for coeff, s, x0, j in branches:
        # (c g)_n picks up the branch's index phase once: i**(s(n+1)) = i**s i**(sn)
        phase = (s if letter == "c" else (4 - s)) % 4
        tip = -1 if letter == "c" else 1
        base = coeff * I_POWERS[phase] / root2
        out.append((base * x0, s, x0, j))
        if j >= 1:
            out.append((base * j, s, x0, j - 1))
        out.append((tip * base, s, x0, j + 1))
    return merge(out)


def word_branches(terms, branches, dps: int):
    """Branches of (sum_t scalar_t * word_t) applied to a point-branch list,
    like branches merged across the words."""
    with working(dps):
        out = []
        for scalar, word in terms:
            cur = branches
            for letter in reversed(word):  # rightmost letter acts first
                cur = ladder_branches(cur, letter)
            sc = to_mpc(scalar, dps)
            out += [(sc * coeff, s, x0, j) for coeff, s, x0, j in cur]
        return merge(out)


# -- closed-form Abel transforms ----------------------------------------------------
#
# conj(f_n) * g_n * r**n of two branch lists sums to a finite combination of
# eigenfunction_kernel evaluations at w = r * i**phase.  The conjugated left
# slot flips its phase exponent and evaluation point (the e_n have real
# coefficients).  |w| = r < 1 keeps every evaluation off the singular set.


def kernel_eval(branches_f, branches_g, dps: int):
    """r -> sum_n conj(f_n) g_n r**n over two point-branch lists."""
    with working(dps):  # conj rounds to the ambient precision
        left = [
            (mp.conj(c), (4 - s) % 4, mp.conj(x0), j) for c, s, x0, j in branches_f
        ]

    def evaluate(r):
        total = mpc(0)
        for c_f, s_f, x_f, j_f in left:
            for c_g, s_g, x_g, j_g in branches_g:
                w = mpc(r) * I_POWERS[(s_f + s_g) % 4]
                kval = hermite.eigenfunction_kernel(w, x_f, x_g, j_f, j_g, mp.dps)
                total += c_f * c_g * kval
        return total

    return evaluate
