"""Kernel branch lists: one description of a point variant's coefficients.

A branch list [(coeff, s, x0, j)] stands for the sequence

    F[e_n] = sum_b  coeff_b * i**(s_b n) * e_n^(j_b)(x0_b),

with s in 0..3, x0 real or purely imaginary and j an x-derivative order
(``distributions.point_branches`` builds the lists).  ``branch_stream``
computes the coefficients, ``kernel_eval`` the closed-form Abel transform of
a pair of lists, and ``word_branches`` applies ladder words, whose letters
act on the argument side, so the result is again a list.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

from . import hermite
from .precision import to_mpc, working

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

# binary precision -> (a, b, roots), a[n] = sqrt(2/(n+1)), b[n] = sqrt(n/(n+1)),
# roots[m] = sqrt(m), for the 8 most recently used precisions (least recently
# used first)
_ladder_tables: dict[int, tuple[list, list, list]] = {}


def _tables_at_working_precision() -> tuple[list, list, list]:
    tables = _ladder_tables.pop(mp.prec, None) or ([], [], [])
    while len(_ladder_tables) >= 8:
        del _ladder_tables[next(iter(_ladder_tables))]
    _ladder_tables[mp.prec] = tables
    return tables


def _ladder_table(n_max: int) -> tuple[list, list]:
    """The recurrence factors through n_max at the working precision."""
    a, b, _ = _tables_at_working_precision()
    for n in range(len(a), n_max + 1):
        a.append(mp.sqrt(mpf(2) / (n + 1)))
        b.append(mp.sqrt(mpf(n) / (n + 1)))
    return a, b


def sqrt_table(m_max: int) -> list:
    """sqrt(0), ..., sqrt(m_max) (at least) at the working precision."""
    roots = _tables_at_working_precision()[2]
    for m in range(len(roots), m_max + 1):
        roots.append(mp.sqrt(m))
    return roots


def branch_stream(branches, dps: int):
    """(extend, parity) of the coefficient stream of a branch list.

    ``extend(values, target)`` appends the coefficients through index target,
    at the working precision of ``dps``.  Branches are grouped by point.  An
    imaginary point x0 = i y folds its phase into s, through
    e_n^(j)(i y) = i**n (-i)**j R_n^(j)(y), so every group runs in real
    arithmetic: with eps = 1 at a real point and -1 at an imaginary one,

        E_{n+1}^(j) = a_n (y E_n^(j) + j E_n^(j-1)) - eps b_n E_{n-1}^(j),
        E_0^(j) = pi**(-1/4) P_j(y) exp(-eps y**2/2),
        P_0 = 1,  P_{j+1} = -eps (y P_j + j P_{j-1}),

    keeping two columns j <= J.  The phases of a group become one table per
    j, indexed by n % 4 and kept as mpf where real; at y = 0, where
    e_n^(j)(0) vanishes unless n and j share parity, neither the vanishing
    entries nor the vanishing columns are computed.  ``parity`` is 0 or 1
    when every coefficient of the other parity vanishes, else None.
    """
    tables: dict = {}  # (y, eps) -> {j: [T_0, ..., T_3]}
    with working(dps):
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
    groups = []  # [y, eps, terms: n % 4 -> [(j, factor)], top j, columns]
    residues = set()
    for (y, eps), rows in tables.items():
        terms: list = [[], [], [], []]
        for j, row in rows.items():
            for r, t in enumerate(row):
                if t != 0 and not (y == 0 and (r - j) % 2):
                    terms[r].append((j, t.real if t.imag == 0 else t))
                    residues.add(r % 2)
        top = max((j for per in terms for j, _ in per), default=-1)
        if top >= 0:
            groups.append([y, eps, terms, top, None])
    parity = residues.pop() if len(residues) == 1 else None

    def start(group):
        y, eps, _, top, _ = group
        col = [mp.pi ** mpf("-0.25") * mp.exp(-eps * y * y / 2)]
        for j in range(top):
            col.append(-eps * (y * col[j] + (j * col[j - 1] if j else 0)))
        group[4] = ([mpf(0)] * (top + 1), col)

    def advance(group, an, bn, n: int):
        y, eps, _, top, (prev, cur) = group  # columns n - 2, n - 1
        if y == 0:  # only the columns j of n's parity are nonzero, and read
            for j in range(n % 2, top + 1, 2):
                prev[j] = an * j * cur[j - 1] - bn * prev[j] if j else -bn * prev[j]
        else:
            bn = bn if eps > 0 else -bn
            for j in range(top + 1):
                v = y * cur[j] + j * cur[j - 1] if j else y * cur[j]
                prev[j] = an * v - bn * prev[j]
        group[4] = (cur, prev)  # column n took the place of n - 2

    def extend(values, target):
        a, b = _ladder_table(target)
        for n in range(len(values), target + 1):
            total = mpf(0)
            for group in groups:
                if n:
                    advance(group, a[n - 1], b[n - 1], n)
                else:
                    start(group)
                cur = group[4][1]
                for j, t in group[2][n % 4]:
                    total += t * cur[j]
            values.append(total)

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
