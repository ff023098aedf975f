"""Word problem kernel: ShortLex normal forms, equality, coset enumeration, balls.

Normal forms come from the Brink-Howlett small roots (Brink & Howlett, Math.
Ann. 296, 1993; Casselman, Electron. J. Combin. 9, 2002).  The small roots
form a finite set, the smallest one that holds the simple roots and holds
s(beta) whenever beta does and -1 < B(alpha_s, beta) < 0 (Bjorner-Brenti,
Thm 4.7.3).  A table built once per system gives, for every small root and
generator, the index of the reflected small root, or says that the image is
negative (the root is alpha_s) or not small.  Multiplying a ShortLex normal
form by a generator is then one right-to-left pass of integer lookups
(`WordContext.multiply`), so a word of any length costs time linear in its
length.  Every comparison that builds the table is decided exactly, in the
cyclotomic integers Z[zeta_N].

The Todd-Coxeter oracle is a pure-Python HLT enumeration over involutory
generators, with a symmetric coset table stored by columns.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .system import INF, CoxeterSystem

# Name of the one coset kernel below; benchmark results record it.
COSET_BACKEND = "python"


# --- exact arithmetic in Z[zeta_N] ---------------------------------------------

def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients, constant term first, of Phi_n = prod_{d | n} (x^d - 1)^mu(n/d)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(n // d) == 1:          # multiply by x^d - 1
            out = [0] * (len(poly) + d)
            for i, c in enumerate(poly):
                out[i + d] += c
                out[i] -= c
            poly = out
    for d in divisors:
        if _mobius(n // d) == -1:         # divide exactly by x^d - 1
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            poly = q
    return poly


class _CyclotomicRing:
    """Z[zeta_N] for even N.  An element is a dict {e: c} (no zero values) of
    its remainder modulo Phi_N in the power basis zeta^0 .. zeta^(phi(N)-1),
    so two elements are equal exactly when their dicts are."""

    def __init__(self, N: int):
        phi_n = _cyclotomic_polynomial(N)
        self.N = N
        self.degree = d = len(phi_n) - 1
        # zeta^e mod Phi_N for e < N/2; zeta^(N/2) = -1 gives the other half
        half = []
        v = [1] + [0] * (d - 1)
        for _ in range(N // 2):
            half.append({k: c for k, c in enumerate(v) if c})
            top = v[-1]
            v = [0] + v[:-1]
            if top:
                for k in range(d):
                    v[k] -= top * phi_n[k]
        self._powers = half + [{k: -c for k, c in row.items()} for row in half]
        self._cos = [math.cos(2 * math.pi * e / N) for e in range(d)]
        self._twocos: dict[tuple[int, int], dict[int, int]] = {}

    def times_twocos(self, x: dict, m: int) -> dict:
        """x * 2cos(pi/m), with 2cos(pi/m) = zeta^a + zeta^-a, a = N/(2m)."""
        a = self.N // (2 * m)
        out: dict[int, int] = {}
        for k, c in x.items():
            row = self._twocos.get((a, k))
            if row is None:
                row = _add(self._powers[(k + a) % self.N], self._powers[(k - a) % self.N])
                self._twocos[(a, k)] = row
            for e, r in row.items():
                out[e] = out.get(e, 0) + c * r
        return {e: c for e, c in out.items() if c}

    def sign(self, x: dict) -> int:
        """Sign of a real element.  The float sum of c * cos(2 pi e / N) is off
        by less than |x|_1 * 2^-48 (cosine table and products within a few
        ulps, fsum correctly rounded), so a value beyond |x|_1 * 2^-44 has the
        float's sign; otherwise mpmath settles it."""
        if not x:
            return 0
        l1 = sum(abs(c) for c in x.values())
        if l1 < 2 ** 50:
            v = math.fsum(c * self._cos[e] for e, c in x.items())
            if abs(v) > l1 * 2.0 ** -44:
                return 1 if v > 0 else -1
        return self._sign_mpmath(x, l1)

    def _sign_mpmath(self, x: dict, l1: int) -> int:
        # x != 0 has |norm(x)| >= 1 and every conjugate of x is at most l1 in
        # absolute value, so |x| >= l1^-(degree-1); evaluate with an error below it
        import mpmath

        digits = math.ceil(self.degree * math.log10(l1)) + 20
        with mpmath.workdps(digits):
            v = mpmath.fsum(c * mpmath.cospi(mpmath.mpf(2 * e) / self.N)
                            for e, c in x.items())
        return 1 if v > 0 else -1


def _add(x: dict, y: dict, scale: int = 1) -> dict:
    """x + scale * y."""
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


_NEG = -1     # table entry: s(alpha_s) = -alpha_s
_BIG = -2     # table entry: the reflected root is not small


# Largest N for which `_small_root_table` builds Z[zeta_N].
MAX_RING_ORDER = 2520


def _small_root_table(m: Sequence[Sequence[float]]) -> list[int]:
    """Reflection table of the small roots of the Coxeter matrix `m`, held as
    `CoxeterSystem.label_rows` holds it: INF for infinity, a finite label an
    int, and a diagonal that is not read as a label.
    Simple root i has index i; entry [beta * rank + s] is the index of
    s(beta), or _NEG or _BIG.

    The table is computed in Z[zeta_N], N = 2 lcm(labels >= 3): the ring holds
    N/2 power rows of up to phi(N) entries, and a product by 2cos(pi/m) costs
    up to phi(N)^2.  So N is held to MAX_RING_ORDER = 2520 = 2 lcm(3, 4, 5, 6,
    7, 9), and a larger N is refused with a ValueError naming the labels,
    before any ring work.  Measured builds (2-core Xeon, Python 3.11, time and
    process max RSS): the costliest probed within the budget, I2(1259) x A1
    (N = 2518), takes 3.1 s and 72 MB; past it, labels 11, 13, 17 (N = 4862)
    take 1.3 s and 85 MB, I2(2503) x A1 (N = 5006) 8.1 s and 236 MB, and
    labels 7, 9, 11, 13 (N = 18018) 12.8 s and 599 MB.  A label of 10^6
    alone would ask for 10^6 power rows."""
    n = len(m)
    finite = sorted({m[i][j] for i in range(n) for j in range(n) if 3 <= m[i][j] != INF})
    order = 2 * math.lcm(*finite) if finite else 2
    if order > MAX_RING_ORDER:
        raise ValueError(
            f"label set {{{', '.join(map(str, finite))}}} needs the cyclotomic integers "
            f"Z[zeta_{order}]; normal forms are built only for 2 lcm(labels >= 3) "
            f"<= {MAX_RING_ORDER}")
    ring = _CyclotomicRing(order)
    # a root is stored as its coordinates in the simple roots, each a sorted
    # tuple of the (exponent, coefficient) pairs of its ring element
    roots = [tuple(((0, 1),) if k == i else () for k in range(n)) for i in range(n)]
    index = {root: i for i, root in enumerate(roots)}
    table: list[int] = []
    b = 0
    while b < len(roots):                 # breadth first, so by depth
        beta = [dict(c) for c in roots[b]]
        for s in range(n):
            if b == s:
                table.append(_NEG)
                continue
            two_b = {e: 2 * c for e, c in beta[s].items()}        # 2B(alpha_s, beta)
            for j in range(n):
                if j != s and m[s][j] != 2 and beta[j]:
                    term = beta[j] if m[s][j] == INF else ring.times_twocos(beta[j], m[s][j])
                    two_b = _add(two_b, term, -2 if m[s][j] == INF else -1)
            sign = ring.sign(two_b)
            if sign == 0:
                table.append(b)
                continue
            if sign < 0 and ring.sign(_add(two_b, {0: 2})) <= 0:
                table.append(_BIG)
                continue
            image = list(roots[b])
            image[s] = tuple(sorted(_add(beta[s], two_b, -1).items()))
            image = tuple(image)
            k = index.get(image)
            if k is None:
                assert sign < 0, "a small root reflected down must be small"
                k = index[image] = len(roots)
                roots.append(image)
            table.append(k)
        b += 1
    return table


# --- ShortLex normal forms ------------------------------------------------------

class WordContext:
    """ShortLex normal forms of one system, in generator indices.

    Holds only the system's small-root reflection table, so results never
    depend on call order.
    """

    def __init__(self, sys: CoxeterSystem):
        self.system = sys
        self.gens = sys.generators
        self._rank = sys.rank
        self._table = _small_root_table(sys.label_rows)

    @property
    def small_root_count(self) -> int:
        return len(self._table) // max(self._rank, 1)

    def encode(self, word: Iterable[str]) -> tuple[int, ...]:
        position = self.system.diagram_index[0]
        try:
            return tuple(position[g] for g in word)
        except KeyError as e:
            raise ValueError(f"letter {e.args[0]!r} is not a generator") from None

    def decode(self, word: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.gens[i] for i in word)

    def normal_form(self, word: Sequence[int]) -> tuple[int, ...]:
        """ShortLex normal form of a word in generator indices."""
        nf: tuple[int, ...] = ()
        for s in word:
            nf = self.multiply(nf, s)
        return nf

    def multiply(self, nf: tuple[int, ...], s: int) -> tuple[int, ...]:
        """Normal form of (element of nf) * s, for nf already in normal form.

        Walks gamma = u_i ... u_L(alpha_s) from the right.  gamma reaching
        alpha_(u_i) means u_i is the letter that cancels.  gamma becoming a
        simple root alpha_t with t < u_i means t is a new least left descent
        of the suffix from u_i, which then begins with t; the leftmost such
        position wins.  A root that is not small stays so, which ends the walk.
        """
        table, n = self._table, self._rank
        gamma, at, letter = s, -1, 0
        for i in range(len(nf) - 1, -1, -1):
            u = nf[i]
            if gamma == u:
                return nf[:i] + nf[i + 1:]
            gamma = table[gamma * n + u]
            if gamma == _BIG:
                break
            if gamma < u:
                at, letter = i, gamma
        if at < 0:
            return nf + (s,)
        return nf[:at] + (letter,) + nf[at:]


@functools.lru_cache(maxsize=32)
def word_context(sys: CoxeterSystem) -> WordContext:
    return WordContext(sys)


class NormalForm(NamedTuple):
    word: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.word)


def tits_normal_form(sys: CoxeterSystem, word: Iterable[str]) -> NormalForm:
    ctx = word_context(sys)
    return NormalForm(ctx.decode(ctx.normal_form(ctx.encode(word))))


def words_equal(sys: CoxeterSystem, w1: Iterable[str], w2: Iterable[str]) -> bool:
    return tits_normal_form(sys, w1) == tits_normal_form(sys, w2)


# --- Todd-Coxeter oracle ------------------------------------------------------

class CosetTable(NamedTuple):
    subset: tuple[str, ...]
    complete: bool
    order: Optional[int]       # group order when complete
    cosets_defined: int        # total rows ever defined (live + dead)
    cap: int


def coxeter_relators(sys: CoxeterSystem, subset: Sequence[str]) -> list[tuple[int, int, int]]:
    """Relators (st)^m_st of the subset's generators, as triples (s, t, m) of
    subset-local indices with s < t, in pair order, m the int label as
    `label_rows` holds it; infinite labels give none (ValueError for a name
    that is not a generator).

    The involution relators s^2 are not listed: the coset kernel keeps its
    table symmetric, which enforces them."""
    pos = [sys.index(g) for g in subset]
    rows = sys.label_rows
    return [(s, t, rows[i][j]) for s, i in enumerate(pos) for t, j in enumerate(pos)
            if s < t and rows[i][j] != INF]


def _enumerate_cosets(n_gens: int, relators: list[tuple[int, int, int]],
                      cap: int) -> tuple[bool, int, int]:
    """HLT enumeration of the cosets of the trivial subgroup.

    The table is stored by columns: cols[x][c] is the coset c * x, or -1.
    Every generator is an involution, so it is its own inverse and the table
    is symmetric: cols[x][a] == b iff cols[x][b] == a.  That symmetry enforces
    the involution relators s^2, whose scan at a coset would only define its
    empty entries, so each coset's row is filled in generator order and then
    only `relators`, the triples (s, t, m) for (st)^m with s != t, are scanned.
    A coincidence moves a dead coset's entries onto its representative, so a
    row that is full stays full, and no coset needs a second fill after its
    scans.  The union-find holds only the dead cosets: `dead` maps each to the
    smaller coset it merged into, `rep` walks it, and the order is n minus its
    size.  An enumeration that meets no coincidence keeps it empty, so each
    coset costs only its columns and marks.

    Each relator is held as its word w of 2m column references, (cols[s],
    cols[t]) * m, and a scan at alpha reads w by position.  The forward walk
    from alpha follows w while entries exist: f is the coset after positions
    0 .. i-1.  If it reads all of w, the cycle is closed (f == alpha) or f and
    alpha coincide.  Otherwise the backward walk from alpha reads w from its
    end: b is the coset before positions j+1 .. 2m-1.  If it reads position
    i as well, f and b coincide.  Otherwise positions i .. j are open: j - i
    new cosets are defined in a chain from f at positions i .. j-1, and
    position j is deduced onto b.  These are the definitions, in the same
    order, of HLT's loop that defines f * w[i] and walks both ends again.  A
    new coset has an entry only in the column it was defined in, and the next
    position reads the other column, so the forward walk stops at once on it.
    The backward end cannot move either: the entry it reads next, b * w[j], is
    written only if b == f and w[j] is w[i], that is, j - i is even.  The
    table would then hold a path from alpha to alpha spelling w[0 .. i-1]
    w[j+1 .. 2m-1], of odd length 2m - (j - i + 1).  But every path in the
    table spells an equation of the group, and every relator has even length,
    so no word of odd length is 1 in the group.

    A scan of (st)^m that completes closes the <s, t> cycle through its start,
    and every coset the scan walked through lies on that cycle.  The cycle
    stays closed at the representative of each of its cosets through every
    later coincidence, and a scan of (st)^m at a coset of a closed cycle is a
    no-op.  So the walks mark each coset they reach in the relator's
    bytearray, and marked (coset, relator) pairs are not scanned again; a
    scan that hits the cap returns at once, so its marks are never read.
    Skipping only no-ops keeps the definition order, and so `cosets_defined`,
    exact.  `cap` bounds the total number of cosets ever defined (live +
    dead).  Returns (complete, order, cosets_defined); order is the live-coset
    count when complete, else 0.
    """
    size = min(cap, 64)               # allocated length of every array below
    cols = [[-1] * size for _ in range(n_gens)]
    dead: dict[int, int] = {}         # dead coset -> the smaller coset it merged into
    scans = [((cols[s], cols[t]) * m, 2 * m - 1, bytearray(size)) for s, t, m in relators]
    n = 1                             # cosets defined

    def grow() -> int:
        new = min(cap, 2 * size)
        for col in cols:
            col.extend([-1] * (new - size))
        for _, _, mark in scans:
            mark.extend(bytes(new - size))
        return new

    def rep(k: int) -> int:
        while k in dead:
            k = dead[k]
        return k

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            dead[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []
        merge(a, b, queue)
        for g in queue:               # the queue grows while it is walked
            for col in cols:
                d = col[g]
                if d == -1:
                    continue
                col[d] = -1
                col[g] = -1
                mu, nu = rep(g), rep(d)
                if col[mu] != -1:
                    merge(nu, col[mu], queue)
                elif col[nu] != -1:
                    merge(mu, col[nu], queue)
                else:
                    col[mu] = nu
                    col[nu] = mu

    alpha = 0
    while alpha < n:
        if alpha in dead:
            alpha += 1
            continue
        for col in cols:
            if col[alpha] == -1:
                if n == size:
                    if n == cap:
                        return False, 0, n
                    size = grow()
                col[alpha] = n
                col[n] = alpha
                n += 1
        for word, j, mark in scans:
            if mark[alpha]:
                continue
            # forward: f is the coset after positions 0 .. i-1 of the word
            f, i = alpha, 0
            for col in word:
                d = col[f]
                if d == -1:
                    break
                f = d
                mark[d] = 1
                i += 1
            else:
                if f == alpha:
                    continue
            # backward: b is the coset before positions j+1 .. 2m-1
            b = alpha
            while j >= i:
                d = word[j][b]
                if d == -1:
                    break
                b = d
                mark[d] = 1
                j -= 1
            else:
                coincidence(f, b)
                if alpha in dead:
                    break
                continue
            # positions i .. j are open: a chain of new cosets at i .. j-1,
            # then position j deduced onto b
            while i < j:
                if n == size:
                    if n == cap:
                        return False, 0, n
                    size = grow()
                col = word[i]
                col[f] = n
                col[n] = f
                f = n
                mark[n] = 1
                n += 1
                i += 1
            col = word[j]
            col[f] = b
            col[b] = f
        alpha += 1

    return True, n - len(dead), n


def todd_coxeter_enumerate(sys: CoxeterSystem, subset: Iterable[str],
                           cap: int = 100_000) -> CosetTable:
    """Enumerate the special subgroup generated by `subset` over the trivial
    subgroup.  A full table within `cap` cosets certifies finiteness and gives
    the order; hitting the cap yields Incomplete (no infiniteness claim).
    Time and memory follow the cosets defined.  ValueError for a cap below 1,
    or for the first name in `subset` that is not a generator."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    positions = {sys.index(g) for g in subset}
    sub = tuple(g for k, g in enumerate(sys.generators) if k in positions)
    if not sub:
        return CosetTable(sub, True, 1, 1, cap)
    relators = coxeter_relators(sys, sub)
    complete, order, defined = _enumerate_cosets(len(sub), relators, cap)
    return CosetTable(sub, complete, order if complete else None, defined, cap)


def spherical_triangle_order(a: int, b: int, c: int) -> Optional[int]:
    """Order 4/(1/a+1/b+1/c - 1) of a spherical triangle group, else None.

    With denominators cleared the order is 4abc / (ab + bc + ca - abc), and the
    group is spherical iff that denominator is positive."""
    excess = a * b + b * c + c * a - a * b * c
    if excess <= 0:
        return None
    return 4 * a * b * c // excess


# --- Cayley balls -------------------------------------------------------------

class CayleyBall(NamedTuple):
    radius: int
    vertices: tuple[tuple[str, ...], ...]          # normal forms, BFS/ShortLex order
    edges: tuple[tuple[tuple[str, ...], tuple[str, ...], str], ...]  # (g, gs, s), len(gs) > len(g)
    sphere_sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def cayley_ball(sys: CoxeterSystem, radius: int) -> CayleyBall:
    """Ball of word-length radius in the Cayley graph, vertices as normal forms.

    The edges are exactly the up-edges (g, gs, s) with |g| < radius and
    |gs| = |g| + 1, each once; a finite group whose ball stops growing before
    the radius has none out of its longest element."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ctx = word_context(sys)
    n = sys.rank
    layers: list[list[tuple[int, ...]]] = [[()]]
    edges = []
    for r in range(radius):
        nxt = set()
        for v in layers[r]:
            for s in range(n):
                u = ctx.multiply(v, s)
                if len(u) == len(v) + 1:
                    nxt.add(u)
                    edges.append((v, u, s))
        if not nxt:
            break
        layers.append(sorted(nxt))
    names = {v: ctx.decode(v) for layer in layers for v in layer}
    return CayleyBall(
        radius,
        tuple(names.values()),
        tuple((names[v], names[u], ctx.gens[s]) for v, u, s in edges),
        tuple(len(layer) for layer in layers),
    )
