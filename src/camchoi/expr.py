"""Exact-arithmetic symbolic expressions in a canonical sum-of-monomials form.

An Expr is a finite sum of monomials.  Each monomial is a rational
coefficient times a product of atoms raised to exponents that are affine in
the single symbolic exponent parameter ``n`` (with half-integer constant
parts, so t^(-1/2) is representable).  Atoms are plain symbols, jet
variables, opaque function symbols carrying a derivative multi-index, the
elementary applications exp(.) and tanh(.), and opaque rational powers such
as 2^n.  Equality of canonical forms is structural equality, which makes
zero testing decidable.

Kernel invariants:

* Atoms other than exp/tanh applications (Sym, Jet, Func, RatPow) and
  Exponents are interned: building an equal one returns the existing object
  (copies and unpickled objects too), so equality and hashing are by identity.
* Atom sort keys are injective (jet and function keys end with the ranks of
  their variables), so equal keys mean equal atoms and equal monomial keys
  mean equal monomials.
* An Expr's terms are strictly descending by ``_mono_sort_key`` and carry no
  zero coefficient; a monomial's factors are strictly ascending by atom sort
  key, and a RatPow never carries an integer exponent.  Sums merge the two
  term tuples; each atom computes its sort key once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union

Rational = Fraction


class ExprError(ValueError):
    """Raised for operations outside the kernel's closed fragment."""


# Symbol kinds.  Independent and reduced variables share an ordering rank so
# that a pass-through variable keeps its identity across a change of
# variables.
INDEPENDENT = "independent"
REDUCED = "reduced"
PARAMETER = "parameter"
DEPENDENT = "dependent"

_KIND_RANK = {INDEPENDENT: 0, REDUCED: 0, PARAMETER: 2, DEPENDENT: 4}
_RANK_RATPOW = 3
_RANK_JET = 5
_RANK_FUNC = 6
_RANK_APP = 7

ELEMENTARY = ("exp", "tanh")


class Exponent:
    """Affine exponent num2/2 + n * <exponent parameter>; interned on (num2, n)."""

    __slots__ = ("num2", "n", "_key")
    _interned: dict = {}

    def __new__(cls, num2: int, n: int = 0):
        self = cls._interned.get((num2, n))
        if self is None:
            self = object.__new__(cls)
            self.num2 = num2
            self.n = n
            self._key = (n, num2)
            self = cls._interned.setdefault((num2, n), self)
        return self

    def is_zero(self) -> bool:
        return self.num2 == 0 and self.n == 0

    def is_integer(self) -> bool:
        return self.n == 0 and self.num2 % 2 == 0

    def int_value(self) -> int:
        if not self.is_integer():
            raise ExprError("exponent %s is not a concrete integer" % (self,))
        return self.num2 // 2

    def plus(self, other: "Exponent") -> "Exponent":
        return Exponent(self.num2 + other.num2, self.n + other.n)

    def minus_int(self, k: int) -> "Exponent":
        return Exponent(self.num2 - 2 * k, self.n)

    def times_int(self, k: int) -> "Exponent":
        return Exponent(self.num2 * k, self.n * k)

    def neg(self) -> "Exponent":
        return Exponent(-self.num2, -self.n)

    def constant(self) -> Fraction:
        return Fraction(self.num2, 2)

    def key(self):
        return self._key

    def __reduce__(self):
        return (Exponent, (self.num2, self.n))

    def __repr__(self) -> str:
        return "Exponent(num2=%r, n=%r)" % (self.num2, self.n)

    def __str__(self) -> str:
        if self.n == 0:
            return str(Fraction(self.num2, 2))
        if self.n == 1:
            s = "n"
        elif self.n == -1:
            s = "-n"
        else:
            s = "%d*n" % self.n
        c = Fraction(self.num2, 2)
        if c > 0:
            s += "+%s" % c
        elif c < 0:
            s += "-%s" % (-c)
        return s


EXP_ONE = Exponent(2, 0)
EXP_N = Exponent(0, 1)


class Sym:
    """A named base symbol: variable, parameter, or dependent quantity.

    Interned on (rank, name): an independent and a reduced variable of the
    same name are one object, which keeps the kind it was first built with.
    """

    __slots__ = ("name", "kind", "_rank", "_key")
    _interned: dict = {}

    def __new__(cls, name: str, kind: str = PARAMETER):
        rank = _KIND_RANK.get(kind)
        if rank is None:
            raise ExprError("unknown symbol kind %r" % kind)
        self = cls._interned.get((rank, name))
        if self is None:
            self = object.__new__(cls)
            self.name = name
            self.kind = kind
            self._rank = rank
            self._key = (rank, name, ())
            self = cls._interned.setdefault((rank, name), self)
        return self

    @property
    def rank(self) -> int:
        return self._rank

    def sort_key(self):
        return self._key

    def __reduce__(self):
        return (Sym, (self.name, self.kind))

    def __repr__(self) -> str:
        return "Sym(%r, %s)" % (self.name, self.kind)


# The single symbolic exponent parameter used by power-law nonlinearities.
N_SYMBOL = Sym("n", PARAMETER)


class RatPow:
    """Opaque rational base carrying a symbolic power, e.g. 2^n."""

    __slots__ = ("base", "_key")
    _interned: dict = {}

    def __new__(cls, base: Fraction):
        base = Fraction(base)
        ident = (base.numerator, base.denominator)
        self = cls._interned.get(ident)
        if self is None:
            if base == 0:
                raise ExprError("zero base under a symbolic power")
            self = object.__new__(cls)
            self.base = base
            self._key = (_RANK_RATPOW, "%d/%d" % ident, ())
            self = cls._interned.setdefault(ident, self)
        return self

    def sort_key(self):
        return self._key

    def __reduce__(self):
        return (RatPow, (self.base,))

    def __repr__(self) -> str:
        return "RatPow(%s)" % (self.base,)


class Jet:
    """Jet coordinate u_J for a dependent symbol over ordered base variables."""

    __slots__ = ("dep", "ivars", "counts", "order", "_key")
    _interned: dict = {}

    def __new__(cls, dep: Sym, ivars: tuple, counts: tuple):
        ivars = tuple(ivars)
        counts = tuple(counts)
        self = cls._interned.get((dep, ivars, counts))
        if self is None:
            if len(ivars) != len(counts):
                raise ExprError("jet index length mismatch")
            if any(c < 0 for c in counts):
                raise ExprError("negative jet multi-index")
            if sum(counts) == 0:
                raise ExprError("zero-order jet; use the dependent symbol")
            self = object.__new__(cls)
            self.dep = dep
            self.ivars = ivars
            self.counts = counts
            self.order = sum(counts)
            self._key = (
                _RANK_JET,
                dep.name,
                (self.order, counts, tuple([v.name for v in ivars])),
                (dep._rank,) + tuple([v._rank for v in ivars]),
            )
            self = cls._interned.setdefault((dep, ivars, counts), self)
        return self

    def word(self) -> tuple:
        out = []
        for i, c in enumerate(self.counts):
            out.extend([i] * c)
        return tuple(out)

    def sort_key(self):
        return self._key

    def __reduce__(self):
        return (Jet, (self.dep, self.ivars, self.counts))

    def __repr__(self) -> str:
        return "Jet(%s;%s)" % (self.dep.name, ",".join(map(str, self.counts)))


class Func:
    """Opaque function symbol with ordered arguments and a derivative multi-index."""

    __slots__ = ("name", "args", "orders", "_key")
    _interned: dict = {}

    def __new__(cls, name: str, args: tuple, orders: Optional[tuple] = None):
        args = tuple(args)
        orders = tuple(0 for _ in args) if orders is None else tuple(orders)
        self = cls._interned.get((name, args, orders))
        if self is None:
            if len(args) != len(orders) or any(o < 0 for o in orders):
                raise ExprError("bad derivative multi-index for %s" % name)
            self = object.__new__(cls)
            self.name = name
            self.args = args
            self.orders = orders
            self._key = (
                _RANK_FUNC,
                name,
                (orders, tuple([a.name for a in args])),
                tuple([a._rank for a in args]),
            )
            self = cls._interned.setdefault((name, args, orders), self)
        return self

    def bump(self, arg: Sym) -> "Func":
        if arg not in self.args:
            raise ExprError("%s is not an argument of %s" % (arg.name, self.name))
        orders = list(self.orders)
        orders[self.args.index(arg)] += 1
        return Func(self.name, self.args, tuple(orders))

    def sort_key(self):
        return self._key

    def __reduce__(self):
        return (Func, (self.name, self.args, self.orders))

    def __repr__(self) -> str:
        return "Func(%s;%s)" % (self.name, ",".join(map(str, self.orders)))


class App:
    """Application of an elementary function (exp or tanh) to a canonical Expr.

    Not interned: equality compares the function and the argument.
    """

    __slots__ = ("fn", "arg", "_hash", "_key")

    def __init__(self, fn: str, arg: "Expr"):
        if fn not in ELEMENTARY:
            raise ExprError("unsupported elementary function %r" % fn)
        self.fn = fn
        self.arg = arg
        self._hash = hash((_RANK_APP, fn, arg))
        self._key = (_RANK_APP, fn, arg.key())

    def sort_key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, App) and self.fn == other.fn and self.arg == other.arg

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "App(%s, %r)" % (self.fn, str(self.arg))


Atom = Union[Sym, RatPow, Jet, Func, App]
Mono = tuple  # tuple[tuple[Atom, Exponent], ...] sorted by atom sort key


def _atom_key(factor):
    """Sort key of an (atom, exponent) factor within a monomial."""
    return factor[0]._key


def _mono_sort_key(mono: Mono):
    return (
        sum([e.n for _, e in mono]),
        sum([e.num2 for _, e in mono]),
        tuple([(a._key, e._key) for a, e in mono]),
    )


class Expr:
    """Canonical expression; construct through the module helpers and operators."""

    __slots__ = ("terms", "_hash", "_key", "_str", "_mkeys")

    def __init__(self, terms: tuple, mkeys: Optional[list] = None):
        self.terms = terms
        self._hash = None
        self._key = None
        self._str = None
        self._mkeys = mkeys

    # -- construction -------------------------------------------------------

    @staticmethod
    def _from_map(m: dict) -> "Expr":
        items = [(_mono_sort_key(mono), mono, c) for mono, c in m.items() if c != 0]
        items.sort(key=itemgetter(0), reverse=True)
        return Expr(tuple([(mono, c) for _k, mono, c in items]), [k for k, _m, _c in items])

    def _mono_keys(self) -> list:
        """The ``_mono_sort_key`` of each term, computed once per Expr."""
        if self._mkeys is None:
            self._mkeys = [_mono_sort_key(mono) for mono, _ in self.terms]
        return self._mkeys

    @staticmethod
    def rational(q) -> "Expr":
        q = Fraction(q)
        if q == 0:
            return ZERO
        return Expr((((), q),))

    @staticmethod
    def atom(a: Atom, exp: Exponent = EXP_ONE) -> "Expr":
        if exp.is_zero():
            return ONE
        if a.__class__ is RatPow and exp.is_integer():
            return Expr.rational(a.base ** exp.int_value())
        return Expr(((((a, exp),), Fraction(1)),))

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def as_rational(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_rational():
            raise ExprError("expression %s is not a rational constant" % self)
        return self.terms[0][1]

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading(self):
        if self.is_zero:
            raise ExprError("zero expression has no leading term")
        return self.terms[0]

    def atoms(self) -> Iterator[Atom]:
        """Yield every atom, recursing into elementary-function arguments."""
        for mono, _ in self.terms:
            for a, _e in mono:
                yield a
                if isinstance(a, App):
                    yield from a.arg.atoms()

    def contains(self, atom: Atom) -> bool:
        return any(a == atom for a in self.atoms())

    def key(self):
        if self._key is None:
            self._key = tuple(
                (tuple([(a._key, e._key) for a, e in mono]), c.numerator, c.denominator)
                for mono, c in self.terms
            )
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                other = Expr.rational(other)
            else:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Expr":
        """Merge two canonical term tuples; like terms add, zero sums drop."""
        other = as_expr(other)
        ta, tb = self.terms, other.terms
        if not tb:
            return self
        if not ta:
            return other
        ka, kb = self._mono_keys(), other._mono_keys()
        na, nb = len(ta), len(tb)
        terms, keys = [], []
        i = j = 0
        while i < na and j < nb:
            x, y = ka[i], kb[j]
            if x > y:
                terms.append(ta[i])
                keys.append(x)
                i += 1
            elif x < y:
                terms.append(tb[j])
                keys.append(y)
                j += 1
            else:
                mono, c = ta[i]
                c = c + tb[j][1]
                if c:
                    terms.append((mono, c))
                    keys.append(x)
                i += 1
                j += 1
        if i < na:
            terms.extend(ta[i:])
            keys.extend(ka[i:])
        elif j < nb:
            terms.extend(tb[j:])
            keys.extend(kb[j:])
        return Expr(tuple(terms), keys)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(tuple([(mono, -c) for mono, c in self.terms]), self._mkeys)

    def __sub__(self, other) -> "Expr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = as_expr(other)
        m: dict = {}
        for mono1, c1 in self.terms:
            for mono2, c2 in other.terms:
                mono, extra = _mul_monos(mono1, mono2)
                c = c1 * c2 if extra == 1 else c1 * c2 * extra
                if c:
                    prev = m.get(mono)
                    m[mono] = c if prev is None else prev + c
        return Expr._from_map(m)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = as_expr(other)
        return self * _invert_monomial(other)

    def __rtruediv__(self, other) -> "Expr":
        return as_expr(other) * _invert_monomial(self)

    def __pow__(self, k: int) -> "Expr":
        if isinstance(k, Exponent):
            return self.pow_exponent(k)
        if not isinstance(k, int):
            raise ExprError("integer power expected")
        if k == 0:
            return ONE
        if k < 0:
            return _invert_monomial(self) ** (-k)
        out = ONE
        base = self
        e = k
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def pow_exponent(self, exp: Exponent) -> "Expr":
        """Raise to a symbolic or half-integer exponent; monomial bases only."""
        if exp.is_zero():
            return ONE
        if exp.is_integer():
            return self ** exp.int_value()
        if not self.is_monomial():
            raise ExprError(
                "symbolic-power substitution requires a single-monomial base, got %s" % self
            )
        mono, coeff = self.terms[0]
        m: dict = {}
        extra = Fraction(1)
        for a, e in mono:
            if not e.is_integer():
                raise ExprError("cannot raise %s^%s to power %s" % (a, e, exp))
            newe = exp.times_int(e.int_value())
            if not newe.is_zero():
                m[a] = newe
        if coeff != 1:
            if coeff < 0 and not exp.is_integer():
                raise ExprError("negative coefficient under a symbolic power")
            m2, extra = _fold_ratpow(RatPow(coeff), exp)
            for a, e in m2:
                m[a] = m.get(a, Exponent(0, 0)).plus(e)
        mono_out = tuple(sorted(((a, e) for a, e in m.items() if not e.is_zero()),
                                key=_atom_key))
        return Expr(((mono_out, extra),))

    # -- calculus ------------------------------------------------------------

    def diff(self, s: Atom) -> "Expr":
        """Partial derivative treating all other atoms as independent."""
        if s == N_SYMBOL:
            for mono, _ in self.terms:
                if any(e.n for _, e in mono):
                    raise ExprError("cannot differentiate by the exponent parameter")
        out = ZERO
        for mono, coeff in self.terms:
            for i, (a, e) in enumerate(mono):
                da = _atom_diff(a, s)
                if da.is_zero:
                    continue
                rest = mono[:i] + mono[i + 1 :]
                down = e.minus_int(1)
                piece = Expr(((rest, coeff),)) * _exponent_expr(e) * da
                if not down.is_zero():
                    piece = piece * Expr.atom(a, down)
                out = out + piece
        return out

    # -- substitution --------------------------------------------------------

    def subst(self, target: Atom, repl) -> "Expr":
        """Replace every occurrence of an atom, including inside exp/tanh arguments."""
        repl = as_expr(repl)
        if isinstance(target, Sym) and target == N_SYMBOL:
            return self._subst_exponent_param(repl)
        out = ZERO
        for mono, coeff in self.terms:
            factor = Expr.rational(coeff)
            for a, e in mono:
                if a == target:
                    factor = factor * _power_of(repl, e)
                    continue
                if isinstance(a, App) and a.arg.contains(target):
                    factor = factor * _power_of(app(a.fn, a.arg.subst(target, repl)), e)
                    continue
                factor = factor * Expr.atom(a, e)
            out = out + factor
        return out

    def _subst_exponent_param(self, repl: "Expr") -> "Expr":
        uses_exponents = any(e.n for mono, _ in self.terms for _, e in mono)
        if not uses_exponents:
            return self.subst_plain_n(repl)
        if not repl.is_rational():
            raise ExprError("exponent parameter must bind to an integer")
        q = repl.as_rational()
        if q.denominator != 1:
            raise ExprError("exponent parameter must bind to an integer")
        k = q.numerator
        out = ZERO
        for mono, coeff in self.terms:
            factor = Expr.rational(coeff)
            for a, e in mono:
                e2 = Exponent(e.num2 + 2 * k * e.n, 0)
                if a == N_SYMBOL:
                    factor = factor * _power_of(Expr.rational(k), e2)
                elif isinstance(a, RatPow):
                    factor = factor * _power_of(Expr.rational(a.base), e2)
                elif isinstance(a, App) and a.arg.contains(N_SYMBOL):
                    factor = factor * _power_of(app(a.fn, a.arg.subst(N_SYMBOL, repl)), e2)
                else:
                    if e2.is_zero():
                        continue
                    factor = factor * Expr.atom(a, e2)
            out = out + factor
        return out

    def subst_plain_n(self, repl: "Expr") -> "Expr":
        out = ZERO
        for mono, coeff in self.terms:
            factor = Expr.rational(coeff)
            for a, e in mono:
                if a == N_SYMBOL:
                    factor = factor * _power_of(repl, e)
                elif isinstance(a, App) and a.arg.contains(N_SYMBOL):
                    factor = factor * _power_of(app(a.fn, a.arg.subst(N_SYMBOL, repl)), e)
                else:
                    factor = factor * Expr.atom(a, e)
            out = out + factor
        return out

    def subst_func(self, name: str, args: tuple, rule: "Expr", base_orders: Optional[tuple] = None) -> "Expr":
        """Replace derivative instances of a named function symbol.

        An atom Func(name, args, J) with J >= base_orders componentwise is
        replaced by the (J - base_orders)-fold derivative of ``rule``.
        """
        if base_orders is None:
            base_orders = tuple(0 for _ in args)
        cache: dict = {}

        def value_for(orders: tuple) -> Expr:
            if orders in cache:
                return cache[orders]
            delta = tuple(o - b for o, b in zip(orders, base_orders))
            e = rule
            for arg, d in zip(args, delta):
                for _ in range(d):
                    e = e.diff(arg)
            cache[orders] = e
            return e

        out = ZERO
        for mono, coeff in self.terms:
            factor = Expr.rational(coeff)
            for a, e in mono:
                if (
                    isinstance(a, Func)
                    and a.name == name
                    and len(a.args) == len(args)
                    and all(x == y for x, y in zip(a.args, args))
                    and all(o >= b for o, b in zip(a.orders, base_orders))
                ):
                    factor = factor * _power_of(value_for(a.orders), e)
                elif isinstance(a, App):
                    inner = a.arg.subst_func(name, args, rule, base_orders)
                    factor = factor * _power_of(app(a.fn, inner), e)
                else:
                    factor = factor * Expr.atom(a, e)
            out = out + factor
        return out

    # -- structure -----------------------------------------------------------

    def collect(self, atoms: Iterable[Atom]) -> dict:
        """Split into monomials over ``atoms`` with coefficient expressions.

        Returns a map from monomial Expr (in the given atoms) to coefficient
        Expr; the coefficients contain none of the given atoms.
        """
        atomset = set(atoms)
        if not atomset:
            raise ExprError("collect needs a non-empty atom set")
        groups: dict = {}
        for mono, coeff in self.terms:
            keypart = tuple((a, e) for a, e in mono if a in atomset)
            rest = tuple((a, e) for a, e in mono if a not in atomset)
            for a, _e in rest:
                if isinstance(a, App) and any(a.arg.contains(t) for t in atomset):
                    raise ExprError("collect atom occurs inside an opaque application")
            g = groups.setdefault(keypart, {})
            g[rest] = g.get(rest, Fraction(0)) + coeff
        out = {}
        for keypart, restmap in groups.items():
            keyexpr = Expr(((keypart, Fraction(1)),))
            val = Expr._from_map(restmap)
            if not val.is_zero:
                out[keyexpr] = val
        return out

    def content_normalized(self) -> "Expr":
        """Divide by the rational content; leading coefficient becomes +1-signed."""
        if self.is_zero:
            return self
        from math import gcd

        num = 0
        den = 1
        for _, c in self.terms:
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        content = Fraction(num, den) if num else Fraction(1)
        if self.terms[0][1] < 0:
            content = -content
        return Expr(tuple((mono, c / content) for mono, c in self.terms))

    def max_jet_order(self) -> int:
        best = 0
        for a in self.atoms():
            if isinstance(a, Jet):
                best = max(best, a.order)
        return best

    # -- evaluation ----------------------------------------------------------

    def eval_fraction(self, env: dict, app_value: Optional[Callable] = None) -> Fraction:
        """Exact evaluation; every non-App atom must be bound in ``env``."""
        total = Fraction(0)
        for mono, coeff in self.terms:
            v = coeff
            for a, e in mono:
                if isinstance(a, App):
                    argv = a.arg.eval_fraction(env, app_value)
                    if app_value is None:
                        raise ExprError("no evaluator for %s" % a.fn)
                    base = app_value(a.fn, argv)
                elif isinstance(a, RatPow):
                    base = a.base
                else:
                    if a not in env:
                        raise ExprError("unbound atom %r" % (a,))
                    base = Fraction(env[a])
                k = e.int_value()
                v *= base ** k
            total += v
        return total

    def eval_float(self, env: dict) -> float:
        import math

        total = 0.0
        for mono, coeff in self.terms:
            v = float(coeff)
            for a, e in mono:
                if isinstance(a, App):
                    argv = a.arg.eval_float(env)
                    base = math.exp(argv) if a.fn == "exp" else math.tanh(argv)
                elif isinstance(a, RatPow):
                    base = float(a.base)
                else:
                    if a not in env:
                        raise ExprError("unbound atom %r" % (a,))
                    base = float(env[a])
                if e.n:
                    raise ExprError("unbound exponent parameter in numeric evaluation")
                if e.num2 % 2 == 0:
                    v *= base ** (e.num2 // 2)
                else:
                    v *= math.sqrt(base) ** e.num2
            total += v
        return total

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if self._str is None:
            self._str = _format_expr(self)
        return self._str

    def __repr__(self) -> str:
        return "Expr(%s)" % str(self)


ZERO = Expr(())
ONE = Expr((((), Fraction(1)),))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.rational(x)
    if isinstance(x, (Sym, RatPow, Jet, Func, App)):
        return Expr.atom(x)
    raise ExprError("cannot interpret %r as an expression" % (x,))


def normalize(e) -> Expr:
    """Canonical form entry point; Exprs are canonical by construction."""
    return as_expr(e)


def is_zero(e) -> bool:
    return as_expr(e).is_zero


def _mul_monos(m1: Mono, m2: Mono):
    """Merge two sorted monomials; returns (mono, rational factor from folds).

    Canonical monomials never hold a zero exponent or a RatPow with an
    integer exponent, so only atoms present in both factors need folding;
    atom keys are injective, so an atom occurs in each factor at most once.
    """
    if not m1 or not m2:
        return m1 or m2, 1
    items = []
    extra = 1
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, e = m1[i]
        b, f = m2[j]
        if a == b:
            i += 1
            j += 1
            e = e.plus(f)
            if e.is_zero():
                continue
            if isinstance(a, RatPow) and e.is_integer():
                extra *= a.base ** e.int_value()
                continue
            items.append((a, e))
        elif b._key < a._key:
            items.append(m2[j])
            j += 1
        else:
            items.append(m1[i])
            i += 1
    items.extend(m1[i:])
    items.extend(m2[j:])
    return tuple(items), extra


def _invert_monomial(e: Expr) -> Expr:
    if e.is_zero:
        raise ExprError("division by zero")
    if not e.is_monomial():
        raise ExprError("non-monomial divisor: %s" % e)
    mono, coeff = e.terms[0]
    inv = tuple(sorted(((a, x.neg()) for a, x in mono), key=_atom_key))
    return Expr(((inv, Fraction(1) / coeff),))


def _fold_ratpow(rp: RatPow, exp: Exponent):
    """RatPow(q)^exp as (mono fragment, rational factor)."""
    if exp.is_integer():
        return (), rp.base ** exp.int_value()
    if rp.base == 1:
        return (), Fraction(1)
    if exp.num2 % 2:
        raise ExprError("half-integer power of a rational base")
    k = exp.num2 // 2
    extra = rp.base ** k if k else Fraction(1)
    return ((rp, Exponent(0, exp.n)),), extra


def _power_of(base: Expr, e: Exponent) -> Expr:
    if e.is_integer():
        return base ** e.int_value()
    return base.pow_exponent(e)


def _exponent_expr(e: Exponent) -> Expr:
    out = ZERO
    c = e.constant()
    if c:
        out = out + Expr.rational(c)
    if e.n:
        out = out + Expr.rational(e.n) * Expr.atom(N_SYMBOL)
    return out


def _atom_diff(a: Atom, s: Atom) -> Expr:
    if isinstance(a, Sym) or isinstance(a, Jet):
        return ONE if a == s else ZERO
    if isinstance(a, Func):
        if isinstance(s, Sym) and any(x == s for x in a.args):
            return Expr.atom(a.bump(s))
        return ZERO
    if isinstance(a, App):
        inner = a.arg.diff(s)
        if inner.is_zero:
            return ZERO
        if a.fn == "exp":
            return Expr.atom(a) * inner
        self_sq = Expr.atom(a, Exponent(4, 0))
        return (ONE - self_sq) * inner
    if isinstance(a, RatPow):
        return ZERO
    raise ExprError("cannot differentiate atom %r" % (a,))


def app(fn: str, arg) -> Expr:
    """Build exp(arg) or tanh(arg) with zero-argument folding."""
    arg = as_expr(arg)
    if arg.is_zero:
        return ONE if fn == "exp" else ZERO
    return Expr.atom(App(fn, arg))


# -- printing helpers ---------------------------------------------------------


def _format_exponent(e: Exponent) -> str:
    s = str(e)
    if s.isdigit() or s == "n":
        return s
    return "(%s)" % s


def _format_atom(a: Atom) -> str:
    if isinstance(a, Sym):
        return a.name
    if isinstance(a, RatPow):
        q = a.base
        if q < 0 or q.denominator != 1:
            return "(%s)" % q
        return str(q)
    if isinstance(a, Jet):
        names = []
        for v, c in zip(a.ivars, a.counts):
            names.extend([v.name] * c)
        return "%s[%s]" % (a.dep.name, ",".join(names))
    if isinstance(a, Func):
        if all(o == 0 for o in a.orders):
            return "%s(%s)" % (a.name, ",".join(v.name for v in a.args))
        names = []
        for v, o in zip(a.args, a.orders):
            names.extend([v.name] * o)
        return "D(%s;%s)" % (a.name, ",".join(names))
    if isinstance(a, App):
        return "%s(%s)" % (a.fn, a.arg)
    raise ExprError("unprintable atom %r" % (a,))


def _format_mono(mono: Mono, coeff: Fraction) -> str:
    parts = []
    ac = abs(coeff)
    if ac != 1 or not mono:
        parts.append(str(ac))
    for a, e in mono:
        base = _format_atom(a)
        if e == EXP_ONE:
            parts.append(base)
        else:
            parts.append("%s^%s" % (base, _format_exponent(e)))
    return "*".join(parts)


def _format_expr(e: Expr) -> str:
    if e.is_zero:
        return "0"
    chunks = []
    for i, (mono, coeff) in enumerate(e.terms):
        body = _format_mono(mono, coeff)
        if i == 0:
            chunks.append("-" + body if coeff < 0 else body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)
