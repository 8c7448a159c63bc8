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
  Exponents are interned through one constructor, ``_Interned``: building an
  equal one returns the existing object (copies and unpickled objects too),
  so equality and hashing are by identity.
* Atom sort keys are injective (jet and function keys end with the ranks of
  their variables), so equal keys mean equal atoms and equal monomial keys
  mean equal monomials.
* An Expr's terms are strictly descending by ``_mono_sort_key`` and carry no
  zero coefficient; a monomial's factors are strictly ascending by atom sort
  key, and a RatPow never carries an integer exponent.  Sums and
  differences merge the two term tuples (``_merge``); each atom computes its
  sort key once, and each distinct monomial once (``_MONO_KEYS``).
* Pure monomial facts are built once: ``_PRODUCTS`` keys a product by the
  pair of monomials, ``_PARTIALS`` a monomial's partial derivatives by the
  monomial (``jet._SHIFTS`` does the same for total derivatives).  A
  monomial with an exp/tanh factor is never stored, since App compares by
  value and an entry would hand one caller's App to the next.
* An Expr holds only its terms.  Monomial keys live only in ``_MONO_KEYS``;
  ``key()`` and the printed string are built on demand, and the hash is that
  of the terms.
* A coefficient is an ``int`` or a ``Fraction``, never a float, and an int
  wherever its value is integral: rationals, atoms, ``ONE`` and ``collect``
  keys store ints, ``content_normalized`` leaves coprime ints, and every
  coefficient formed by arithmetic (sums, products, inverses, derivative
  scaling, folded rational powers) passes through ``_exact``.  A product by
  the int 1 is not formed.
  Equal values compare and hash equal (``1 == Fraction(1)``), so term tuples,
  ``key()``, ``str()`` and term order never depend on the type;
  ``as_rational`` always returns a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union


class ExprError(ValueError):
    """Raised for operations outside the kernel's closed fragment."""


# Symbol kinds.
VARIABLE = "variable"
PARAMETER = "parameter"
DEPENDENT = "dependent"

_KIND_RANK = {VARIABLE: 0, PARAMETER: 2, DEPENDENT: 4}
_RANK_RATPOW = 3
_RANK_JET = 5
_RANK_FUNC = 6
_RANK_APP = 7

ELEMENTARY = ("exp", "tanh")


class _Interned:
    """The one constructor of the interned kernel objects.

    A subclass states its identity, ``_identity(*args)``: the constructor's
    arguments in canonical form, and ``_fill(*identity)``, which checks and
    fills a new object, its sort key ``_key`` included.  Building an equal
    object returns the existing one, and copies and unpickled objects are
    rebuilt from the stored identity, so equality and hashing are by identity.
    """

    __slots__ = ("_ident", "_key")

    def __init_subclass__(cls):
        cls._interned = {}

    def __new__(cls, *args):
        ident = cls._identity(*args)
        self = cls._interned.get(ident)
        if self is None:
            self = object.__new__(cls)
            self._ident = ident
            self._fill(*ident)
            self = cls._interned.setdefault(ident, self)
        return self

    def sort_key(self):
        return self._key

    def __reduce__(self):
        return (self.__class__, self._ident)


class Exponent(_Interned):
    """Affine exponent num2/2 + n * <exponent parameter>; interned on (num2, n)."""

    __slots__ = ("num2", "n")

    @staticmethod
    def _identity(num2: int, n: int = 0):
        return (num2, n)

    def _fill(self, num2, n):
        self.num2 = num2
        self.n = n
        self._key = (n, num2)

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


class Sym(_Interned):
    """A named base symbol: variable, parameter, or dependent quantity.

    Interned on (name, kind).
    """

    __slots__ = ("name", "kind", "_rank")

    @staticmethod
    def _identity(name: str, kind: str = PARAMETER):
        return (name, kind)

    def _fill(self, name, kind):
        rank = _KIND_RANK.get(kind)
        if rank is None:
            raise ExprError("unknown symbol kind %r" % kind)
        self.name = name
        self.kind = kind
        self._rank = rank
        self._key = (rank, name, ())

    def __repr__(self) -> str:
        return "Sym(%r, %s)" % (self.name, self.kind)


# The single symbolic exponent parameter used by power-law nonlinearities.
N_SYMBOL = Sym("n", PARAMETER)


class RatPow(_Interned):
    """Opaque rational base carrying a symbolic power, e.g. 2^n."""

    __slots__ = ("base",)

    @staticmethod
    def _identity(base: Fraction):
        return (Fraction(base),)

    def _fill(self, base):
        if base == 0:
            raise ExprError("zero base under a symbolic power")
        self.base = base
        self._key = (_RANK_RATPOW, "%d/%d" % (base.numerator, base.denominator), ())

    def __repr__(self) -> str:
        return "RatPow(%s)" % (self.base,)


class Jet(_Interned):
    """Jet coordinate u_J for a dependent symbol over ordered base variables."""

    __slots__ = ("dep", "ivars", "counts", "order")

    @staticmethod
    def _identity(dep: Sym, ivars: tuple, counts: tuple):
        return (dep, tuple(ivars), tuple(counts))

    def _fill(self, dep, ivars, counts):
        if len(ivars) != len(counts):
            raise ExprError("jet index length mismatch")
        if any(c < 0 for c in counts):
            raise ExprError("negative jet multi-index")
        if sum(counts) == 0:
            raise ExprError("zero-order jet; use the dependent symbol")
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

    def word(self) -> tuple:
        out = []
        for i, c in enumerate(self.counts):
            out.extend([i] * c)
        return tuple(out)

    def __repr__(self) -> str:
        return "Jet(%s;%s)" % (self.dep.name, ",".join(map(str, self.counts)))


class Func(_Interned):
    """Opaque function symbol with ordered arguments and a derivative multi-index."""

    __slots__ = ("name", "args", "orders")

    @staticmethod
    def _identity(name: str, args: tuple, orders: Optional[tuple] = None):
        args = tuple(args)
        return (name, args, tuple(0 for _ in args) if orders is None else tuple(orders))

    def _fill(self, name, args, orders):
        if len(args) != len(orders) or any(o < 0 for o in orders):
            raise ExprError("bad derivative multi-index for %s" % name)
        if len(set(args)) != len(args):
            raise ExprError("repeated argument of %s" % name)
        self.name = name
        self.args = args
        self.orders = orders
        self._key = (
            _RANK_FUNC,
            name,
            (orders, tuple([a.name for a in args])),
            tuple([a._rank for a in args]),
        )

    def bump(self, arg: Sym) -> "Func":
        if arg not in self.args:
            raise ExprError("%s is not an argument of %s" % (arg.name, self.name))
        orders = list(self.orders)
        orders[self.args.index(arg)] += 1
        return Func(self.name, self.args, tuple(orders))

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


# The canonical key of every monomial met so far, keyed by the monomial.
# Equal monomials have equal keys (the atoms are interned or, for App, keyed
# by their argument), so the table grows like the atom intern tables.
_MONO_KEYS: dict = {}


def _mono_sort_key(mono: Mono):
    """(n-degree, doubled constant degree, per-factor keys), computed once."""
    key = _MONO_KEYS.get(mono)
    if key is None:
        key = _MONO_KEYS[mono] = (
            sum([e.n for _, e in mono]),
            sum([e.num2 for _, e in mono]),
            tuple([(a._key, e._key) for a, e in mono]),
        )
    return key


# Each product of two monomials, keyed by the pair, and each monomial's
# partial derivatives; neither stores a monomial with an exp/tanh factor.
_PRODUCTS: dict = {}
_PARTIALS: dict = {}


def _pure(mono: Mono) -> bool:
    return all(a.__class__ is not App for a, _ in mono)


def _partials(mono: Mono) -> tuple:
    """One (atom, rest, exponent, scale) per factor a^e: rest is the monomial
    with a^(e-1) in place of a^e, and scale the rational e, or None when e
    holds n."""
    parts = _PARTIALS.get(mono)
    if parts is None:
        parts = []
        for i, (a, e) in enumerate(mono):
            down = e.minus_int(1)
            rest = mono[:i] + (() if down.is_zero() else ((a, down),)) + mono[i + 1 :]
            scale = None if e.n else e.num2 >> 1 if e.num2 & 1 == 0 else Fraction(e.num2, 2)
            parts.append((a, rest, e, scale))
        parts = tuple(parts)
        if _pure(mono):
            _PARTIALS[mono] = parts
    return parts


class Expr:
    """Canonical expression; construct through the module helpers and operators."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms

    # -- construction -------------------------------------------------------

    @staticmethod
    def _from_map(m: dict) -> "Expr":
        items = [(_mono_sort_key(mono), mono, c) for mono, c in m.items() if c != 0]
        items.sort(key=itemgetter(0), reverse=True)
        return Expr(tuple([(mono, c) for _k, mono, c in items]))

    @staticmethod
    def rational(q) -> "Expr":
        if q.__class__ is not int:
            q = Fraction(q)
            if q.denominator == 1:
                q = q.numerator
        if q == 0:
            return ZERO
        return Expr((((), q),))

    @staticmethod
    def atom(a: Atom, exp: Exponent = EXP_ONE) -> "Expr":
        if exp.is_zero():
            return ONE
        if a.__class__ is RatPow and exp.is_integer():
            return Expr.rational(a.base ** exp.int_value())
        return Expr(((((a, exp),), 1),))

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
        return Fraction(self.terms[0][1])

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

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
        return tuple([(_mono_sort_key(mono)[2], c.numerator, c.denominator) for mono, c in self.terms])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                other = Expr.rational(other)
            else:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Expr":
        return _merge(self, as_expr(other))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(tuple([(mono, -c) for mono, c in self.terms]))

    def __sub__(self, other) -> "Expr":
        return _merge(self, as_expr(other), True)

    def __rsub__(self, other) -> "Expr":
        return _merge(as_expr(other), self, True)

    def __mul__(self, other) -> "Expr":
        return Expr._from_map(_mul_into({}, self.terms, as_expr(other).terms))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = as_expr(other)
        return self * _invert_monomial(other)

    def __rtruediv__(self, other) -> "Expr":
        return as_expr(other) * _invert_monomial(self)

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            raise ExprError("integer power expected")
        if k == 0:
            return ONE
        if k < 0:
            return _invert_monomial(self) ** (-k)
        out = None
        base = self
        e = k
        while e:
            if e & 1:
                out = base if out is None else out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def pow_exponent(self, exp: Exponent) -> "Expr":
        """The one power rule: self^exp for any Exponent.  An integer power
        is ``**``; a symbolic or half-integer one needs a monomial base."""
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
        extra = 1
        for a, e in mono:
            if not e.is_integer():
                raise ExprError("cannot raise %s to power %s" % (Expr.atom(a, e), exp))
            newe = exp.times_int(e.int_value())
            if not newe.is_zero():
                m[a] = newe
        if coeff != 1:
            if coeff < 0:
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
        if s is N_SYMBOL and self._n_in_exponent():
            raise ExprError("cannot differentiate by the exponent parameter")
        return self.derive(lambda a: ONE if a == s else ZERO)

    def derive(self, d: Callable) -> "Expr":
        """The one derivation pass behind ``diff``, total derivatives, the
        pullback chain rule and the action of a (prolonged) vector field."""
        return Expr._from_map(self.derive_terms(d))

    def derive_terms(self, d: Callable) -> dict:
        """``derive`` as the raw {monomial: coefficient} map, zero sums kept.

        ``d(atom)`` gives the derivative of a Sym or a Jet.  A Func follows by
        the chain rule over its arguments, exp and tanh recurse into their
        argument, and a RatPow is constant.  Each term contributes
        ``c*e*a^(e-1)*rest*da`` straight into one term map; only an exponent
        holding n takes the general ``_exponent_expr`` product.
        """
        cache: dict = {}

        def of(a):
            r = cache.get(a)
            if r is None:
                cls = a.__class__
                if cls is Func:
                    r = ZERO
                    for s in dict.fromkeys(a.args):  # once per distinct argument, as bump() finds it
                        ds = of(s)
                        if ds.terms:
                            r = r + Expr.atom(a.bump(s)) * ds
                elif cls is App:
                    outer = Expr.atom(a) if a.fn == "exp" else ONE - Expr.atom(a, Exponent(4, 0))
                    r = outer * a.arg.derive(d)
                elif cls is RatPow:
                    r = ZERO
                else:
                    r = d(a)
                cache[a] = r
            return r

        m: dict = {}
        for mono, coeff in self.terms:
            for a, rest, e, scale in _partials(mono):
                da = of(a).terms
                if not da:
                    continue
                if scale is None:
                    scaled = (Expr(((rest, coeff),)) * _exponent_expr(e)).terms
                else:
                    scaled = ((rest, coeff if scale == 1 else _exact(coeff * scale)),)
                _mul_into(m, scaled, da)
        return m

    # -- substitution --------------------------------------------------------

    def subst(self, target: Union[Atom, dict], repl=None) -> "Expr":
        """Replace every occurrence of an atom, including inside exp/tanh arguments.

        ``target`` may also be a dict {atom: replacement} of simultaneous
        replacements, made in one pass.  Where the exponent parameter n occurs
        in an exponent, binding it needs an integer and rebinds every exponent
        and rational power such as 2^n.
        """
        rules = target if isinstance(target, dict) else {target: repl}
        rules = {a: as_expr(r) for a, r in rules.items()}
        if N_SYMBOL in rules and self._n_in_exponent():
            k = rules[N_SYMBOL]
            if len(rules) > 1:
                raise ExprError("the exponent parameter binds on its own, not with other atoms")
            if not k.is_rational() or k.as_rational().denominator != 1:
                raise ExprError("exponent parameter must bind to an integer")
            return self._rebuild(_bind_exponent_param(k.as_rational().numerator))
        return self._rebuild(lambda a, e: rules[a].pow_exponent(e) if a in rules else None, rules)

    def subst_func(self, name: str, args: tuple, rule: "Expr", base_orders: Optional[tuple] = None) -> "Expr":
        """Replace derivative instances of a named function symbol.

        An atom Func(name, args, J) with J >= base_orders componentwise is
        replaced by the (J - base_orders)-fold derivative of ``rule``.
        """
        args = tuple(args)
        base = base_orders or (0,) * len(args)
        get = derivative_table(rule, lambda value, i, _prev: value.diff(args[i]))
        return self.subst({a: get(tuple(o - b for o, b in zip(a.orders, base)))
                           for a in set(self.atoms()) if a.__class__ is Func and a.name == name
                           and a.args == args and all(o >= b for o, b in zip(a.orders, base))})

    def _n_in_exponent(self) -> bool:
        return any(e.n or (a.__class__ is App and a.arg._n_in_exponent())
                   for mono, _ in self.terms for a, e in mono)

    def _rebuild(self, replace: Callable, targets=None) -> "Expr":
        """``subst``'s pass over the terms: returns self when nothing is replaced."""
        m = _substitute(self.terms, replace, targets)
        return self if m is None else Expr._from_map(m)

    # -- structure -----------------------------------------------------------

    def collect(self, atoms: Iterable[Atom]) -> dict:
        """Split into monomials over ``atoms`` with coefficient expressions.

        Returns a map from monomial Expr (in the given atoms) to coefficient
        Expr; the coefficients contain none of the given atoms.
        """
        atomset = set(atoms)
        if not atomset:
            raise ExprError("collect needs a non-empty atom set")
        out = {}
        for keypart, restmap in _split_terms(self.terms, atomset.__contains__).items():
            keyexpr = Expr(((keypart, 1),))
            val = Expr._from_map(restmap)
            if not val.is_zero:
                out[keyexpr] = val
        return out

    def affine_in(self, atom: Atom):
        """Split ``self == a*atom + b`` with ``a`` and ``b`` free of ``atom``.

        Returns ``(a, b)``, with ``a`` zero when ``atom`` does not occur, or
        None when ``atom`` occurs with any power other than 1.
        """
        parts = self.collect([atom])
        a = parts.pop(Expr.atom(atom), ZERO)
        b = parts.pop(ONE, ZERO)
        return None if parts else (a, b)

    def content_normalized(self) -> "Expr":
        """Divide by the rational content; leading coefficient becomes +1-signed.

        The content is num/den, the gcd of the numerators over the lcm of the
        denominators, so every quotient c*den/num is an int.
        """
        return Expr(_primitive(self.terms)) if self.terms else self

    def max_jet_order(self) -> int:
        return max((a.order for a in self.atoms() if a.__class__ is Jet), default=0)

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

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return _format_expr(self)

    def __repr__(self) -> str:
        return "Expr(%s)" % str(self)


ZERO = Expr(())
ONE = Expr((((), 1),))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.rational(x)
    if isinstance(x, (Sym, RatPow, Jet, Func, App)):
        return Expr.atom(x)
    raise ExprError("cannot interpret %r as an expression" % (x,))


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


def _merge(a: Expr, b: Expr, negate: bool = False) -> Expr:
    """a + b, or a - b when negate: the one merge of two canonical term
    tuples; like terms add (or subtract), zero sums drop, and only the
    subtrahend's terms that meet no like term are negated."""
    ta, tb = a.terms, b.terms
    if not tb:
        return a
    if not ta and not negate:
        return b
    ka = [_mono_sort_key(mono) for mono, _ in ta]
    kb = [_mono_sort_key(mono) for mono, _ in tb]
    na, nb = len(ta), len(tb)
    terms = []
    i = j = 0
    while i < na and j < nb:
        x, y = ka[i], kb[j]
        if x > y:
            terms.append(ta[i])
            i += 1
        elif x < y:
            terms.append((tb[j][0], -tb[j][1]) if negate else tb[j])
            j += 1
        else:
            mono, c = ta[i]
            c = c - tb[j][1] if negate else c + tb[j][1]
            if c:
                terms.append((mono, _exact(c)))
            i += 1
            j += 1
    terms.extend(ta[i:])
    terms.extend([(mono, -c) for mono, c in tb[j:]] if negate else tb[j:])
    return Expr(tuple(terms))


def _exact(c):
    """The coefficient c, an int where it is integral: the one demotion of
    an integral Fraction that arithmetic leaves."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def _mul_into(m: dict, terms_a, terms_b) -> dict:
    """Add the product of two term sequences into the raw {monomial:
    coefficient} map m, zero sums kept, and return m.  A factor that is the
    int 1 forms no product."""
    for mono1, c1 in terms_a:
        unit = c1 == 1
        for mono2, c2 in terms_b:
            product = _PRODUCTS.get((mono1, mono2))
            if product is None:
                product = _mul_monos(mono1, mono2)
                if _pure(mono1) and _pure(mono2):
                    _PRODUCTS[(mono1, mono2)] = product
            mono, extra = product
            c = c2 if unit else c1 if c2 == 1 else _exact(c1 * c2)
            if extra != 1:
                c = _exact(c * extra)
            prev = m.get(mono)
            m[mono] = c if prev is None else _exact(prev + c)
    return m


def _substitute(terms, replace: Callable, targets=None) -> Optional[dict]:
    """The one substitution pass, behind ``subst`` (and so ``subst_func``)
    and the symmetry residual: ``terms`` is any (monomial, coefficient)
    sequence, an Expr's terms or a raw term map's items with zero sums.

    ``replace(atom, exponent)`` returns the Expr that replaces a factor, or
    None to keep it; exp/tanh arguments are rebuilt by the same rule.  A
    monomial's replaced factors are multiplied into its kept part once.
    ``targets``, when given, holds every atom the rule replaces: a monomial
    with none of them and no exp/tanh factor is kept without asking the rule.
    Returns the raw {monomial: coefficient} map, or None when nothing is
    replaced."""
    m, hit = {}, False
    for mono, coeff in terms:
        if targets is not None:
            for a, _e in mono:
                if a in targets or a.__class__ is App:
                    break
            else:
                prev = m.get(mono)
                m[mono] = coeff if prev is None else _exact(prev + coeff)
                continue
        rest, product = [], None
        for f in mono:
            a, e = f
            r = replace(a, e)
            if r is None and a.__class__ is App:
                arg = a.arg._rebuild(replace, targets)
                if arg is not a.arg:
                    r = app(a.fn, arg).pow_exponent(e)
            if r is None:
                rest.append(f)
            else:
                product = r if product is None else product * r
        if product is None:
            prev = m.get(mono)
            m[mono] = coeff if prev is None else _exact(prev + coeff)
        else:
            hit = True
            _mul_into(m, ((tuple(rest), coeff),), product.terms)
    return m if hit else None


def _split_terms(terms, is_key: Callable) -> dict:
    """Group (monomial, coefficient) pairs with distinct monomials by their
    factors over the key atoms: {key part: {rest: coefficient}}, both parts
    monomials and zero coefficients dropped.

    A key atom inside an exp/tanh argument cannot be split off and is refused.
    """
    groups: dict = {}
    for mono, coeff in terms:
        if not coeff:
            continue
        keypart = []
        rest = []
        for f in mono:
            a = f[0]
            if is_key(a):
                keypart.append(f)
            else:
                rest.append(f)
                if a.__class__ is App:
                    for b in a.arg.atoms():
                        if is_key(b):
                            raise ExprError("%s occurs inside %s and cannot be split off"
                                            % (_format_atom(b), _format_atom(a)))
        groups.setdefault(tuple(keypart), {})[tuple(rest)] = coeff
    return groups


def _primitive(terms) -> tuple:
    """The non-empty terms over their rational content, the leading
    coefficient positive: coprime ints."""
    num = 0
    den = 1
    for _, c in terms:
        num = gcd(num, c.numerator)
        d = c.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if terms[0][1] < 0:
        num = -num
    return tuple([(mono, c.numerator * (den // c.denominator) // num) for mono, c in terms])


def _invert_monomial(e: Expr) -> Expr:
    if e.is_zero:
        raise ExprError("division by zero")
    if not e.is_monomial():
        raise ExprError("non-monomial divisor: %s" % e)
    mono, coeff = e.terms[0]
    inv = tuple(sorted(((a, x.neg()) for a, x in mono), key=_atom_key))
    c = Fraction(coeff)
    return Expr(((inv, _exact(Fraction(c.denominator, c.numerator))),))


def _fold_ratpow(rp: RatPow, exp: Exponent):
    """RatPow(q)^exp as (mono fragment, rational factor), for q != 1 and exp
    not an integer."""
    if exp.num2 % 2:
        raise ExprError("half-integer power of a rational base")
    k = exp.num2 // 2
    return ((rp, Exponent(0, exp.n)),), _exact(rp.base ** k) if k else 1


def _bind_exponent_param(k: int) -> Callable:
    """The ``_rebuild`` rule that binds the exponent parameter n to the integer k."""

    def bind(a, e):
        if a is N_SYMBOL or a.__class__ is RatPow or e.n:
            bound = Exponent(e.num2 + 2 * k * e.n, 0)
            if a is N_SYMBOL:
                return Expr.rational(k).pow_exponent(bound)
            if a.__class__ is RatPow:
                return Expr.rational(a.base).pow_exponent(bound)
            return Expr.atom(a)._rebuild(bind).pow_exponent(bound)
        return None

    return bind


def _exponent_expr(e: Exponent) -> Expr:
    return Expr.rational(e.constant()) + Expr.rational(e.n) * Expr.atom(N_SYMBOL)


def derivative_table(base, step: Callable) -> Callable:
    """The memoised recursion over derivative multi-indices.

    Returns ``get(J)``: ``base`` at J = 0, else ``step(get(prev), i, prev)``
    where i is the last nonzero index of J and prev is J less one in slot i.
    Every value computed, prefixes included, is kept for later calls.
    """
    table: dict = {}

    def get(counts: tuple):
        value = table.get(counts)
        if value is None:
            i = max((k for k, c in enumerate(counts) if c), default=None)
            if i is None:
                value = base
            else:
                prev = counts[:i] + (counts[i] - 1,) + counts[i + 1 :]
                value = step(get(prev), i, prev)
            table[counts] = value
        return value

    return get


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
        parts.append(base if e is EXP_ONE else "%s^%s" % (base, _format_exponent(e)))
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
