"""Text model files: declarations plus pde / reduced / integral / ode / field /
ansatz / solution / run blocks, with a recursive-descent expression parser and
a canonical printer."""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .expr import (
    DEPENDENT,
    Exponent,
    Expr,
    ExprError,
    Func,
    Jet,
    N_SYMBOL,
    PARAMETER,
    Sym,
    VARIABLE,
    ZERO,
    app,
)
from .jet import Context, JetError, Record, _introduce, expand_pde, total_derivative
from .odes import METHODS
from .reduction import Ansatz, ReducedEquation, SolutionRule
from .symmetry import VectorField


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: Optional[set] = None):
        self.line = line
        self.col = col
        detail = "line %d, col %d: %s" % (line, col, message)
        if expected:
            detail += " (expected one of: %s)" % ", ".join(sorted(expected))
        super().__init__(detail)


class ModelLookupError(LookupError):
    """A block name that names no block, or a block without the asked-for view."""


# -- lexer ---------------------------------------------------------------------

_PUNCT = "{}()[]=;,^+-*/"
# digits with at most one '.', then an exponent only if it has a digit: every
# NUMBER token is a valid Fraction literal
_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class Token:
    def __init__(self, type: str, value: str, line: int, col: int):
        self.type = type  # NAME NUMBER STRING NEWLINE EOF or a punctuation character
        self.value = value
        self.line = line
        self.col = col


def _literal(tok: Token) -> Fraction:
    """The exact value of a NUMBER token, its digits times a power of ten.

    A ParseError at the token, before any power of ten is formed, if the
    numerator or the denominator needs more digits than Python converts
    between int and str (``sys.get_int_max_str_digits()``, 4300 by default;
    4300 where it sets no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    mantissa, _, exponent = tok.value.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    if not digits:
        return Fraction(0)
    sign = -1 if exponent[:1] == "-" else 1
    e = exponent.lstrip("+-").lstrip("0")
    if len(e) <= limit:  # a longer exponent outweighs any fraction the checks pass
        k = sign * int(e or 0) - len(frac)  # the value is digits * 10^k
        if len(digits) + max(k, 0) <= limit and -k < limit:
            if k >= 0:
                return Fraction(int(digits) * 10 ** k)
            return Fraction(int(digits), 10 ** -k)
    raise ParseError("number needs more than %d digits" % limit, tok.line, tok.col)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    col = 1
    i = 0
    depth = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0 and tokens and tokens[-1].type not in ("NEWLINE",):
                tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("STRING", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        m = _NUMBER.match(text, i) if ch in "0123456789." else None
        if m:
            tokens.append(Token("NUMBER", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth = max(0, depth - 1)
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- document model --------------------------------------------------------------


class ParamDecl(Record):
    def __init__(self, names: List[str]):
        self.names = names


class ExponentDecl(Record):
    def __init__(self, name: str):
        self.name = name


class FuncDecl(Record):
    def __init__(self, name: str, args: Tuple[str, ...]):
        self.name = name
        self.args = args


class EquationBlock(ReducedEquation):
    """lhs = 0 in the jet context ctx: the record of every equation block kind."""

    def __init__(self, name: str, ctx: Context, lhs: Expr, note: str = "", constants: Tuple[Sym, ...] = ()):
        super().__init__(ctx, lhs, name)
        self.note = note
        self.constants = constants  # integral blocks only


class PdeBlock(EquationBlock):
    """An equation block that also holds its solved form ``pde``, expanded at
    construction.  Its leading coefficient must be a parameter monomial, the
    form the symmetry residual and the determining equations divide by."""

    kind = "pde"

    def __init__(self, name: str, ctx: Context, lhs: Expr, note: str = "", constants: Tuple[Sym, ...] = ()):
        super().__init__(name, ctx, lhs, note, constants)
        self.pde = expand_pde(ctx, lhs, name=name)
        coeff = lhs.affine_in(self.pde.leading)[0]
        if not all(a.__class__ is Sym and a.kind == PARAMETER for a in coeff.atoms()):
            raise JetError("leading coefficient %s is not a parameter monomial" % coeff)


class ReducedBlock(EquationBlock):
    kind = "reduced"


class IntegralBlock(EquationBlock):
    kind = "integral"


class OdeBlock(EquationBlock):
    kind = "ode"


class FieldBlock(Record):
    kind = "field"

    def __init__(self, name: str, on: str, vf: VectorField, note: str = ""):
        self.name = name
        self.on = on
        self.vf = vf
        self.note = note


class AnsatzBlock(Record):
    kind = "ansatz"

    def __init__(self, name: str, on: str, ansatz: Ansatz, note: str = ""):
        self.name = name
        self.on = on
        self.ansatz = ansatz
        self.note = note


class SolutionBlock(Record):
    kind = "solution"

    def __init__(self, name: str, on: str, dep_name: str, sol: Expr, rules: Tuple[SolutionRule, ...],
                 bindings: List[Tuple[Sym, Expr]], note: str = ""):
        self.name = name
        self.on = on
        self.dep_name = dep_name
        self.sol = sol
        self.rules = rules
        self.bindings = bindings
        self.note = note


class RunBlock(Record):
    kind = "run"

    def __init__(self, name: str, ode: str, settings: List[Tuple[str, Fraction]], ic: List[Fraction],
                 span: Tuple[Fraction, Fraction], method: str = "adaptive-rk45", tol: Fraction = Fraction(1, 10 ** 9),
                 step: Fraction = Fraction(1, 10 ** 4), color: str = "black", note: str = ""):
        self.name = name
        self.ode = ode
        self.settings = settings
        self.ic = ic
        self.span = span
        self.method = method
        self.tol = tol
        self.step = step
        self.color = color
        self.note = note


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_BLOCKS = {cls.kind: cls for cls in (PdeBlock, ReducedBlock, IntegralBlock, OdeBlock,
                                     FieldBlock, AnsatzBlock, SolutionBlock, RunBlock)}
_TOP_LEVEL = set(_BLOCKS) | {"param", "exponent", "func"}


class ModelDocument(Record):
    def __init__(self, declarations: List[object], blocks: List[object], params: Dict[str, Sym],
                 funcs: Dict[str, Tuple[str, ...]]):
        self.declarations = declarations
        self.blocks = blocks
        self.params = params
        self.funcs = funcs  # argument names, resolved in each block's scope

    def block(self, kind, name: str):
        key = _normalize_name(name)
        for b in self.blocks:
            if isinstance(b, kind) and _normalize_name(b.name) == key:
                return b
        raise ModelLookupError("no %s named %r" % (kind.__name__, name))

    def find(self, name: str):
        key = _normalize_name(name)
        for b in self.blocks:
            if _normalize_name(b.name) == key:
                return b
        raise ModelLookupError("no block named %r" % name)

    def equation_of(self, block) -> ReducedEquation:
        """A pde, reduced, integral, or ode block itself, which is its equation."""
        if not isinstance(block, EquationBlock):
            raise ModelLookupError("block %r has no equation" % block.name)
        return block


def _normalize_name(name: str) -> str:
    return name.replace("-", "_").replace(".", "_").lower()


# -- parser -----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.block_keys: set = set()  # _normalize_name of every block name so far

    # token helpers
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def accept(self, type_: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.type == type_ and (value is None or tok.value == value):
            return self.advance()
        return None

    def expect(self, type_: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.type == type_ and (value is None or tok.value == value):
            return self.advance()
        want = value if value is not None else type_
        raise ParseError(
            "found %r" % (tok.value or tok.type), tok.line, tok.col, expected={want}
        )

    def skip_newlines(self):
        while self.peek().type in ("NEWLINE", ";"):
            self.advance()

    def error(self, msg: str, expected: Optional[set] = None):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col, expected=expected)

    # document
    def parse_document(self) -> ModelDocument:
        decls: List[object] = []
        blocks: List[object] = []
        params: Dict[str, Sym] = {}
        funcs: Dict[str, Tuple[str, ...]] = {}
        doc = ModelDocument(decls, blocks, params, funcs)
        top = _Scope({})  # the declared names
        self.skip_newlines()
        while self.peek().type != "EOF":
            tok = self.peek()
            if tok.type != "NAME":
                self.error("expected a declaration or block", expected=_TOP_LEVEL)
            if tok.value == "param":
                self.advance()
                names = self._parse_namelist()
                for nm in names:
                    params[nm] = top.introduce(nm, N_SYMBOL if nm == "n" else Sym(nm, PARAMETER), "parameter", tok)
                decls.append(ParamDecl(names))
            elif tok.value == "exponent":
                self.advance()
                nm = self._name()
                if nm != "n":
                    self.error("the exponent parameter must be named n")
                params[nm] = top.introduce(nm, N_SYMBOL, "exponent", tok)
                decls.append(ExponentDecl(nm))
            elif tok.value == "func":
                self.advance()
                nm = self._name()
                self.expect("(")
                args = tuple(self._parse_namelist())
                self.expect(")")
                funcs[nm] = top.introduce(nm, args, "function", tok)
                if len(set(args)) != len(args):
                    raise ParseError("function %r has a repeated argument" % nm, tok.line, tok.col)
                decls.append(FuncDecl(nm, args))
            elif tok.value in _BLOCKS:
                blocks.append(self.parse_block(doc))
            else:
                self.error("unknown top-level keyword %r" % tok.value, expected=_TOP_LEVEL)
            self.skip_newlines()
        return doc

    def parse_block(self, doc: ModelDocument):
        cls = _BLOCKS[self._name()]
        name = self.expect("NAME")
        on = self.accept("NAME", "on")
        if on is not None:
            if issubclass(cls, (EquationBlock, RunBlock)):
                raise ParseError("%s blocks take no 'on'" % cls.kind, on.line, on.col)
            on = self.expect("NAME")
        key = _normalize_name(name.value)
        if key in self.block_keys:
            raise ParseError("duplicate block name %r" % name.value, name.line, name.col)
        self.block_keys.add(key)
        self.expect("{")
        self.skip_newlines()
        read = self._equation_block if issubclass(cls, EquationBlock) else getattr(self, "_%s_block" % cls.kind)
        block = read(doc, cls, name.value, on)
        self.skip_newlines()
        self.expect("}")
        return block

    # clause helpers
    def _clauses(self, handlers: dict, got: Optional[dict] = None) -> dict:
        """Read clauses up to the closing brace.

        handlers[key](at) reads the rest of a clause whose key token is at; got
        maps each key read, note included, to the value of its last clause.
        """
        got = {} if got is None else got
        handlers = dict(handlers, note=lambda at: self._assigned(lambda: self.expect("STRING").value))
        while self.peek().type != "}":
            at = self.peek()
            key = self._name()
            if key not in handlers:
                self.error("unknown clause %r" % key, expected=set(handlers))
            got[key] = handlers[key](at)
            tok = self.peek()
            if tok.type in ("NEWLINE", ";"):
                self.skip_newlines()
            elif tok.type != "}":
                self.error("expected end of clause", expected={";", "newline", "}"})
        return got

    def _name(self) -> str:
        return self.expect("NAME").value

    def _assigned(self, read):
        self.expect("=")
        return read()

    def _parse_namelist(self) -> List[str]:
        names = [self._name()]
        while self.accept(","):
            names.append(self._name())
        return names

    def _variable(self, scope: "_Scope", on: Token) -> Sym:
        vname = self._name()
        v = scope.variable(vname)
        if v is None:
            self.error("%r is not an independent variable of %s" % (vname, on.value))
        return v

    def _dependent(self, ctx: Context, on: Token) -> Token:
        tok = self.expect("NAME")
        if tok.value != ctx.dependent.name:
            self.error("%r is not the dependent variable of %s" % (tok.value, on.value))
        return tok

    def _built_at(self, at: Token, build, *args):
        """build(*args), with an ExprError (a JetError too) as a ParseError at token at."""
        try:
            return build(*args)
        except ExprError as e:
            raise ParseError(str(e), at.line, at.col) from None

    def _on_scope(self, doc, cls, on: Optional[Token]) -> "_Scope":
        """Scope of the block named after 'on'; a ParseError at that name if it has no context."""
        if on is None:
            self.error("%s blocks need 'on %s'" % (cls.kind, "EQUATION" if cls is SolutionBlock else "PDE"))
        try:
            target = doc.block(PdeBlock, on.value) if cls is FieldBlock else doc.find(on.value)
            ctx = doc.equation_of(target).ctx
        except ModelLookupError as e:
            raise ParseError(e.args[0], on.line, on.col) from None
        return _Scope.of(doc, ctx, on)

    # blocks
    def _equation_block(self, doc, cls, name, on):
        got: dict = {}
        constants: List[Sym] = []

        def context_part(read):
            def clause(at):
                if "eq" in got:
                    raise ParseError("%s must come before eq" % at.value, at.line, at.col)
                return self._assigned(read)
            return clause

        def eq(at):
            if "vars" not in got or "dep" not in got:
                self.error("vars and dep must come before eq")
            params = tuple(sorted(doc.params.values(), key=lambda s: s.name))
            ctx = self._built_at(at, Context, tuple(got["vars"]), got["dep"], params)
            scope = _Scope.of(doc, ctx, at)
            left = self.parse_expr(scope)
            self.expect("=")
            return at, ctx, left - self.parse_expr(scope)

        def constant(at):
            self.expect("=")
            for nm in self._parse_namelist():
                if nm not in doc.params:
                    self.error("constant %r is not a declared parameter" % nm)
                constants.append(doc.params[nm])

        handlers = {
            "vars": context_part(lambda: [Sym(nm, VARIABLE) for nm in self._parse_namelist()]),
            "dep": context_part(lambda: Sym(self._name(), DEPENDENT)),
            "eq": eq,
        }
        if cls is IntegralBlock:
            handlers["constants"] = constant
        self._clauses(handlers, got)
        if "eq" not in got:
            self.error("block needs vars, dep, and eq clauses")
        at, ctx, lhs = got["eq"]
        return self._built_at(at, cls, name, ctx, lhs, got.get("note", ""), tuple(constants))

    def _field_block(self, doc, cls, name, on):
        scope = self._on_scope(doc, cls, on)
        ctx = scope.ctx
        xi: Dict[Sym, Expr] = {}

        def xi_clause(at):
            v = self._variable(scope, on)
            xi[v] = self._assigned(lambda: self._point_coefficient(scope, at))

        def eta(at):
            if self.peek().type == "NAME":
                self._dependent(ctx, on)
            return self._assigned(lambda: self._point_coefficient(scope, at))

        got = self._clauses({"xi": xi_clause, "eta": eta})
        vf = VectorField(ctx, xi, got.get("eta", ZERO), name=name)
        return FieldBlock(name, on.value, vf, got.get("note", ""))

    def _point_coefficient(self, scope, at: Token) -> Expr:
        """A field coefficient; a ParseError at the clause if it involves a jet."""
        e = self.parse_expr(scope)
        if any(isinstance(a, Jet) for a in e.atoms()):
            raise ParseError("point-symmetry coefficients must be jet free", at.line, at.col)
        return e

    def _ansatz_block(self, doc, cls, name, on):
        old = self._on_scope(doc, cls, on)  # a var expression sees only the old variables
        src = old.ctx
        # the names a new variable may not take: an old variable's only as var x = x
        new = _Scope({k: s for k, s in old.names.items() if s not in src.independents})
        new_vars: List[Tuple[Sym, Expr]] = []
        hints: List[Tuple[Sym, Expr]] = []

        def var(at):
            vname = self._name()
            e = self._assigned(lambda: self.parse_expr(old))
            v = Sym(vname, VARIABLE)
            if v in src.independents and e != Expr.atom(v):
                msg = "new variable %r reuses an old variable's name; only %s = %s passes it through"
                raise ParseError(msg % (vname, vname, vname), at.line, at.col)
            new_vars.append((new.introduce(vname, v, "new variable", at), e))

        def with_new_vars():
            return self.parse_expr(_Scope({**old.names, **new.names}, src))

        def sub(at):
            return self._dependent(src, on), self._assigned(with_new_vars)

        def inverse(at):
            v = self._variable(old, on)
            hints.append((v, self._assigned(with_new_vars)))

        got = self._clauses({"var": var, "sub": sub, "inverse": inverse})
        if not new_vars:
            self.error("ansatz needs at least one var clause")
        func = rule = None
        if "sub" in got:
            sub_tok, rule = got["sub"]
            func = _detect_ansatz_function(rule, tuple(v for v, _ in new_vars), sub_tok)
        return AnsatzBlock(name, on.value, Ansatz(src, new_vars, func, rule, hints, name=name), got.get("note", ""))

    def _solution_block(self, doc, cls, name, on):
        scope = self._on_scope(doc, cls, on)
        ctx = scope.ctx
        rules: List[SolutionRule] = []
        bindings: List[Tuple[Sym, Expr]] = []

        def bind(at):
            vname = self._name()
            e = self._assigned(lambda: self.parse_expr(scope))
            bindings.append((scope.introduce(vname, Sym(vname, VARIABLE), "bind", at), e))

        def sub(at):
            self._dependent(ctx, on)
            return self._assigned(lambda: self.parse_expr(scope))

        def rule(at):
            self.expect("NAME", "D")
            self.expect("(")
            ftok = self.expect("NAME")
            fname = ftok.value
            self.expect(";")
            dvars = self._parse_namelist()
            self.expect(")")
            rhs = self._assigned(lambda: self.parse_expr(scope))
            fargs = self._built_at(ftok, scope.func_args, fname)
            if fargs is None:
                self.error("unknown function %r in rule" % fname)
            orders = [0] * len(fargs)
            for dv in dvars:
                idx = next((i for i, a in enumerate(fargs) if a.name == dv), None)
                if idx is None:
                    self.error("%r is not an argument of %s" % (dv, fname))
                orders[idx] += 1
            rules.append(SolutionRule(Func(fname, fargs, tuple(orders)), rhs))

        got = self._clauses({"bind": bind, "sub": sub, "rule": rule})
        if "sub" not in got:
            self.error("solution needs a sub clause")
        return SolutionBlock(name, on.value, ctx.dependent.name, got["sub"], tuple(rules), bindings,
                             got.get("note", ""))

    def _run_block(self, doc, cls, name, on):
        settings: List[Tuple[str, Fraction]] = []
        got = self._clauses({
            "ode": lambda at: self._assigned(self._name),
            "set": lambda at: settings.append((self._name(), self._assigned(self._parse_number))),
            "ic": lambda at: self._assigned(self._numbers),
            "span": lambda at: self._assigned(self._span),
            "method": lambda at: self._assigned(self._method),
            "tol": lambda at: self._assigned(self._parse_number),
            "step": lambda at: self._assigned(self._parse_number),
            "color": lambda at: self._assigned(self._name),
        })
        if not {"ode", "ic", "span"} <= got.keys():
            self.error("run blocks need ode, ic, and span clauses")
        got.pop("set", None)
        return RunBlock(name, settings=settings, **got)

    def _numbers(self) -> List[Fraction]:
        out = [self._parse_number()]
        while self.accept(","):
            out.append(self._parse_number())
        return out

    def _span(self) -> Tuple[Fraction, Fraction]:
        a = self._parse_number()
        self.expect(",")
        return a, self._parse_number()

    def _method(self) -> str:
        at = self.peek()
        method = self._name()
        if self.accept("-"):
            method += "-" + self._name()
        if method not in METHODS:
            raise ParseError("unknown method %r" % method, at.line, at.col, expected=set(METHODS))
        return method

    def _parse_number(self) -> Fraction:
        sign = 1
        while self.peek().type in ("+", "-"):
            if self.advance().type == "-":
                sign = -sign
        val = _literal(self.expect("NUMBER"))
        if self.accept("/"):
            tok = self.expect("NUMBER")
            den = _literal(tok)
            if den == 0:
                raise ParseError("division by zero", tok.line, tok.col)
            val /= den
        return sign * val

    # expressions: an ExprError while combining sub-expressions is a
    # ParseError at the first token of the sub-expression that made it fail
    def parse_expr(self, scope: "_Scope") -> Expr:
        return self._binary(scope, "+", "-", lambda sc: self._binary(sc, "*", "/", self._unary))

    def _binary(self, scope, op1: str, op2: str, operand: Callable) -> Expr:
        """A left-associative chain of operand(scope) joined by op1 or op2."""
        e = operand(scope)
        while True:
            op = self.accept(op1) or self.accept(op2)
            if op is None:
                return e
            at = self.peek()
            e = self._built_at(at, _BINARY[op.type], e, operand(scope))

    def _unary(self, scope) -> Expr:
        if self.accept("-"):
            return -self._unary(scope)
        if self.accept("+"):
            return self._unary(scope)
        return self._power(scope)

    def _power(self, scope) -> Expr:
        base = self._primary(scope)
        if self.accept("^"):
            at = self.peek()
            return self._built_at(at, _apply_power, base, self._primary(scope))
        return base

    def _primary(self, scope) -> Expr:
        tok = self.peek()
        if tok.type == "NUMBER":
            self.advance()
            return Expr.rational(_literal(tok))
        if tok.type == "(":
            self.advance()
            e = self.parse_expr(scope)
            self.expect(")")
            return e
        if tok.type == "NAME":
            name = self.advance().value
            if name == "D" and self.peek().type == "(":
                self.advance()
                inner = self.parse_expr(scope)
                self.expect(";")
                dvars = self._parse_namelist()
                self.expect(")")
                for dv in dvars:
                    v = scope.variable(dv)
                    if v is None:
                        self.error("unknown derivative variable %r" % dv)
                    inner = self._built_at(tok, total_derivative, inner, v, scope.ctx)
                return inner
            if name in ("exp", "tanh") and self.peek().type == "(":
                self.advance()
                inner = self.parse_expr(scope)
                self.expect(")")
                return self._built_at(tok, app, name, inner)
            if self.peek().type == "(":
                self.advance()
                argnames = self._parse_namelist()
                self.expect(")")
                return self._built_at(tok, scope.apply_function, self, name, argnames)
            if self.peek().type == "[":
                self.advance()
                idxnames = self._parse_namelist()
                self.expect("]")
                return self._built_at(tok, scope.jet, self, name, idxnames)
            return self._built_at(tok, scope.symbol, self, name)
        self.error("expected an expression", expected={"NUMBER", "NAME", "("})


def _apply_power(base: Expr, expexpr: Expr) -> Expr:
    if expexpr.is_rational():
        q = expexpr.as_rational()
        if q.denominator == 1:
            return base ** q.numerator
        if q.denominator == 2:
            return base.pow_exponent(Exponent(q.numerator, 0))
        raise ExprError("exponent denominators beyond 2 are not supported")
    split = expexpr.affine_in(N_SYMBOL)
    if split is None:
        raise ExprError("exponent must be affine in n")
    ncoeff, const = split
    if not (const.is_zero or const.is_rational()) or not (ncoeff.is_zero or ncoeff.is_rational()):
        raise ExprError("exponent must be affine in n with rational coefficients")
    c = const.as_rational() if not const.is_zero else Fraction(0)
    k = ncoeff.as_rational() if not ncoeff.is_zero else Fraction(0)
    if k.denominator != 1 or (2 * c).denominator != 1:
        raise ExprError("exponent outside the half-integer lattice")
    return base.pow_exponent(Exponent(int(2 * c), int(k)))


def _detect_ansatz_function(rule: Expr, new_vars: tuple, sub: Token):
    candidates = {}
    for a in rule.atoms():
        if isinstance(a, Func) and len(a.args) == len(new_vars):
            if all(x == y for x, y in zip(a.args, new_vars)):
                candidates[a.name] = Func(a.name, a.args)
    if len(candidates) != 1:
        raise ParseError(
            "the dependent rule must use exactly one new function of the new variables",
            sub.line, sub.col,
        )
    return next(iter(candidates.values()))


class _Scope:
    """A name table: each name maps to a Sym (an independent, the dependent, a
    parameter, or a bound or new variable) or to a function's argument names,
    declared or inline alike.  Every clause resolves its names here and adds
    them with introduce, which refuses a name already there."""

    def __init__(self, names: Dict[str, object], ctx: Optional[Context] = None):
        self.names = dict(names)
        self.ctx = ctx

    @classmethod
    def of(cls, doc: ModelDocument, ctx: Context, at: Token) -> "_Scope":
        """The declared names of doc and the variables of ctx; a ParseError at at if they clash."""
        scope = cls({**doc.params, **doc.funcs}, ctx)
        for v in ctx.independents:
            scope.introduce(v.name, v, "vars name", at)
        scope.introduce(ctx.dependent.name, ctx.dependent, "dep name", at)
        return scope

    def introduce(self, name: str, entry, role: str, at: Token):
        """Add name as entry and return entry; a ParseError at at if name is taken."""
        return _introduce(self.names, name, entry, role, lambda msg: ParseError(msg, at.line, at.col))

    def variable(self, name: str) -> Optional[Sym]:
        """The independent variable of the context called name, or None."""
        v = self.names.get(name)
        return v if v in self.ctx.independents else None

    def symbol(self, parser: _Parser, name: str) -> Expr:
        entry = self.names.get(name)
        if entry is None:
            parser.error(
                "unknown identifier %r; declare it with param or func, or as a block variable" % name
            )
        return Expr.atom(entry if isinstance(entry, Sym) else Func(name, self.func_args(name)))

    def _syms(self, argnames, fname: str) -> Tuple[Sym, ...]:
        args = tuple(self.names.get(an) for an in argnames)
        for an, a in zip(argnames, args):
            if not isinstance(a, Sym):
                raise ExprError("argument %r of %s is not in scope" % (an, fname))
        return args

    def func_args(self, name: str) -> Optional[Tuple[Sym, ...]]:
        """The arguments of function name in this scope, or None if name is no function."""
        argnames = self.names.get(name)
        return self._syms(argnames, name) if isinstance(argnames, tuple) else None

    def apply_function(self, parser: _Parser, name: str, argnames: List[str]) -> Expr:
        if isinstance(self.names.get(name), Sym):
            parser.error("%r is a symbol, not a function" % name)
        args = self._syms(argnames, name)
        if name not in self.names:  # an inline function: its first use declares it
            self.names[name] = tuple(argnames)
        elif args != self.func_args(name):
            parser.error("function %s was declared with arguments (%s)" % (name, ",".join(self.names[name])))
        return Expr.atom(Func(name, args))

    def jet(self, parser: _Parser, name: str, idxnames: List[str]) -> Expr:
        if name != self.ctx.dependent.name:
            parser.error("jet shorthand applies to the dependent variable %r" % self.ctx.dependent.name)
        counts = [0] * len(self.ctx.independents)
        for ix in idxnames:
            v = self.variable(ix)
            if v is None:
                parser.error("unknown jet variable %r" % ix)
            counts[self.ctx.var_index(v)] += 1
        return self.ctx.jet_expr(tuple(counts))


def parse_model(text: str) -> ModelDocument:
    return _Parser(text).parse_document()


def parse_expression(doc: ModelDocument, ctx: Context, text: str) -> Expr:
    p = _Parser(text)
    e = p.parse_expr(_Scope.of(doc, ctx, p.peek()))
    p.skip_newlines()
    if p.peek().type != "EOF":
        p.error("trailing input after expression")
    return e


# -- printer ------------------------------------------------------------------


def print_model(doc: ModelDocument) -> str:
    out: List[str] = []
    for d in doc.declarations:
        if isinstance(d, ParamDecl):
            out.append("param " + ", ".join(d.names))
        elif isinstance(d, ExponentDecl):
            out.append("exponent " + d.name)
        elif isinstance(d, FuncDecl):
            out.append("func %s(%s)" % (d.name, ", ".join(d.args)))
    if out:
        out.append("")
    for b in doc.blocks:
        on = " on " + b.on if hasattr(b, "on") else ""
        note = ['note = "%s"' % b.note] if b.note else []
        out.append("%s %s%s {" % (b.kind, b.name, on))
        out.extend("  " + c for c in _clause_lines(b) + note)
        out.extend(["}", ""])
    return "\n".join(out).rstrip("\n") + "\n"


def _clause_lines(b) -> List[str]:
    """The clauses of block b but its note, in canonical order."""
    if isinstance(b, EquationBlock):
        lines = ["vars = " + ", ".join(v.name for v in b.ctx.independents), "dep = " + b.ctx.dependent.name]
        if b.constants:
            lines.append("constants = " + ", ".join(s.name for s in b.constants))
        return lines + ["eq %s = 0" % b.lhs]
    if isinstance(b, FieldBlock):
        xi = [(v, b.vf.coefficient(v)) for v in b.vf.ctx.independents]
        return (["xi %s = %s" % (v.name, c) for v, c in xi if not c.is_zero]
                + (["eta = %s" % b.vf.eta] if not b.vf.eta.is_zero else []))
    if isinstance(b, AnsatzBlock):
        a = b.ansatz
        sub = [] if a.dependent_rule is None else ["sub %s = %s" % (a.src.dependent.name, a.dependent_rule)]
        return (["var %s = %s" % (v.name, e) for v, e in a.new_independent] + sub
                + ["inverse %s = %s" % (v.name, e) for v, e in a.inverse_hints])
    if isinstance(b, SolutionBlock):
        return (["bind %s = %s" % (v.name, e) for v, e in b.bindings] + ["sub %s = %s" % (b.dep_name, b.sol)]
                + ["rule D(%s;%s) = %s" % (r.func.name, _derivative_word(r.func), r.expr) for r in b.rules])
    return (["ode = " + b.ode] + ["set %s = %s" % kv for kv in b.settings]
            + ["ic = " + ", ".join(str(v) for v in b.ic), "span = %s, %s" % b.span, "method = " + b.method,
               "tol = %s" % b.tol, "step = %s" % b.step, "color = " + b.color])


def _derivative_word(f: Func) -> str:
    return ",".join(v.name for v, o in zip(f.args, f.orders) for _ in range(o))
