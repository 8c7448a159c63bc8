"""Text model files: declarations plus pde / reduced / integral / ode / field /
ansatz / solution / run blocks, with a recursive-descent expression parser and
a canonical printer."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .expr import (
    DEPENDENT,
    Exponent,
    Expr,
    ExprError,
    Func,
    INDEPENDENT,
    Jet,
    N_SYMBOL,
    PARAMETER,
    REDUCED,
    Sym,
    ZERO,
    app,
)
from .jet import Context, Pde, expand_pde, total_derivative
from .reduction import Ansatz, FirstIntegralCandidate, ReducedEquation, SolutionRule
from .symmetry import VectorField


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: Optional[set] = None):
        self.line = line
        self.col = col
        self.expected = sorted(expected) if expected else []
        detail = "line %d, col %d: %s" % (line, col, message)
        if self.expected:
            detail += " (expected one of: %s)" % ", ".join(self.expected)
        super().__init__(detail)


class ModelLookupError(LookupError):
    """A block name that names no block, or a block without the asked-for view."""


# -- lexer ---------------------------------------------------------------------

_PUNCT = "{}()[]=;,^+-*/"


@dataclass
class Token:
    type: str  # NAME NUMBER STRING NEWLINE EOF or a punctuation character
    value: str
    line: int
    col: int


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
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_exp = False
            while j < n and (text[j].isdigit() or text[j] == "." or
                             (text[j] in "eE" and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-") and not seen_exp and any(c.isdigit() for c in text[i:j])) or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                if text[j] in "eE":
                    seen_exp = True
                j += 1
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
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


@dataclass
class ParamDecl:
    names: List[str]


@dataclass
class ExponentDecl:
    name: str


@dataclass
class FuncDecl:
    name: str
    args: Tuple[Sym, ...]


@dataclass
class PdeBlock:
    name: str
    ctx: Context
    lhs: Expr
    pde: Pde
    note: str = ""


@dataclass
class ReducedBlock:
    name: str
    equation: ReducedEquation
    note: str = ""


@dataclass
class IntegralBlock:
    name: str
    candidate: FirstIntegralCandidate
    note: str = ""


@dataclass
class OdeBlock:
    name: str
    ctx: Context
    lhs: Expr
    note: str = ""


@dataclass
class FieldBlock:
    name: str
    on: str
    vf: VectorField
    note: str = ""


@dataclass
class AnsatzBlock:
    name: str
    on: str
    ansatz: Ansatz
    note: str = ""


@dataclass
class SolutionBlock:
    name: str
    on: str
    dep_name: str
    sol: Expr
    rules: Tuple[SolutionRule, ...]
    bindings: List[Tuple[Sym, Expr]]
    note: str = ""


@dataclass
class RunBlock:
    name: str
    ode: str
    settings: List[Tuple[str, Fraction]]
    ic: List[Fraction]
    span: Tuple[Fraction, Fraction]
    method: str = "adaptive-rk45"
    tol: Fraction = Fraction(1, 10 ** 9)
    step: Fraction = Fraction(1, 10 ** 4)
    color: str = "black"
    note: str = ""


@dataclass
class ModelDocument:
    declarations: List[object]
    blocks: List[object]
    params: Dict[str, Sym]
    funcs: Dict[str, Tuple[Sym, ...]]

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

    def context_of(self, block) -> Context:
        if isinstance(block, PdeBlock) or isinstance(block, OdeBlock):
            return block.ctx
        if isinstance(block, ReducedBlock):
            return block.equation.ctx
        if isinstance(block, IntegralBlock):
            return block.candidate.ctx
        raise ModelLookupError("block %r has no context" % block.name)

    def equation_of(self, block):
        """A ReducedEquation view of pde, reduced, integral, or ode blocks."""
        if isinstance(block, PdeBlock):
            return block.pde.as_reduced()
        if isinstance(block, ReducedBlock):
            return block.equation
        if isinstance(block, IntegralBlock):
            return ReducedEquation(block.candidate.ctx, block.candidate.lhs, block.name)
        if isinstance(block, OdeBlock):
            return ReducedEquation(block.ctx, block.lhs, block.name)
        raise ModelLookupError("block %r has no equation" % block.name)


def _normalize_name(name: str) -> str:
    return name.replace("-", "_").replace(".", "_").lower()


# -- parser -----------------------------------------------------------------------

_BLOCK_KINDS = ("pde", "reduced", "integral", "ode", "field", "ansatz", "solution", "run")


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

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
        funcs: Dict[str, Tuple[Sym, ...]] = {}
        doc = ModelDocument(decls, blocks, params, funcs)
        self.skip_newlines()
        while self.peek().type != "EOF":
            tok = self.peek()
            if tok.type != "NAME":
                self.error("expected a declaration or block", expected=set(_BLOCK_KINDS) | {"param", "exponent", "func"})
            if tok.value == "param":
                self.advance()
                names = self._parse_namelist()
                for nm in names:
                    if nm in params:
                        self.error("parameter %r declared twice" % nm)
                    params[nm] = N_SYMBOL if nm == "n" else Sym(nm, PARAMETER)
                decls.append(ParamDecl(names))
            elif tok.value == "exponent":
                self.advance()
                nm = self.expect("NAME").value
                if nm != "n":
                    self.error("the exponent parameter must be named n")
                params[nm] = N_SYMBOL
                decls.append(ExponentDecl(nm))
            elif tok.value == "func":
                self.advance()
                nm = self.expect("NAME").value
                self.expect("(")
                args = self._parse_namelist()
                self.expect(")")
                if nm in funcs:
                    self.error("function %r declared twice" % nm)
                funcs[nm] = tuple(args)  # resolved to Syms lazily per context
                decls.append(FuncDecl(nm, tuple(args)))
            elif tok.value in _BLOCK_KINDS:
                blocks.append(self.parse_block(doc))
            else:
                self.error(
                    "unknown top-level keyword %r" % tok.value,
                    expected=set(_BLOCK_KINDS) | {"param", "exponent", "func"},
                )
            self.skip_newlines()
        return doc

    def parse_block(self, doc: ModelDocument):
        kind = self.expect("NAME").value
        name = self.expect("NAME").value
        on = self.expect("NAME") if self.accept("NAME", "on") else None
        for b in doc.blocks:
            if b.__class__.__name__.lower().startswith(kind) and b.name == name:
                self.error("duplicate %s block %r" % (kind, name))
        self.expect("{")
        self.skip_newlines()
        handler = getattr(self, "_clauses_%s" % kind)
        block = handler(doc, name, on)
        self.skip_newlines()
        self.expect("}")
        return block

    # clause helpers
    def _clause_key(self) -> str:
        return self.expect("NAME").value

    def _end_clause(self):
        tok = self.peek()
        if tok.type in ("NEWLINE", ";"):
            self.advance()
            self.skip_newlines()
        elif tok.type != "}":
            self.error("expected end of clause", expected={";", "newline", "}"})

    def _on_context(self, doc, kind: str, on: Optional[Token]) -> Context:
        """Context of the block named after 'on'; a ParseError at that name if it has none."""
        if on is None:
            self.error("%s blocks need 'on %s'" % (kind, "EQUATION" if kind == "solution" else "PDE"))
        try:
            if kind == "field":
                return doc.block(PdeBlock, on.value).ctx
            return doc.context_of(doc.find(on.value))
        except ModelLookupError as e:
            raise ParseError(e.args[0], on.line, on.col) from None

    def _parse_namelist(self) -> List[str]:
        names = [self.expect("NAME").value]
        while self.accept(","):
            names.append(self.expect("NAME").value)
        return names

    def _equation_block_parts(self, doc, var_kind: str):
        vars_: Optional[List[Sym]] = None
        dep: Optional[Sym] = None
        lhs: Optional[Expr] = None
        constants: List[Sym] = []
        note = ""
        while self.peek().type != "}":
            key = self._clause_key()
            if key == "vars":
                self.expect("=")
                vars_ = [Sym(nm, var_kind) for nm in self._parse_namelist()]
            elif key == "dep":
                self.expect("=")
                dep = Sym(self.expect("NAME").value, DEPENDENT)
            elif key == "eq":
                if vars_ is None or dep is None:
                    self.error("vars and dep must come before eq")
                ctx = Context(tuple(vars_), dep, tuple(sorted(doc.params.values(), key=lambda s: s.name)))
                scope = _Scope(doc, ctx)
                left = self.parse_expr(scope)
                self.expect("=")
                right = self.parse_expr(scope)
                lhs = left - right
            elif key == "constants":
                self.expect("=")
                for nm in self._parse_namelist():
                    if nm not in doc.params:
                        self.error("constant %r is not a declared parameter" % nm)
                    constants.append(doc.params[nm])
            elif key == "note":
                self.expect("=")
                note = self.expect("STRING").value
            else:
                self.error("unknown clause %r" % key, expected={"vars", "dep", "eq", "constants", "note"})
            self._end_clause()
        if vars_ is None or dep is None or lhs is None:
            self.error("block needs vars, dep, and eq clauses")
        ctx = Context(tuple(vars_), dep, tuple(sorted(doc.params.values(), key=lambda s: s.name)))
        return ctx, lhs, constants, note

    def _clauses_pde(self, doc, name, on):
        ctx, lhs, _consts, note = self._equation_block_parts(doc, INDEPENDENT)
        return PdeBlock(name, ctx, lhs, expand_pde(ctx, lhs, name=name), note)

    def _clauses_reduced(self, doc, name, on):
        ctx, lhs, _consts, note = self._equation_block_parts(doc, REDUCED)
        return ReducedBlock(name, ReducedEquation(ctx, lhs, name), note)

    def _clauses_integral(self, doc, name, on):
        ctx, lhs, consts, note = self._equation_block_parts(doc, REDUCED)
        return IntegralBlock(name, FirstIntegralCandidate(ctx, lhs, tuple(consts), name), note)

    def _clauses_ode(self, doc, name, on):
        ctx, lhs, _consts, note = self._equation_block_parts(doc, REDUCED)
        return OdeBlock(name, ctx, lhs, note)

    def _clauses_field(self, doc, name, on):
        ctx = self._on_context(doc, "field", on)
        on = on.value
        scope = _Scope(doc, ctx)
        xi: Dict[Sym, Expr] = {}
        eta = ZERO
        note = ""
        while self.peek().type != "}":
            at = self.peek()
            key = self._clause_key()
            if key == "xi":
                vname = self.expect("NAME").value
                v = _lookup_var(ctx, vname)
                if v is None:
                    self.error("%r is not an independent variable of %s" % (vname, on))
                self.expect("=")
                xi[v] = self._point_coefficient(scope, at)
            elif key == "eta":
                if self.peek().type == "NAME":
                    dname = self.advance().value
                    if dname != ctx.dependent.name:
                        self.error("%r is not the dependent variable of %s" % (dname, on))
                self.expect("=")
                eta = self._point_coefficient(scope, at)
            elif key == "note":
                self.expect("=")
                note = self.expect("STRING").value
            else:
                self.error("unknown clause %r" % key, expected={"xi", "eta", "note"})
            self._end_clause()
        return FieldBlock(name, on, VectorField(ctx, xi, eta, name=name), note)

    def _point_coefficient(self, scope, at: Token) -> Expr:
        """A field coefficient; a ParseError at the clause if it involves a jet."""
        e = self.parse_expr(scope)
        if any(isinstance(a, Jet) for a in e.atoms()):
            raise ParseError("point-symmetry coefficients must be jet free", at.line, at.col)
        return e

    def _clauses_ansatz(self, doc, name, on):
        src = self._on_context(doc, "ansatz", on)
        on = on.value
        new_vars: List[Tuple[Sym, Expr]] = []
        rule: Optional[Expr] = None
        hints: List[Tuple[Sym, Expr]] = []
        note = ""
        while self.peek().type != "}":
            key = self._clause_key()
            if key == "var":
                vname = self.expect("NAME").value
                self.expect("=")
                e = self.parse_expr(_Scope(doc, src))
                existing = _lookup_var(src, vname)
                if existing is not None and e == Expr.atom(existing):
                    new_vars.append((existing, e))
                else:
                    new_vars.append((Sym(vname, REDUCED), e))
            elif key == "sub":
                sub = self.expect("NAME")
                if sub.value != src.dependent.name:
                    self.error("%r is not the dependent variable of %s" % (sub.value, on))
                self.expect("=")
                scope = _Scope(doc, src, extra_vars=[v for v, _ in new_vars])
                rule = self.parse_expr(scope)
            elif key == "inverse":
                vname = self.expect("NAME").value
                v = _lookup_var(src, vname)
                if v is None:
                    self.error("%r is not an independent variable of %s" % (vname, on))
                self.expect("=")
                scope = _Scope(doc, src, extra_vars=[vv for vv, _ in new_vars])
                hints.append((v, self.parse_expr(scope)))
            elif key == "note":
                self.expect("=")
                note = self.expect("STRING").value
            else:
                self.error("unknown clause %r" % key, expected={"var", "sub", "inverse", "note"})
            self._end_clause()
        if not new_vars:
            self.error("ansatz needs at least one var clause")
        func = None
        dep = None
        if rule is not None:
            func, dep = _detect_ansatz_function(rule, tuple(v for v, _ in new_vars), sub)
        return AnsatzBlock(
            name, on, Ansatz(src, new_vars, dep, func, rule, hints, name=name, note=note), note
        )

    def _clauses_solution(self, doc, name, on):
        ctx = self._on_context(doc, "solution", on)
        on = on.value
        sol: Optional[Expr] = None
        rules: List[SolutionRule] = []
        bindings: List[Tuple[Sym, Expr]] = []
        note = ""
        scope = _Scope(doc, ctx)
        while self.peek().type != "}":
            key = self._clause_key()
            if key == "bind":
                vname = self.expect("NAME").value
                self.expect("=")
                b = (Sym(vname, REDUCED), self.parse_expr(scope))
                bindings.append(b)
                scope.extra[b[0].name] = b[0]
            elif key == "sub":
                dname = self.expect("NAME").value
                if dname != ctx.dependent.name:
                    self.error("%r is not the dependent variable of %s" % (dname, on))
                self.expect("=")
                sol = self.parse_expr(scope)
            elif key == "rule":
                self.expect("NAME", "D")
                self.expect("(")
                fname = self.expect("NAME").value
                self.expect(";")
                dvars = self._parse_namelist()
                self.expect(")")
                self.expect("=")
                rhs = self.parse_expr(scope)
                fargs = scope.func_args(fname)
                if fargs is None:
                    self.error("unknown function %r in rule" % fname)
                orders = [0] * len(fargs)
                for dv in dvars:
                    idx = next((i for i, a in enumerate(fargs) if a.name == dv), None)
                    if idx is None:
                        self.error("%r is not an argument of %s" % (dv, fname))
                    orders[idx] += 1
                rules.append(SolutionRule(Func(fname, fargs, tuple(orders)), rhs))
            elif key == "note":
                self.expect("=")
                note = self.expect("STRING").value
            else:
                self.error("unknown clause %r" % key, expected={"sub", "rule", "bind", "note"})
            self._end_clause()
        if sol is None:
            self.error("solution needs a sub clause")
        return SolutionBlock(name, on, ctx.dependent.name, sol, tuple(rules), bindings, note)

    def _clauses_run(self, doc, name, on):
        ode = None
        settings: List[Tuple[str, Fraction]] = []
        ic: List[Fraction] = []
        span: Optional[Tuple[Fraction, Fraction]] = None
        method = "adaptive-rk45"
        tol = Fraction(1, 10 ** 9)
        step = Fraction(1, 10 ** 4)
        color = "black"
        note = ""
        while self.peek().type != "}":
            key = self._clause_key()
            if key == "ode":
                self.expect("=")
                ode = self.expect("NAME").value
            elif key == "set":
                pname = self.expect("NAME").value
                self.expect("=")
                settings.append((pname, self._parse_number()))
            elif key == "ic":
                self.expect("=")
                ic = [self._parse_number()]
                while self.accept(","):
                    ic.append(self._parse_number())
            elif key == "span":
                self.expect("=")
                a = self._parse_number()
                self.expect(",")
                b = self._parse_number()
                span = (a, b)
            elif key == "method":
                self.expect("=")
                method = self.expect("NAME").value
                if self.accept("-"):
                    method += "-" + self.expect("NAME").value
            elif key == "tol":
                self.expect("=")
                tol = self._parse_number()
            elif key == "step":
                self.expect("=")
                step = self._parse_number()
            elif key == "color":
                self.expect("=")
                color = self.expect("NAME").value
            elif key == "note":
                self.expect("=")
                note = self.expect("STRING").value
            else:
                self.error(
                    "unknown clause %r" % key,
                    expected={"ode", "set", "ic", "span", "method", "tol", "step", "color", "note"},
                )
            self._end_clause()
        if ode is None or span is None or not ic:
            self.error("run blocks need ode, ic, and span clauses")
        return RunBlock(name, ode, settings, ic, span, method, tol, step, color, note)

    def _parse_number(self) -> Fraction:
        sign = Fraction(1)
        while True:
            if self.accept("-"):
                sign = -sign
                continue
            if self.accept("+"):
                continue
            break
        tok = self.expect("NUMBER")
        val = Fraction(tok.value)
        if self.accept("/"):
            tok2 = self.expect("NUMBER")
            val = val / Fraction(tok2.value)
        return sign * val

    # expressions
    def parse_expr(self, scope: "_Scope") -> Expr:
        try:
            return self._expr(scope)
        except ExprError as e:
            tok = self.peek()
            raise ParseError(str(e), tok.line, tok.col) from e

    def _expr(self, scope) -> Expr:
        e = self._term(scope)
        while True:
            if self.accept("+"):
                e = e + self._term(scope)
            elif self.accept("-"):
                e = e - self._term(scope)
            else:
                return e

    def _term(self, scope) -> Expr:
        e = self._unary(scope)
        while True:
            if self.accept("*"):
                e = e * self._unary(scope)
            elif self.accept("/"):
                e = e / self._unary(scope)
            else:
                return e

    def _unary(self, scope) -> Expr:
        if self.accept("-"):
            return -self._unary(scope)
        if self.accept("+"):
            return self._unary(scope)
        return self._power(scope)

    def _power(self, scope) -> Expr:
        base = self._primary(scope)
        if self.accept("^"):
            expexpr = self._exponent_operand(scope)
            return _apply_power(base, expexpr)
        return base

    def _exponent_operand(self, scope) -> Expr:
        if self.accept("("):
            e = self._expr(scope)
            self.expect(")")
            return e
        if self.peek().type == "NUMBER":
            return Expr.rational(Fraction(self.advance().value))
        if self.peek().type == "NAME":
            return self._primary(scope)
        self.error("expected an exponent", expected={"(", "NUMBER", "NAME"})

    def _primary(self, scope) -> Expr:
        tok = self.peek()
        if tok.type == "NUMBER":
            self.advance()
            return Expr.rational(Fraction(tok.value))
        if tok.type == "(":
            self.advance()
            e = self._expr(scope)
            self.expect(")")
            return e
        if tok.type == "NAME":
            name = self.advance().value
            if name == "D" and self.peek().type == "(":
                self.advance()
                inner = self._expr(scope)
                self.expect(";")
                dvars = self._parse_namelist()
                self.expect(")")
                for dv in dvars:
                    v = scope.variable(dv)
                    if v is None:
                        self.error("unknown derivative variable %r" % dv)
                    inner = total_derivative(inner, v, scope.ctx)
                return inner
            if name in ("exp", "tanh") and self.peek().type == "(":
                self.advance()
                inner = self._expr(scope)
                self.expect(")")
                return app(name, inner)
            if self.peek().type == "(":
                self.advance()
                argnames = self._parse_namelist()
                self.expect(")")
                return scope.apply_function(self, name, argnames)
            if self.peek().type == "[":
                self.advance()
                idxnames = self._parse_namelist()
                self.expect("]")
                return scope.jet(self, name, idxnames)
            return scope.symbol(self, name)
        self.error("expected an expression", expected={"NUMBER", "NAME", "("})


def _lookup_var(ctx: Context, name: str) -> Optional[Sym]:
    for v in ctx.independents:
        if v.name == name:
            return v
    return None


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
    fn = next(iter(candidates.values()))
    return fn, Sym(fn.name, DEPENDENT)


class _Scope:
    """Name resolution for expression parsing inside one block."""

    def __init__(self, doc: ModelDocument, ctx: Context, extra_vars: Optional[List[Sym]] = None):
        self.doc = doc
        self.ctx = ctx
        self.extra = {v.name: v for v in (extra_vars or [])}
        self.local_funcs: Dict[str, Tuple[Sym, ...]] = {}

    def variable(self, name: str) -> Optional[Sym]:
        v = _lookup_var(self.ctx, name)
        if v is not None:
            return v
        return self.extra.get(name)

    def _resolve_name(self, name: str) -> Optional[Sym]:
        v = self.variable(name)
        if v is not None:
            return v
        if name == self.ctx.dependent.name:
            return self.ctx.dependent
        if name in self.doc.params:
            return self.doc.params[name]
        return None

    def symbol(self, parser: _Parser, name: str) -> Expr:
        s = self._resolve_name(name)
        if s is not None:
            return Expr.atom(s)
        if name in self.doc.funcs or name in self.local_funcs:
            args = self.func_args(name)
            return Expr.atom(Func(name, args))
        parser.error(
            "unknown identifier %r; declare it with param or func, or as a block variable" % name
        )

    def func_args(self, name: str) -> Optional[Tuple[Sym, ...]]:
        argnames = self.doc.funcs.get(name) or self.local_funcs.get(name)
        if argnames is None:
            return None
        if argnames and isinstance(argnames[0], Sym):
            return tuple(argnames)
        out = []
        for an in argnames:
            s = self._resolve_name(an)
            if s is None:
                raise ExprError("argument %r of %s is not in scope" % (an, name))
            out.append(s)
        return tuple(out)

    def apply_function(self, parser: _Parser, name: str, argnames: List[str]) -> Expr:
        if self._resolve_name(name) is not None:
            parser.error("%r is a symbol, not a function" % name)
        args = []
        for an in argnames:
            s = self._resolve_name(an)
            if s is None:
                parser.error("unknown function argument %r" % an)
            args.append(s)
        declared = self.doc.funcs.get(name) or self.local_funcs.get(name)
        if declared is not None:
            want = self.func_args(name)
            if tuple(args) != tuple(want):
                parser.error("function %s was declared with arguments (%s)" % (name, ",".join(a.name for a in want)))
        else:
            self.local_funcs[name] = tuple(args)
        return Expr.atom(Func(name, tuple(args)))

    def jet(self, parser: _Parser, name: str, idxnames: List[str]) -> Expr:
        if name != self.ctx.dependent.name:
            parser.error("jet shorthand applies to the dependent variable %r" % self.ctx.dependent.name)
        counts = [0] * len(self.ctx.independents)
        for ix in idxnames:
            v = _lookup_var(self.ctx, ix)
            if v is None:
                parser.error("unknown jet variable %r" % ix)
            counts[self.ctx.var_index(v)] += 1
        return self.ctx.jet_expr(tuple(counts))


def parse_model(text: str) -> ModelDocument:
    return _Parser(text).parse_document()


def parse_expression(doc: ModelDocument, ctx: Context, text: str) -> Expr:
    p = _Parser(text)
    e = p.parse_expr(_Scope(doc, ctx))
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
            args = d.args if isinstance(d.args[0], str) else tuple(a.name for a in d.args)
            out.append("func %s(%s)" % (d.name, ", ".join(args)))
    if out:
        out.append("")
    for b in doc.blocks:
        out.extend(_print_block(b))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def _ctx_lines(ctx: Context) -> List[str]:
    return [
        "  vars = " + ", ".join(v.name for v in ctx.independents),
        "  dep = " + ctx.dependent.name,
    ]


def _note_line(note: str) -> List[str]:
    return ['  note = "%s"' % note] if note else []


def _print_block(b) -> List[str]:
    if isinstance(b, PdeBlock):
        return (["pde %s {" % b.name] + _ctx_lines(b.ctx)
                + ["  eq %s = 0" % b.lhs] + _note_line(b.note) + ["}"])
    if isinstance(b, ReducedBlock):
        eq = b.equation
        return (["reduced %s {" % b.name] + _ctx_lines(eq.ctx)
                + ["  eq %s = 0" % eq.lhs] + _note_line(b.note) + ["}"])
    if isinstance(b, IntegralBlock):
        c = b.candidate
        lines = ["integral %s {" % b.name] + _ctx_lines(c.ctx)
        if c.constants:
            lines.append("  constants = " + ", ".join(s.name for s in c.constants))
        lines += ["  eq %s = 0" % c.lhs] + _note_line(b.note) + ["}"]
        return lines
    if isinstance(b, OdeBlock):
        return (["ode %s {" % b.name] + _ctx_lines(b.ctx)
                + ["  eq %s = 0" % b.lhs] + _note_line(b.note) + ["}"])
    if isinstance(b, FieldBlock):
        lines = ["field %s on %s {" % (b.name, b.on)]
        for v in b.vf.ctx.independents:
            c = b.vf.coefficient(v)
            if not c.is_zero:
                lines.append("  xi %s = %s" % (v.name, c))
        if not b.vf.eta.is_zero:
            lines.append("  eta = %s" % b.vf.eta)
        lines += _note_line(b.note) + ["}"]
        return lines
    if isinstance(b, AnsatzBlock):
        a = b.ansatz
        lines = ["ansatz %s on %s {" % (b.name, b.on)]
        for v, e in a.new_independent:
            lines.append("  var %s = %s" % (v.name, e))
        if a.dependent_rule is not None:
            lines.append("  sub %s = %s" % (a.src.dependent.name, a.dependent_rule))
        for v, e in a.inverse_hints:
            lines.append("  inverse %s = %s" % (v.name, e))
        lines += _note_line(b.note) + ["}"]
        return lines
    if isinstance(b, SolutionBlock):
        lines = ["solution %s on %s {" % (b.name, b.on)]
        for v, e in b.bindings:
            lines.append("  bind %s = %s" % (v.name, e))
        lines.append("  sub %s = %s" % (b.dep_name, b.sol))
        for r in b.rules:
            names = []
            for v, o in zip(r.func.args, r.func.orders):
                names.extend([v.name] * o)
            lines.append("  rule D(%s;%s) = %s" % (r.func.name, ",".join(names), r.expr))
        lines += _note_line(b.note) + ["}"]
        return lines
    if isinstance(b, RunBlock):
        lines = ["run %s {" % b.name, "  ode = %s" % b.ode]
        for k, v in b.settings:
            lines.append("  set %s = %s" % (k, v))
        lines.append("  ic = " + ", ".join(str(v) for v in b.ic))
        lines.append("  span = %s, %s" % b.span)
        lines.append("  method = %s" % b.method)
        lines.append("  tol = %s" % b.tol)
        lines.append("  step = %s" % b.step)
        lines.append("  color = %s" % b.color)
        lines += _note_line(b.note) + ["}"]
        return lines
    raise TypeError(b)

