"""Vector-field specification language.

A system is described by a small whitespace-insensitive text format made of
``name = value`` statements separated by ``;`` or newlines.  Recognized names:

* ``dim``     total state dimension n (variables are ``x1`` .. ``xn``)
* ``e_dim``   optional; splits the state into an e-block (first ``e_dim``
              variables) and an x-block for coupled two-block systems
* ``F1..Fk``  field expressions (k = dim, or e_dim when an x-block exists)
* ``G1..Gm``  x-block field expressions (m = dim - e_dim)
* ``g1..gn``  optional input vector field for controlled systems
* any other ``name = number`` defines a scalar parameter

``Q`` is not a statement: the weight of a metric is set with the CLI's
``--Q`` (or the ``q`` argument of the metric builders).

Expressions support ``+ - * / ^`` (power with constant exponent, ``**`` is an
alias), unary minus, parentheses, the functions ``sin cos exp ln log sqrt
abs2``, the reserved constants ``pi`` and ``e``, state variables ``x<k>`` and
declared parameters.  ``#`` starts a comment running to end of line.

Parsed expressions are immutable trees.  They can be evaluated, symbolically
differentiated and compiled to fast closures; Jacobians and Hessians are the
compiled closures of their symbolic derivatives.  One source builder emits
them all, with the solver's rhs signature over Python floats; where the
emitted arithmetic raises, it evaluates the trees, which raise
:class:`DomainEvaluationError` naming the subexpression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainEvaluationError,
    SpecTextError,
    UnknownIdentifierError,
)

_FUNCTIONS = ("sin", "cos", "exp", "ln", "log", "sqrt", "abs2")
_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class Node:
    """Immutable expression-tree node."""

    __slots__ = ()

    def eval(self, x, params):
        raise NotImplementedError

    def diff(self, index):
        """Symbolic partial derivative with respect to variable `index`."""
        raise NotImplementedError

    def emit(self, params):
        """Python source for the compiled fast path, with `params` inlined."""
        raise NotImplementedError

    def text(self):
        """Round-trippable pretty print."""
        raise NotImplementedError

    def variables(self):
        return set()

    def parameters(self):
        return set()

    def __repr__(self):
        return f"<{type(self).__name__} {self.text()}>"


class Num(Node):
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = float(v)

    def eval(self, x, params):
        return self.v

    def diff(self, index):
        return Num(0.0)

    def emit(self, params):
        return repr(self.v)

    def text(self):
        return repr(self.v)


class Var(Node):
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def eval(self, x, params):
        return float(x[self.index])

    def diff(self, index):
        return Num(1.0 if index == self.index else 0.0)

    def emit(self, params):
        return f"_x{self.index}"

    def text(self):
        return f"x{self.index + 1}"

    def variables(self):
        return {self.index}


class Param(Node):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def eval(self, x, params):
        return float(params[self.name])

    def diff(self, index):
        return Num(0.0)

    def emit(self, params):
        if self.name not in params:
            raise UnknownIdentifierError(f"unknown identifier '{self.name}'")
        return repr(float(params[self.name]))

    def text(self):
        return self.name

    def parameters(self):
        return {self.name}


def _is_zero(node):
    return isinstance(node, Num) and node.v == 0.0


def _is_one(node):
    return isinstance(node, Num) and node.v == 1.0


class Bin(Node):
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op = op
        self.a = a
        self.b = b

    def eval(self, x, params):
        a = self.a.eval(x, params)
        b = self.b.eval(x, params)
        try:
            if self.op == "+":
                return a + b
            if self.op == "-":
                return a - b
            if self.op == "*":
                return a * b
            return a / b
        except ZeroDivisionError:
            raise DomainEvaluationError("division by zero", self.text()) from None

    def diff(self, index):
        da, db = self.a.diff(index), self.b.diff(index)
        if self.op == "+":
            return add(da, db)
        if self.op == "-":
            return sub(da, db)
        if self.op == "*":
            return add(mul(da, self.b), mul(self.a, db))
        # quotient rule
        num = sub(mul(da, self.b), mul(self.a, db))
        return Bin("/", num, Pow(self.b, 2.0)) if not _is_zero(num) else Num(0.0)

    def emit(self, params):
        return f"({self.a.emit(params)} {self.op} {self.b.emit(params)})"

    def text(self):
        return f"({self.a.text()} {self.op} {self.b.text()})"

    def variables(self):
        return self.a.variables() | self.b.variables()

    def parameters(self):
        return self.a.parameters() | self.b.parameters()


def add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.v + b.v)
    return Bin("+", a, b)


def sub(a, b):
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.v - b.v)
    if _is_zero(a):
        return Neg(b)
    return Bin("-", a, b)


def mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.v * b.v)
    return Bin("*", a, b)


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def eval(self, x, params):
        return -self.a.eval(x, params)

    def diff(self, index):
        d = self.a.diff(index)
        return Num(0.0) if _is_zero(d) else Neg(d)

    def emit(self, params):
        return f"(-{self.a.emit(params)})"

    def text(self):
        return f"(-{self.a.text()})"

    def variables(self):
        return self.a.variables()

    def parameters(self):
        return self.a.parameters()


class Pow(Node):
    """Power with a constant exponent (keeps derivatives closed form)."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        self.a = a
        self.p = float(p)

    def eval(self, x, params):
        base = self.a.eval(x, params)
        try:
            result = base ** self.p
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainEvaluationError(str(exc), self.text()) from None
        if isinstance(result, complex):
            raise DomainEvaluationError(
                "fractional power of a negative base", self.text())
        return result

    def diff(self, index):
        da = self.a.diff(index)
        if _is_zero(da) or self.p == 0.0:
            return Num(0.0)
        if self.p == 1.0:
            return da
        return mul(mul(Num(self.p), Pow(self.a, self.p - 1.0)), da)

    def emit(self, params):
        # math.pow raises ValueError on a negative base where ** returns a
        # complex; on a positive base both are libm's pow
        if self.p.is_integer():
            return f"({self.a.emit(params)} ** {repr(self.p)})"
        return f"math.pow({self.a.emit(params)}, {repr(self.p)})"

    def text(self):
        p = self.p
        ptxt = repr(int(p)) if p == int(p) else repr(p)
        return f"({self.a.text()} ^ {ptxt})"

    def variables(self):
        return self.a.variables()

    def parameters(self):
        return self.a.parameters()


class Call(Node):
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a

    def eval(self, x, params):
        u = self.a.eval(x, params)
        try:
            if self.fn == "sin":
                return math.sin(u)
            if self.fn == "cos":
                return math.cos(u)
            if self.fn == "exp":
                return math.exp(u)
            if self.fn in ("ln", "log"):
                return math.log(u)
            if self.fn == "sqrt":
                return math.sqrt(u)
            return u * u  # abs2
        except (ValueError, OverflowError) as exc:
            raise DomainEvaluationError(str(exc), self.text()) from None

    def diff(self, index):
        da = self.a.diff(index)
        if _is_zero(da):
            return Num(0.0)
        if self.fn == "sin":
            outer = Call("cos", self.a)
        elif self.fn == "cos":
            outer = Neg(Call("sin", self.a))
        elif self.fn == "exp":
            outer = Call("exp", self.a)
        elif self.fn in ("ln", "log"):
            outer = Bin("/", Num(1.0), self.a)
        elif self.fn == "sqrt":
            outer = Bin("/", Num(0.5), Call("sqrt", self.a))
        else:  # abs2
            outer = mul(Num(2.0), self.a)
        return mul(outer, da)

    def emit(self, params):
        if self.fn == "abs2":
            inner = self.a.emit(params)
            return f"({inner} * {inner})"
        fn = "log" if self.fn == "ln" else self.fn
        return f"{fn}({self.a.emit(params)})"

    def text(self):
        return f"{self.fn}({self.a.text()})"

    def variables(self):
        return self.a.variables()

    def parameters(self):
        return self.a.parameters()


# ---------------------------------------------------------------------------
# tokenizer / Pratt parser
# ---------------------------------------------------------------------------

@dataclass
class _Token:
    kind: str   # num ident op lparen rparen sep end
    value: object
    pos: int


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c in ";\n":
            tokens.append(_Token("sep", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and (
                j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-")
            ):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise SpecTextError(f"bad number '{text[i:j]}'", i) from None
            if not math.isfinite(value):
                raise SpecTextError(f"number '{text[i:j]}' is not finite", i)
            tokens.append(_Token("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(_Token("op", "^", i))
            i += 2
            continue
        if c in "+-*/^=,":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
            continue
        raise SpecTextError(f"unexpected character '{c}'", i)
    tokens.append(_Token("end", None, n))
    return tokens


_BIN_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PRECEDENCE = 30


class _ExprParser:
    """Pratt parser over a token stream (expression sub-grammar)."""

    def __init__(self, tokens, start):
        self.tokens = tokens
        self.i = start

    def peek(self):
        if self.i >= len(self.tokens):
            return _Token("end", None, -1)
        return self.tokens[self.i]

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self, min_prec=0):
        tok = self.advance()
        left = self._prefix(tok)
        while True:
            nxt = self.peek()
            if nxt.kind != "op" or nxt.value not in _BIN_PRECEDENCE:
                break
            prec = _BIN_PRECEDENCE[nxt.value]
            if prec < min_prec:
                break
            self.advance()
            if nxt.value == "^":
                right = self.parse(prec)  # right associative
                left = self._make_pow(left, right, nxt.pos)
            else:
                right = self.parse(prec + 1)
                left = Bin(nxt.value, left, right)
        return left

    def _prefix(self, tok):
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "op" and tok.value == "-":
            return Neg(self.parse(_UNARY_PRECEDENCE))
        if tok.kind == "op" and tok.value == "+":
            return self.parse(_UNARY_PRECEDENCE)
        if tok.kind == "lparen":
            inner = self.parse(0)
            closing = self.advance()
            if closing.kind != "rparen":
                raise SpecTextError("expected ')'", closing.pos)
            return inner
        if tok.kind == "ident":
            name = tok.value
            if self.peek().kind == "lparen":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function '{name}'", tok.pos)
                self.advance()
                arg = self.parse(0)
                closing = self.advance()
                if closing.kind != "rparen":
                    raise SpecTextError("expected ')'", closing.pos)
                return Call(name, arg)
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if len(name) > 1 and name[0] == "x" and name[1:].isdigit():
                if int(name[1:]) == 0:
                    raise DimensionMismatchError(
                        f"variable '{name}': variables are numbered from x1",
                        tok.pos)
                return Var(int(name[1:]) - 1)
            return Param(name)
        raise SpecTextError("expected an expression", tok.pos)

    @staticmethod
    def _make_pow(base, exponent, pos):
        if exponent.variables():
            raise SpecTextError("power exponent must be constant", pos)
        if exponent.parameters():
            raise SpecTextError("power exponent must be a plain constant", pos)
        p = exponent.eval((), {})
        if not math.isfinite(p):
            raise SpecTextError("power exponent must be finite", pos)
        return Pow(base, p)


def parse_expression(text):
    """Parse a single expression string into a tree."""
    tokens = [t for t in _tokenize(text) if t.kind != "sep"]
    parser = _ExprParser(tokens, 0)
    tree = parser.parse(0)
    if parser.peek().kind != "end":
        raise SpecTextError("trailing input after expression", parser.peek().pos)
    return tree


# ---------------------------------------------------------------------------
# compiled closures
# ---------------------------------------------------------------------------

# the names generated code sees; inf and nan because a folded derivative
# constant can overflow (x1*1e300*1e300 has dF/dx1 = inf)
_COMPILE_GLOBALS = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "math": math, "inf": math.inf, "nan": math.nan,
    "_exits": (ZeroDivisionError, ValueError, OverflowError),
    "__builtins__": {},
}


def _compile(inputs, lines, outputs, trees, params):
    """The one source builder: `_fn(_t, _y)` unpacks `_y` into the names
    `inputs` (all of it; a star target doubles the cost of a small
    closure), runs the assignments `lines` and returns the tuple `outputs`.
    Where that raises a domain exit it evaluates `trees` on `_y` in order,
    which raises :class:`DomainEvaluationError` naming the first failing
    subexpression."""
    src = (f"def _fn(_t, _y):\n    ({', '.join(inputs)},) = _y\n    try:\n"
           + "".join(f"        {line}\n" for line in lines)
           + f"        return ({', '.join(outputs)},)\n"
           "    except _exits:\n"
           "        _evaluate(_y)\n"
           "        raise\n")
    namespace = dict(_COMPILE_GLOBALS,
                     _evaluate=lambda y: [t.eval(y, params) for t in trees])
    exec(src, namespace)
    return namespace["_fn"]


def compile_vector(trees, params, dim):
    """One closure `fn(t, x)` -> the tuple of `trees` at x, a sequence of
    `dim` Python floats (numpy scalars would turn a domain exit into inf or
    nan with a warning)."""
    return _compile([f"_x{i}" for i in range(dim)], [],
                    [t.emit(params) for t in trees], trees, params)


def _floats(x, _dtype=np.dtype(float)):
    """`x` as the list of Python floats a compiled closure takes."""
    return np.asarray(x, _dtype).tolist()


def _linear_sum(terms):
    """Source of sum(coefficient * name) over `terms`, a list of
    (coefficient, name) pairs; a coefficient is a float (0.0 drops the
    term, 1.0 the factor) or the source of a local."""
    parts = []
    for coef, name in terms:
        if isinstance(coef, float):
            if coef == 0.0:
                continue
            if coef == 1.0:
                parts.append(name)
                continue
            coef = repr(coef)
        parts.append(f"{coef} * {name}")
    return " + ".join(parts) if parts else "0.0"


def _compile_lift(f_trees, jac_rows, params, q):
    """Compile the lifted layout [x | Phi | G] of
    :meth:`ParsedSystem.compiled_lift`; `jac_rows` are the Jacobian trees
    of `f_trees`, row by row."""
    n = len(f_trees)
    inputs = [f"_x{i}" for i in range(n)]
    inputs += [f"_p{i}_{j}" for i in range(n) for j in range(n)]
    lines = []
    # Jacobian entries: constants inline, everything else one local each
    jac = {}
    for i, row in enumerate(jac_rows):
        for j, tree in enumerate(row):
            if not tree.variables():
                jac[i, j] = float(tree.eval((), params))
            else:
                lines.append(f"_j{i}_{j} = {tree.emit(params)}")
                jac[i, j] = f"_j{i}_{j}"
    out = [t.emit(params) for t in f_trees]
    out += [_linear_sum([(jac[i, j], f"_p{j}_{k}") for j in range(n)])
            for i in range(n) for k in range(n)]
    if q is not None:
        # G' = Phi' (Q Phi); each entry of Q Phi is a local, or Phi's own
        # name where Q's row is a unit vector; G itself is not read
        inputs += ["_"] * (n * n)
        qphi = {}
        for j in range(n):
            for k in range(n):
                terms = [(float(q[j, l]), f"_p{l}_{k}") for l in range(n)
                         if q[j, l] != 0.0]
                if len(terms) == 1 and terms[0][0] == 1.0:
                    qphi[j, k] = terms[0][1]
                else:
                    lines.append(f"_m{j}_{k} = {_linear_sum(terms)}")
                    qphi[j, k] = f"_m{j}_{k}"
        out += [_linear_sum([(f"_p{j}_{i}", qphi[j, k]) for j in range(n)])
                for i in range(n) for k in range(n)]
    # the domain exit evaluates F, then J row-major, as the generic lift
    return _compile(inputs, lines, out,
                    f_trees + [d for row in jac_rows for d in row], params)


# ---------------------------------------------------------------------------
# system-text parsing
# ---------------------------------------------------------------------------

class ParsedSystem:
    """Statements of a system text, validated and ready to build models."""

    def __init__(self, dim, e_dim, params, f_trees, g_trees, input_trees):
        self.dim = dim
        self.e_dim = e_dim
        self.params = dict(params)
        self.f_trees = list(f_trees)
        self.g_trees = list(g_trees)
        self.input_trees = list(input_trees)
        self._lifts = {}   # Q entries -> compiled_lift closure

    # -- compiled closures --------------------------------------------------

    @functools.cached_property
    def _jacobian_rows(self):
        return [[t.diff(j) for j in range(self.dim)] for t in self.f_trees]

    @functools.cached_property
    def field_rhs(self):
        """The field as the solver's rhs: `fn(t, x)` returns the tuple F(x)
        for `x` a sequence of Python floats (see :func:`compile_vector`).
        Compiled on first use, once per system; :meth:`compiled_field`
        wraps it for arrays and :func:`dynamics.flow` solves with it."""
        return compile_vector(self.f_trees, self.params, self.dim)

    def compiled_field(self):
        def field(x, _fn=self.field_rhs):
            return np.array(_fn(None, _floats(x)))

        return field

    def compiled_jacobian(self):
        fn = compile_vector([d for row in self._jacobian_rows for d in row],
                            self.params, self.dim)
        shape = (len(self.f_trees), self.dim)

        def jacobian(x, _fn=fn, _shape=shape):
            return np.array(_fn(None, _floats(x))).reshape(_shape)

        return jacobian

    def compiled_hessian(self):
        """Component Hessians of the field, shape (len(f_trees), dim, dim).

        Compiles ``f_trees[k].diff(i).diff(j)`` for i <= j on the first call
        and mirrors the upper triangle, so every Hessian is exactly symmetric.
        """
        n, m = self.dim, len(self.f_trees)

        @functools.cache
        def compiled():
            rows, cols = np.triu_indices(n)
            # slot[i, j]: position of entry (i, j) among the i <= j values
            slot = np.empty((n, n), dtype=int)
            slot[rows, cols] = slot[cols, rows] = np.arange(len(rows))
            fn = compile_vector([d[i].diff(j) for d in self._jacobian_rows
                                 for i, j in zip(rows.tolist(), cols.tolist())],
                                self.params, n)
            return fn, slot

        def hessian(x, _m=m):
            fn, slot = compiled()
            return np.array(fn(None, _floats(x))).reshape(_m, -1)[:, slot]

        return hessian

    def compiled_lift(self, q=None):
        """The lifted field of `f_trees` (one per variable) as the solver's
        rhs, one compiled closure `fn(t, y)`.

        For y = [x | Phi | G] with Phi (dim x dim) row-major, it returns
        the tuple [F(x) | J(x) Phi | Phi' Q Phi], the right-hand side of
        :func:`dynamics.lifted_system` for this field; without `q`, y and
        the tuple end after Phi.  `y` is a sequence of Python floats, as
        :func:`integrate.solve` passes it.  The code is scalar arithmetic:
        each non-constant Jacobian entry is one local, constant entries and
        `q` are inlined like parameters, and zero and unit factors are
        dropped, so its values can differ from the matrix products of the
        generic lift in the last bit.  Off the real domain it raises the
        generic lift's :class:`DomainEvaluationError` (F, then J row-major).

        Compiled on the first call for each q and cached on the system.
        """
        q = None if q is None else np.asarray(q, dtype=float)
        key = None if q is None else tuple(q.ravel().tolist())
        if key not in self._lifts:
            self._lifts[key] = _compile_lift(self.f_trees, self._jacobian_rows,
                                             self.params, q)
        return self._lifts[key]

    # -- round trip ---------------------------------------------------------

    def to_text(self):
        lines = [f"dim = {self.dim}"]
        if self.e_dim is not None:
            lines.append(f"e_dim = {self.e_dim}")
        for name in sorted(self.params):
            lines.append(f"{name} = {repr(self.params[name])}")
        for k, t in enumerate(self.f_trees):
            lines.append(f"F{k + 1} = {t.text()}")
        for k, t in enumerate(self.g_trees):
            lines.append(f"G{k + 1} = {t.text()}")
        for k, t in enumerate(self.input_trees):
            lines.append(f"g{k + 1} = {t.text()}")
        return "\n".join(lines) + "\n"


def _split_statements(tokens):
    groups, current = [], []
    for tok in tokens:
        if tok.kind == "sep":
            if current:
                groups.append(current)
                current = []
        elif tok.kind == "end":
            if current:
                groups.append(current)
        else:
            current.append(tok)
    return groups


def _indexed_name(name, prefix):
    if name.startswith(prefix) and name[len(prefix):].isdigit():
        return int(name[len(prefix):])
    return None


def parse_spec_text(text, params=None):
    """Parse a full system text into a :class:`ParsedSystem`.

    `params` overrides/extends parameter values declared in the text.
    """
    tokens = _tokenize(text)
    statements = _split_statements(tokens)

    dim = None
    e_dim = None
    declared = {}
    f_exprs, g_exprs, u_exprs = {}, {}, {}

    for stmt in statements:
        if len(stmt) < 3 or stmt[0].kind != "ident" or not (
            stmt[1].kind == "op" and stmt[1].value == "="
        ):
            raise SpecTextError("expected 'name = value'", stmt[0].pos)
        name = stmt[0].value
        rest_start = 2

        if name in ("dim", "e_dim"):
            if len(stmt) != 3 or stmt[2].kind != "num":
                raise SpecTextError(f"'{name}' must be an integer", stmt[0].pos)
            value = stmt[2].value
            if value != int(value) or value < 1:
                raise SpecTextError(f"'{name}' must be a positive integer", stmt[2].pos)
            if name == "dim":
                dim = int(value)
            else:
                e_dim = int(value)
            continue

        if name == "Q":
            raise SpecTextError("a system text cannot set Q; pass it with "
                                "--Q (or the metric's q argument)",
                                stmt[0].pos)

        for prefix, store in (("F", f_exprs), ("G", g_exprs), ("g", u_exprs)):
            k = _indexed_name(name, prefix)
            if k is not None:
                parser = _ExprParser(stmt, rest_start)
                tree = parser.parse(0)
                if parser.i != len(stmt):
                    raise SpecTextError("trailing input after expression",
                                        stmt[parser.i].pos)
                store[k] = tree
                break
        else:
            # plain parameter: name = <constant expression>
            parser = _ExprParser(stmt, rest_start)
            tree = parser.parse(0)
            if parser.i != len(stmt) or tree.variables() or tree.parameters():
                raise SpecTextError(f"parameter '{name}' must be a constant",
                                    stmt[0].pos)
            declared[name] = tree.eval((), {})

    if params:
        declared.update({k: float(v) for k, v in params.items()})
    for name, value in declared.items():
        if not math.isfinite(value):
            raise SpecTextError(f"parameter '{name}' must be finite, "
                                f"not {value}")

    if dim is None:
        raise SpecTextError("missing 'dim' declaration")

    n_f = e_dim if e_dim is not None else dim
    if e_dim is not None and not (1 <= e_dim < dim):
        raise DimensionMismatchError(f"e_dim = {e_dim} must satisfy 1 <= e_dim < dim")

    def collect(store, label, count):
        if not store and count == 0:
            return []
        missing = [k for k in range(1, count + 1) if k not in store]
        extra = [k for k in store if k < 1 or k > count]
        if missing or extra:
            raise DimensionMismatchError(
                f"{label}-block needs exactly {label}1..{label}{count}; "
                f"missing {missing or 'none'}, unexpected indices {extra or 'none'}"
            )
        return [store[k] for k in range(1, count + 1)]

    f_trees = collect(f_exprs, "F", n_f)
    if not f_trees:
        raise DimensionMismatchError("no F expressions declared")
    g_trees = collect(g_exprs, "G", dim - n_f) if e_dim is not None else []
    if e_dim is None and g_exprs:
        raise DimensionMismatchError("G expressions require an e_dim declaration")
    input_trees = collect(u_exprs, "g", dim) if u_exprs else []

    # identifier validation against dim and declared parameters
    for tree in f_trees + g_trees + input_trees:
        bad = [i for i in tree.variables() if i >= dim]
        if bad:
            raise DimensionMismatchError(
                f"variable x{bad[0] + 1} exceeds dim = {dim}")
        unknown = sorted(tree.parameters() - set(declared))
        if unknown:
            raise UnknownIdentifierError(
                f"unknown identifier '{unknown[0]}' (no parameter value)")

    return ParsedSystem(dim, e_dim, declared, f_trees, g_trees, input_trees)


def parse_system(text, params=None):
    """Parse a system text and build the appropriate model object.

    Returns a :class:`~lyapmetric.systems.SystemModel` for a plain field, a
    :class:`~lyapmetric.systems.TransverseModel` when an ``e_dim``/``G`` block
    is present, and a :class:`~lyapmetric.systems.ControlSystem` when an input
    field ``g`` is declared.
    """
    from . import systems

    parsed = parse_spec_text(text, params)
    if parsed.input_trees:
        return systems.ControlSystem.from_parsed(parsed)
    if parsed.e_dim is not None:
        return systems.TransverseModel.from_parsed(parsed)
    return systems.SystemModel.from_parsed(parsed)

