"""Hamiltonian expression parser, symbolic derivatives and compiled evaluation.

Grammar: standard precedence with right-associative '^' binding tighter than
unary minus, then '*' '/', then '+' '-'; parentheses; variables x1..xn,
p1..pn and t; functions sin, cos, exp, sqrt.  Errors carry byte offsets and
the expected-token set.

The gradient with respect to z = (x, p) and the upper triangle of the
Hessian are differentiated symbolically once, so derivatives are exact to
rounding for the supported operations.  The value, the gradient and the
Hessian are each compiled to one generated straight-line Python function over
a (..., 2n) batch of points, with one line per distinct node (an operation on
the same operands is computed once for all entries) running the numpy
operator of that node.  A domain error or a non-finite intermediate raises
EvalDomainError with the span of the source node it comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Hamiltonian
from .errors import GaborflowError

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ParseError(GaborflowError, ValueError):
    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{detail}")


class EvalDomainError(GaborflowError, ArithmeticError):
    def __init__(self, message: str, span):
        self.span = span
        super().__init__(f"{message} in expression span {span[0]}..{span[1]}")


@dataclass(frozen=True)
class Const:
    value: float
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Var:
    kind: str        # "x", "p", or "t"
    index: int       # 0-based, unused for t
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Unary:
    op: str          # "neg" or a function name
    arg: object
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Binary:
    op: str          # + - * / ^
    left: object
    right: object
    span: tuple = (0, 0)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < len(src) and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < len(src) and src[j] in "eE":
                k = j + 1
                if k < len(src) and src[k] in "+-":
                    k += 1
                if k < len(src) and src[k].isdigit():
                    j = k
                    while j < len(src) and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i, ("number",)) from None
            tokens.append(("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ("number", "identifier", "operator"))
    tokens.append(("end", "", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# Pratt parser
# ---------------------------------------------------------------------------

_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BINDING = 30


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], (kind,))
        return self.advance()

    def parse(self):
        ast = self.expression(0)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], ("operator", "end of input"))
        return ast

    def expression(self, min_bp: int):
        node = self.prefix()
        while True:
            kind, _, _ = self.peek()
            bp = _BINDING.get(kind)
            if bp is None or bp < min_bp:
                return node
            op = self.advance()[0]
            # '^' is right-associative
            rhs = self.expression(bp if op == "^" else bp + 1)
            node = Binary(op, node, rhs, (node.span[0], rhs.span[1]))

    def prefix(self):
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text), (off, off + len(text)))
        if kind == "-":
            self.advance()
            arg = self.expression(_UNARY_BINDING)
            return Unary("neg", arg, (off, arg.span[1]))
        if kind == "(":
            self.advance()
            node = self.expression(0)
            closing = self.expect(")")
            return replace(node, span=(off, closing[2] + 1))
        if kind == "ident":
            self.advance()
            if text in FUNCTIONS:
                self.expect("(")
                arg = self.expression(0)
                closing = self.expect(")")
                return Unary(text, arg, (off, closing[2] + 1))
            return self.variable(text, off)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input",
                         off, ("number", "identifier", "(", "-"))

    def variable(self, name: str, off: int):
        span = (off, off + len(name))
        if name == "t":
            return Var("t", 0, span)
        if name and name[0] in ("x", "p") and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= self.n:
                raise ParseError(f"variable {name!r} outside dimension n={self.n}", off,
                                 (f"x1..x{self.n}", f"p1..p{self.n}", "t"))
            return Var(name[0], idx - 1, span)
        raise ParseError(f"unknown identifier {name!r}", off,
                         (f"x1..x{self.n}", f"p1..p{self.n}", "t") + FUNCTIONS)


def parse_hamiltonian(src: str, n: int):
    """Parse an expression in x1..xn, p1..pn, t into an AST."""
    if n < 1:
        raise ParseError("dimension must be >= 1", 0)
    return _Parser(src, n).parse()


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through the parser)
# ---------------------------------------------------------------------------

def _precedence(node) -> int:
    if isinstance(node, Binary):
        return _BINDING[node.op]
    if isinstance(node, Unary):
        return _UNARY_BINDING if node.op == "neg" else 100
    if isinstance(node, Const) and node.value < 0:
        return _UNARY_BINDING
    return 100


def to_source(node) -> str:
    """Render an AST back to parseable source."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t" if node.kind == "t" else f"{node.kind}{node.index + 1}"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            if _precedence(node.arg) < _UNARY_BINDING:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_source(node.arg)})"
    if isinstance(node, Binary):
        bp = _BINDING[node.op]
        left = to_source(node.left)
        right = to_source(node.right)
        if node.op == "^":
            if _precedence(node.left) <= bp:
                left = f"({left})"
            if _precedence(node.right) < bp:
                right = f"({right})"
        else:
            if _precedence(node.left) < bp:
                left = f"({left})"
            if _precedence(node.right) < bp or (
                node.op in ("-", "/") and _precedence(node.right) == bp
            ):
                right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Symbolic derivatives
# ---------------------------------------------------------------------------

_ZERO, _ONE = Const(0.0), Const(1.0)


def _is(node, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _node(op: str, a, b, span):
    """The derived node a op b (or -a for op "neg") with exact zeros and ones
    folded away, so a derivative keeps only the terms that depend on z.  It
    keeps the span of its source node."""
    if op == "neg" or (op == "-" and _is(a, 0.0)):
        arg = a if op == "neg" else b
        return _ZERO if _is(arg, 0.0) else Unary("neg", arg, span)
    if (op in "*/" and _is(a, 0.0)) or (op == "*" and _is(b, 0.0)):
        return _ZERO
    if (op in "+-" and _is(b, 0.0)) or (op == "*" and _is(b, 1.0)):
        return a
    if (op == "+" and _is(a, 0.0)) or (op == "*" and _is(a, 1.0)):
        return b
    return Binary(op, a, b, span)


def _integer_exponent(node: Binary) -> float | None:
    """k when node is a^k with k a literal integer, possibly negated."""
    b = node.right
    if isinstance(b, Unary) and b.op == "neg" and isinstance(b.arg, Const):
        k = -b.arg.value
    elif isinstance(b, Const):
        k = b.value
    else:
        return None
    return k if float(k).is_integer() else None


def _exp_log(node: Binary):
    """a^b for a non-integer or non-literal exponent, as exp(b log a).  The
    internal "log" node raises the power's domain error at a <= 0."""
    return Unary("exp", Binary("*", node.right, Unary("log", node.left, node.span), node.span),
                 node.span)


def _diff(node, k: int, n: int):
    """The derivative of node with respect to z_k, z = (x, p), as an AST."""
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.kind != "t" and _z_index(node, n) == k else _ZERO
    span = node.span
    if isinstance(node, Unary):
        a = node.arg
        if node.op == "neg":
            return _node("neg", _diff(a, k, n), None, span)
        fp = {
            "sin": Unary("cos", a, span),
            "cos": _node("neg", Unary("sin", a, span), None, span),
            "exp": node,
            "sqrt": _node("/", Const(0.5), node, span),
            "log": _node("/", _ONE, a, span),
        }[node.op]
        return _node("*", fp, _diff(a, k, n), span)
    a, b = node.left, node.right
    if node.op == "^":
        power = _integer_exponent(node)
        if power is None:
            return _diff(_exp_log(node), k, n)
        if power == 0.0:
            return _ZERO
        a_km1 = _ONE if power == 1.0 else Binary("^", a, Const(power - 1.0), span)
        return _node("*", _node("*", Const(power), a_km1, span), _diff(a, k, n), span)
    da, db = _diff(a, k, n), _diff(b, k, n)
    if node.op in "+-":
        return _node(node.op, da, db, span)
    if node.op == "*":
        return _node("+", _node("*", a, db, span), _node("*", b, da, span), span)
    # (a/b)' = (a' - (a/b) b') / b
    return _node("/", _node("-", da, _node("*", node, db, span), span), b, span)


def _z_index(node: Var, n: int) -> int:
    return node.index if node.kind == "x" else n + node.index


# ---------------------------------------------------------------------------
# Compilation to straight-line numpy functions over a batch of points
# ---------------------------------------------------------------------------

# Source of each operation on the names of its operands.  The arithmetic goes
# through the operators, so a single point takes numpy's scalar paths and
# rounds as the per-point evaluation always has.
_OPERATIONS = {"neg": "-{0}", "sin": "sin({0})", "cos": "cos({0})", "exp": "exp({0})",
               "sqrt": "sqrt({0})", "log": "log({0})", "+": "{0} + {1}", "-": "{0} - {1}",
               "*": "{0} * {1}", "/": "{0} / {1}", "^": "{0} ** {1}"}
# op -> (whether a left operand of 0 fails it with this literal right operand,
# source of the test of the operands that fails the domain, message)
_DOMAIN = {
    "sqrt": (None, "({0} <= 0.0).any()", "square root of a non-positive value"),
    "log": (None, "({0} <= 0.0).any()", "non-integer power requires a positive base"),
    "/": (lambda b: b == 0.0, "({1} == 0.0).any()", "division by zero"),
    "^": (lambda b: b < 0.0, "(({0} == 0.0) & ({1} < 0.0)).any()",
          "zero raised to a negative power"),
}


class _Program:
    """The body of a straight-line evaluator of ASTs over z (..., 2n) and t:
    one line per distinct node, a node being its operation on the names of
    its operands, with its domain test on the line before it.  Literals
    enter through the namespace, so no text of the expression reaches the
    source."""

    def __init__(self, n: int):
        self.n = n
        self.lines = []       # (source, span of the node it evaluates)
        self.namespace = {}   # literal names and domain errors
        self.names = {}       # node key -> the name holding its value
        self.seen = {}        # id(node) -> (node, name); the node keeps its id taken
        self.tests = set()    # domain tests emitted: a repeated one cannot fail

    def name(self, node) -> str:
        """The name holding node's value, emitting its line on first use."""
        hit = self.seen.get(id(node))
        if hit is not None:
            return hit[1]
        if isinstance(node, Binary) and node.op == "^" and _integer_exponent(node) is None:
            name = self.name(_exp_log(node))
        else:
            if isinstance(node, Const):
                key = ("const", node.value.hex())
            elif isinstance(node, Var):
                key = ("t",) if node.kind == "t" else ("z", _z_index(node, self.n))
            else:
                children = (node.arg,) if isinstance(node, Unary) else (node.left, node.right)
                key = (node.op, *(self.name(child) for child in children))
            name = self.names.get(key)
            if name is None:
                name = self.names[key] = self._emit(key, node)
        self.seen[id(node)] = (node, name)
        return name

    def _emit(self, key, node) -> str:
        if key[0] == "const":
            name = f"c{len(self.namespace)}"
            self.namespace[name] = np.float64(node.value)
            return name
        if key[0] == "t":
            return "t"
        name = f"v{len(self.lines)}"
        if key[0] == "z":  # a numpy scalar for a single point, as dynamics._coordinate reads it
            self.lines.append((f"{name} = z[..., {key[1]}][()]", node.span))
            return name
        op, operands = key[0], key[1:]
        literal_fails, test, message = _DOMAIN.get(node.op, (None, None, ""))
        if test is not None and (literal_fails is None or not isinstance(node.right, Const)
                                 or literal_fails(node.right.value)):
            test = test.format(*operands)
            if test not in self.tests:
                self.tests.add(test)
                error = f"d{len(self.namespace)}"
                self.namespace[error] = (message, node.span)
                self.lines.append((f"if {test}: raise EvalDomainError(*{error})", node.span))
        self.lines.append((f"{name} = {_OPERATIONS[op].format(*operands)}", node.span))
        return name


def _floating_point_error(exc: FloatingPointError, spans: dict) -> EvalDomainError:
    """exc as an EvalDomainError with the span of the generated line that raised it."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return EvalDomainError(str(exc), spans[tb.tb_lineno])


def _compile_entries(entries, n: int):
    """A function (z, t) -> array of shape z.shape[:-1] + (2n,) * rank, with
    entry index filled by its AST and mirrored to the reversed index, so a
    Hessian from its upper triangle is exactly symmetric.  It runs under
    np.errstate(over="raise", invalid="raise"), so a non-finite result
    raises at the node that produced it."""
    program = _Program(n)
    targets = [(index, program.name(node)) for index, node in entries]
    head = ["def evaluate(z, t):",
            "    z = asarray(z, dtype=float)",
            "    t = float64(t)",
            f"    out = empty(z.shape[:-1] + {(2 * n,) * len(entries[0][0])!r})",
            "    with errstate(over='raise', invalid='raise'):",
            "        try:"]
    body = [f"            {line}" for line, _ in program.lines] or ["            pass"]
    spans = {len(head) + 1 + i: span for i, (_, span) in enumerate(program.lines)}
    tail = ["        except FloatingPointError as exc:",
            "            raise floating_point_error(exc, spans) from None"]
    for index, name in targets:
        for cell in dict.fromkeys((index, index[::-1])):
            tail.append(f"        out[{', '.join(['...', *map(str, cell)])}] = {name}")
    tail.append("    return out[()]")
    namespace = dict(program.namespace, asarray=np.asarray, float64=np.float64, empty=np.empty,
                     errstate=np.errstate, sin=np.sin, cos=np.cos, exp=np.exp, sqrt=np.sqrt,
                     log=np.log, EvalDomainError=EvalDomainError, spans=spans,
                     floating_point_error=_floating_point_error)
    exec(compile("\n".join(head + body + tail), "<expression>", "exec"), namespace)
    return namespace["evaluate"]


def _compiled_hamiltonian(ast, n: int, **fields) -> Hamiltonian:
    """Value, gradient and upper-triangle Hessian of an AST, differentiated
    once and compiled to straight-line functions over (..., 2n) batches."""
    grads = [_diff(ast, k, n) for k in range(2 * n)]
    return Hamiltonian(
        n,
        value=_compile_entries([((), ast)], n),
        gradient=_compile_entries([((k,), g) for k, g in enumerate(grads)], n),
        hessian=_compile_entries([((i, j), _diff(grads[i], j, n))
                                  for i in range(2 * n) for j in range(i, 2 * n)], n),
        **fields,
    )


def eval_with_derivatives(ast, z, t: float, n: int):
    """Evaluate an AST at z = (x, p) and time t, one point or a (..., 2n) batch.

    Returns (value, gradient, hessian) with derivatives taken with respect to
    z; the Hessian is symmetric by construction.  The AST is differentiated
    and compiled on every call; expression_hamiltonian compiles it once.
    """
    H = _compiled_hamiltonian(ast, n)
    return H.value(z, t), H.gradient(z, t), H.hessian(z, t)


def expression_hamiltonian(src: str, n: int) -> Hamiltonian:
    """Compile an expression into a Hamiltonian with exact derivatives."""
    time_dependent = ("ident", "t") in [token[:2] for token in _tokenize(src)]
    return _compiled_hamiltonian(parse_hamiltonian(src, n), n,
                                 autonomous=not time_dependent, name=src)
