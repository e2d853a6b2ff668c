"""Mission formula syntax.

The grammar covers `true`, atomic propositions, negation, conjunction,
disjunction, implication (sugar), next, until, always, and eventually. The
module parses formulas, rewrites them into negation normal form and lists
the letters of an alphabet; the automaton construction works from these.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import LtlSyntaxError

Letter = frozenset[str]


class Formula:
    """Base class of all formula nodes.

    A node's hash is its fields' hash, as a frozen dataclass's, but computed
    once and kept on the node: the generated hash walks the whole subtree on
    every call. Its text is kept the same way, since a node's text holds its
    operands' texts. Pickling leaves both out, so a node moved to a process
    with another hash seed computes its hash again.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = self._fields_hash()
            return value

    def __str__(self) -> str:
        try:
            return self.__dict__["_text"]
        except KeyError:
            pass
        # Each node below that has no text yet gets it after its operands do:
        # a loop, where printing an operand from its parent's text would nest
        # one call deeper per level.
        stack = [self]
        while stack:
            node = stack[-1]
            missing = [
                sub for sub in node.__dict__.values()
                if isinstance(sub, Formula) and "_text" not in sub.__dict__
            ]
            if missing:
                stack += missing
            else:
                stack.pop()
                node.__dict__["_text"] = node._render()
        return self.__dict__["_text"]

    def __getstate__(self) -> dict:
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in ("_hash", "_text")
        }


def _node(cls: type) -> type:
    """A frozen dataclass node hashed through ``Formula.__hash__``; its
    generated hash of the fields is kept as ``_fields_hash``."""
    cls = dataclass(frozen=True)(cls)
    cls._fields_hash = cls.__hash__
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class TrueConst(Formula):
    def _render(self) -> str:
        return "true"


@_node
class Atom(Formula):
    name: str

    def _render(self) -> str:
        return self.name


@_node
class Not(Formula):
    sub: Formula

    def _render(self) -> str:
        return f"! {_wrap(self.sub)}"


@_node
class And(Formula):
    left: Formula
    right: Formula

    def _render(self) -> str:
        return f"{_wrap(self.left)} & {_wrap(self.right)}"


@_node
class Or(Formula):
    left: Formula
    right: Formula

    def _render(self) -> str:
        return f"{_wrap(self.left)} | {_wrap(self.right)}"


@_node
class Next(Formula):
    sub: Formula

    def _render(self) -> str:
        return f"X {_wrap(self.sub)}"


@_node
class Until(Formula):
    left: Formula
    right: Formula

    def _render(self) -> str:
        return f"{_wrap(self.left)} U {_wrap(self.right)}"


@_node
class Always(Formula):
    sub: Formula

    def _render(self) -> str:
        return f"G {_wrap(self.sub)}"


@_node
class Eventually(Formula):
    sub: Formula

    def _render(self) -> str:
        return f"F {_wrap(self.sub)}"


def _wrap(f: Formula) -> str:
    if isinstance(f, (TrueConst, Atom)):
        return str(f)
    return f"({f})"


KEYWORDS = frozenset({"X", "U", "G", "F", "true"})
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"(->|[!&|()])|({_WORD})|(\S)")


def is_atom_name(name: str) -> bool:
    """Whether a formula can name ``name`` as an atomic proposition."""
    return re.fullmatch(_WORD, name) is not None and name not in KEYWORDS


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(text):
        if match.group(3) is not None:
            raise LtlSyntaxError(
                f"unexpected character {match.group(3)!r}", match.start()
            )
        if match.group(1) is not None:
            tokens.append(("op", match.group(1), match.start()))
        else:
            word = match.group(2)
            if word in KEYWORDS:
                tokens.append(("kw", word, match.start()))
            else:
                tokens.append(("ident", word, match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the operator precedence chain.

    Binding from loosest to tightest: implication, disjunction, conjunction,
    until, unary. Until and implication associate to the right.
    """

    def __init__(self, text: str, propositions: frozenset[str] | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.propositions = propositions

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise LtlSyntaxError(f"expected {op!r}, found {value or 'end of input'!r}", pos)
        self.take()

    def parse(self) -> Formula:
        f = self.parse_implies()
        kind, value, pos = self.peek()
        if kind != "end":
            raise LtlSyntaxError(f"unexpected token {value!r}", pos)
        return f

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        kind, value, _ = self.peek()
        if kind == "op" and value == "->":
            self.take()
            right = self.parse_implies()
            return Or(Not(left), right)
        return left

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "|":
                self.take()
                f = Or(f, self.parse_and())
            else:
                return f

    def parse_and(self) -> Formula:
        f = self.parse_until()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "&":
                self.take()
                f = And(f, self.parse_until())
            else:
                return f

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        kind, value, _ = self.peek()
        if kind == "kw" and value == "U":
            self.take()
            return Until(left, self.parse_until())
        return left

    def parse_unary(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "op":
            if value == "!":
                return Not(self.parse_unary())
            if value == "(":
                f = self.parse_implies()
                self.expect_op(")")
                return f
            raise LtlSyntaxError(f"unexpected token {value!r}", pos)
        if kind == "kw":
            if value == "X":
                return Next(self.parse_unary())
            if value == "G":
                return Always(self.parse_unary())
            if value == "F":
                return Eventually(self.parse_unary())
            if value == "true":
                return TrueConst()
            raise LtlSyntaxError(f"operator {value!r} needs a left operand", pos)
        if kind == "ident":
            if self.propositions is not None and value not in self.propositions:
                raise LtlSyntaxError(f"undeclared proposition {value!r}", pos)
            return Atom(value)
        raise LtlSyntaxError("unexpected end of input", pos)


def parse(text: str, propositions: Iterable[str] | None = None) -> Formula:
    """Parse formula text, rejecting propositions outside the declared set."""
    props = frozenset(propositions) if propositions is not None else None
    return _Parser(text, props).parse()


def atoms(formula: Formula) -> frozenset[str]:
    """The set of proposition names occurring in the formula."""
    out: set[str] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            out.add(f.name)
        elif isinstance(f, (Not, Next, Always, Eventually)):
            stack.append(f.sub)
        elif isinstance(f, (And, Or, Until)):
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(out)


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Pre-order, left-to-right traversal including the formula itself."""
    yield formula
    if isinstance(formula, (Not, Next, Always, Eventually)):
        yield from subformulas(formula.sub)
    elif isinstance(formula, (And, Or, Until)):
        yield from subformulas(formula.left)
        yield from subformulas(formula.right)


def nnf(formula: Formula) -> Formula:
    """Negation normal form: negations pushed down to atoms.

    The grammar has no release operator, so the negation of an until is
    rewritten through always: not (a U b) = G not b | (not b U (not a & not b)).
    The negation of `true` is kept literally as an unsatisfiable leaf.
    """
    if isinstance(formula, (TrueConst, Atom)):
        return formula
    if isinstance(formula, And):
        return And(nnf(formula.left), nnf(formula.right))
    if isinstance(formula, Or):
        return Or(nnf(formula.left), nnf(formula.right))
    if isinstance(formula, Next):
        return Next(nnf(formula.sub))
    if isinstance(formula, Until):
        return Until(nnf(formula.left), nnf(formula.right))
    if isinstance(formula, Always):
        return Always(nnf(formula.sub))
    if isinstance(formula, Eventually):
        return Eventually(nnf(formula.sub))
    sub = formula.sub
    if isinstance(sub, TrueConst):
        return formula
    if isinstance(sub, Atom):
        return formula
    if isinstance(sub, Not):
        return nnf(sub.sub)
    if isinstance(sub, And):
        return Or(nnf(Not(sub.left)), nnf(Not(sub.right)))
    if isinstance(sub, Or):
        return And(nnf(Not(sub.left)), nnf(Not(sub.right)))
    if isinstance(sub, Next):
        return Next(nnf(Not(sub.sub)))
    if isinstance(sub, Always):
        return Eventually(nnf(Not(sub.sub)))
    if isinstance(sub, Eventually):
        return Always(nnf(Not(sub.sub)))
    if isinstance(sub, Until):
        nl = nnf(Not(sub.left))
        nr = nnf(Not(sub.right))
        return Or(Always(nr), Until(nr, And(nl, nr)))
    raise TypeError(f"unknown formula node {sub!r}")


def canonical_letters(propositions: Iterable[str]) -> list[Letter]:
    """All proposition subsets in a fixed enumeration order."""
    props = sorted(set(propositions))
    letters = []
    for mask in range(2 ** len(props)):
        letters.append(frozenset(p for i, p in enumerate(props) if mask >> i & 1))
    return letters
