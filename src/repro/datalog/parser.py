"""A small parser for textual Datalog programs.

The accepted syntax mirrors the notation of the paper closely::

    % the same generation program (comments start with '%' or '#')
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).

    up(a, b).          % facts: ground heads with no body
    flat(b, c).

Conventions
-----------
* identifiers starting with an upper-case letter or ``_`` are **variables**;
  a bare ``_`` is an **anonymous variable** -- every occurrence is a fresh
  variable that never unifies with any other ``_`` (``p(X) :- q(X, _, _).``
  projects the last two columns away independently);
* identifiers starting with a lower-case letter are **constant symbols**
  (their payload is the identifier string);
* integer literals are constants with an ``int`` payload;
* single- or double-quoted strings are constants with a ``str`` payload;
  ``\\"``, ``\\'``, ``\\\\``, ``\\n``, ``\\t`` and ``\\r`` escape sequences
  are resolved, so quotes can appear inside either quoting style;
* the infix comparisons ``<  <=  >  >=  =  !=`` are built-in literals
  (``AT1 < DT1`` in the flight example of Section 4);
* ``not`` before a body literal negates it (stratified negation); ``not`` is
  a reserved word and cannot name a predicate or constant;
* in *argument* position, ``min(C)`` / ``max(C)`` / ``sum(C)`` / ``count(C)``
  denote aggregate terms (legal in rule heads only) and ``t(v1, ..., vn)``
  denotes a tuple constant (the paper's ``t(X^b)`` notation); at the top
  level ``t(...)`` and ``min(...)`` remain ordinary atoms;
* each clause ends with a period.

The parser produces :class:`~repro.datalog.rules.Program` /
:class:`~repro.datalog.rules.Rule` objects; queries (single literals with a
mix of constants and variables, e.g. ``sg(john, Y)``) can be parsed with
:func:`parse_literal`.

Source positions
----------------

Every :class:`Token` records its one-based line *and* column; the parser
threads these upward, so each parsed term, literal and rule carries a
:class:`~repro.datalog.spans.Span` on its ``span`` attribute (metadata only:
equality and hashing of parsed objects ignore spans entirely).  Every
:class:`~repro.datalog.errors.DatalogSyntaxError` points at the offending
token as ``line:column``; at end of input it points one past the last token
instead of reporting no position at all.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DatalogSyntaxError
from .literals import BUILTIN_PREDICATES, Literal
from .rules import Program, Rule
from .spans import Span, merge_spans
from .terms import (
    AGGREGATE_FUNCTIONS,
    ANONYMOUS_PREFIX,
    AggregateTerm,
    Constant,
    Term,
    Variable,
)

#: Escape sequences accepted inside quoted strings (the inverse of
#: :data:`repro.datalog.terms.STRING_ESCAPES`, plus ``\'``).
_STRING_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


def _unquote_string(text: str, span: Optional[Span] = None) -> str:
    """Decode a STRING token's payload, resolving its escape sequences."""
    body = text[1:-1]
    if "\\" not in body:
        return body
    out: List[str] = []
    index = 0
    while index < len(body):
        ch = body[index]
        if ch == "\\":
            # The token regex guarantees a character follows every backslash.
            escape = body[index + 1]
            resolved = _STRING_UNESCAPES.get(escape)
            if resolved is None:
                raise DatalogSyntaxError(
                    f"unknown string escape \\{escape!s}", span=span
                )
            out.append(resolved)
            index += 2
        else:
            out.append(ch)
            index += 1
    return "".join(out)

_TOKEN_SPEC = [
    ("COMMENT", r"(%|#|//)[^\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("IMPLIES", r":-"),
    ("COMPARE", r"<=|>=|!=|==|<|>|="),
    ("NUMBER", r"-?\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("STRING", r"'(?:\\.|[^'\\])*'|\"(?:\\.|[^\"\\])*\""),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("PERIOD", r"\."),
    ("QMARK", r"\?"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

#: How a missing token kind reads in an error message.
_TOKEN_NAMES = {
    "IMPLIES": "':-'",
    "COMPARE": "a comparison operator",
    "NUMBER": "a number",
    "IDENT": "an identifier",
    "STRING": "a string",
    "LPAREN": "'('",
    "RPAREN": "')'",
    "COMMA": "','",
    "PERIOD": "'.'",
    "QMARK": "'?'",
}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int = 1

    @property
    def span(self) -> Span:
        """The source region this token covers (handles embedded newlines)."""
        newlines = self.text.count("\n")
        if newlines:
            tail = len(self.text) - self.text.rfind("\n")
            return Span(self.line, self.column, self.line + newlines, tail)
        return Span(self.line, self.column, self.line, self.column + len(self.text))

    @property
    def end(self) -> Tuple[int, int]:
        """``(line, column)`` one past the token's last character."""
        span = self.span
        return span.end_line, span.end_column


def tokenize(text: str) -> List[Token]:
    """Split program text into tokens, dropping whitespace and comments."""
    tokens: List[Token] = []
    line = 1
    column = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DatalogSyntaxError(
                f"unexpected character {text[pos]!r}", line=line, column=column
            )
        kind = match.lastgroup or ""
        value = match.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, value, line, column))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            column = len(value) - value.rfind("\n")
        else:
            column += len(value)
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.index = 0
        # Per-clause counter for anonymous variables: every `_` becomes a
        # fresh variable (never unified with another `_`), numbered in
        # occurrence order so a printed clause reparses to equal structure.
        self._anonymous = 0

    def _fresh_anonymous(self) -> Variable:
        variable = Variable(f"{ANONYMOUS_PREFIX}{self._anonymous}")
        self._anonymous += 1
        return variable

    # -- token stream helpers ------------------------------------------------

    def _end_position(self) -> Tuple[int, int]:
        """One past the last token -- where "end of input" is."""
        if self.tokens:
            return self.tokens[-1].end
        return 1, 1

    def _end_of_input(self, expected: str) -> DatalogSyntaxError:
        line, column = self._end_position()
        return DatalogSyntaxError(
            f"{expected}, found end of input", line=line, column=column
        )

    def peek(self) -> Optional[Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise self._end_of_input("expected more input")
        self.index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        expected = _TOKEN_NAMES.get(kind, kind)
        if token is None:
            raise self._end_of_input(f"expected {expected}")
        if token.kind != kind:
            raise DatalogSyntaxError(
                f"expected {expected}, found {token.text!r}", span=token.span
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    # -- grammar ----------------------------------------------------------------

    def parse_program(self) -> List[Rule]:
        rules: List[Rule] = []
        while not self.at_end():
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        self._anonymous = 0  # wildcard numbering restarts per clause
        head = self.parse_literal()
        if head.is_builtin:
            raise DatalogSyntaxError(
                f"built-in predicate {head.predicate!r} cannot be a rule head",
                span=head.span,
            )
        token = self.peek()
        body: List[Literal] = []
        if token is not None and token.kind == "IMPLIES":
            self.advance()
            body.append(self.parse_literal())
            while self.peek() is not None and self.peek().kind == "COMMA":  # type: ignore[union-attr]
                self.advance()
                body.append(self.parse_literal())
        period = self.expect("PERIOD")
        rule = Rule(head, body)
        rule.span = merge_spans(head.span, period.span)
        return rule

    def parse_literal(self) -> Literal:
        token = self.peek()
        if token is None:
            raise self._end_of_input("expected a literal")
        if token.kind == "IDENT" and token.text == "not":
            self.advance()
            inner = self.parse_literal()
            if inner.is_builtin:
                raise DatalogSyntaxError(
                    f"built-in comparison {inner} cannot be negated; "
                    "use the complementary operator",
                    span=token.span,
                )
            if inner.negated:
                raise DatalogSyntaxError(
                    "double negation is not part of the language", span=token.span
                )
            negated = Literal(inner.predicate, inner.args, negated=True)
            negated.span = token.span.merge(inner.span)
            return negated
        # Either `ident(args)` or an infix comparison `term OP term`.
        first = self.parse_term_or_atom()
        nxt = self.peek()
        if nxt is not None and nxt.kind == "COMPARE":
            op = self.advance().text
            right = self.parse_term_or_atom()
            for operand in (first, right):
                if isinstance(operand, Literal):
                    raise DatalogSyntaxError(
                        f"comparison operand {operand} is an atom, not a term",
                        span=operand.span,
                    )
            if op not in BUILTIN_PREDICATES:
                raise DatalogSyntaxError(
                    f"unknown comparison operator {op!r}", span=nxt.span
                )
            comparison = Literal(op, [first, right])
            comparison.span = merge_spans(first.span, nxt.span, right.span)
            return comparison
        if isinstance(first, Literal):
            return first
        if isinstance(first, Constant) and token.kind == "IDENT":
            # A zero-argument predicate like `halt.` -- represent as arity 0.
            # Only a bare identifier names one; a number or quoted string
            # in literal position is not a predicate name.
            atom = Literal(token.text, [])
            atom.span = first.span
            return atom
        raise DatalogSyntaxError(
            f"expected a literal near {token.text!r}", span=token.span
        )

    def parse_term_or_atom(self) -> Union[Term, Literal]:
        """Parse either a term, or an atom ``p(t, ...)``.

        An identifier immediately followed by ``(`` starts an atom, which is
        returned as a :class:`Literal`; anything else is a bare identifier or
        literal value, returned as a term.
        """
        token = self.advance()
        if token.kind == "IDENT":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "LPAREN":
                # It is an atom: p(arg, ..., arg)
                self.advance()
                args: List[Term] = []
                if self.peek() is not None and self.peek().kind != "RPAREN":  # type: ignore[union-attr]
                    args.append(self.parse_term())
                    while self.peek() is not None and self.peek().kind == "COMMA":  # type: ignore[union-attr]
                        self.advance()
                        args.append(self.parse_term())
                rparen = self.expect("RPAREN")
                atom = Literal(token.text, args)
                atom.span = token.span.merge(rparen.span)
                return atom
            return self._name_term(token)
        if token.kind == "NUMBER":
            return self._spanned(Constant(int(token.text)), token)
        if token.kind == "STRING":
            return self._spanned(Constant(_unquote_string(token.text, token.span)), token)
        raise DatalogSyntaxError(f"unexpected token {token.text!r}", span=token.span)

    def _spanned(self, term: Term, token: Token) -> Term:
        term.span = token.span
        return term

    def _name_term(self, token: Token) -> Term:
        """The term a bare identifier token denotes (variable or constant)."""
        if token.text == "_":
            return self._spanned(self._fresh_anonymous(), token)
        if token.text[0].isupper() or token.text[0] == "_":
            return self._spanned(Variable(token.text), token)
        return self._spanned(Constant(token.text), token)

    def parse_term(self) -> Term:
        token = self.advance()
        if token.kind == "IDENT":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "LPAREN":
                if token.text in AGGREGATE_FUNCTIONS:
                    return self._parse_aggregate(token)
                if token.text == "t":
                    return self._parse_tuple_constant(token)
                raise DatalogSyntaxError(
                    f"nested atom {token.text!r}(...) is not a term "
                    "(only t(...) tuples and aggregate terms may nest)",
                    span=token.span,
                )
            return self._name_term(token)
        if token.kind == "NUMBER":
            return self._spanned(Constant(int(token.text)), token)
        if token.kind == "STRING":
            return self._spanned(Constant(_unquote_string(token.text, token.span)), token)
        raise DatalogSyntaxError(
            f"expected a term, found {token.text!r}", span=token.span
        )

    def _parse_aggregate(self, token: Token) -> AggregateTerm:
        """``min(C)`` / ``max(C)`` / ``sum(C)`` / ``count(C)`` in argument position."""
        self.expect("LPAREN")
        inner = self.parse_term()
        if not isinstance(inner, Variable):
            raise DatalogSyntaxError(
                f"aggregate {token.text}(...) takes a single variable",
                span=token.span,
            )
        rparen = self.expect("RPAREN")
        aggregate = AggregateTerm(token.text, inner)
        aggregate.span = token.span.merge(rparen.span)
        return aggregate

    def _parse_tuple_constant(self, token: Token) -> Constant:
        """``t(v1, ..., vn)`` in argument position: a tuple-payload constant."""
        self.expect("LPAREN")
        values: List[object] = []
        if self.peek() is not None and self.peek().kind != "RPAREN":  # type: ignore[union-attr]
            values.append(self._tuple_component(token))
            while self.peek() is not None and self.peek().kind == "COMMA":  # type: ignore[union-attr]
                self.advance()
                values.append(self._tuple_component(token))
        rparen = self.expect("RPAREN")
        constant = Constant(tuple(values))
        constant.span = token.span.merge(rparen.span)
        return constant

    def _tuple_component(self, token: Token) -> object:
        component = self.parse_term()
        if not isinstance(component, Constant):
            raise DatalogSyntaxError(
                f"tuple constant t(...) may only contain constants, got {component}",
                span=component.span or token.span,
            )
        return component.value


def parse_program(text: str, validate: bool = True) -> Program:
    """Parse a full program (rules and facts) from text."""
    parser = _Parser(tokenize(text))
    rules = parser.parse_program()
    return Program(rules, validate=validate)


def parse_rules(text: str) -> List[Rule]:
    """Parse text into a list of rules without building a validated Program."""
    parser = _Parser(tokenize(text))
    return parser.parse_program()


def parse_literal(text: str) -> Literal:
    """Parse a single literal, e.g. a query such as ``sg(john, Y)``.

    A trailing period or question mark is accepted and ignored.
    """
    tokens = [t for t in tokenize(text) if t.kind not in ("PERIOD", "QMARK")]
    parser = _Parser(tokens)
    literal = parser.parse_literal()
    if not parser.at_end():
        extra = parser.peek()
        assert extra is not None
        raise DatalogSyntaxError(
            f"unexpected trailing input {extra.text!r}", span=extra.span
        )
    return literal


def parse_query(text: str) -> Literal:
    """Alias of :func:`parse_literal`, reads better at call sites."""
    return parse_literal(text)
