"""Text form of flow patterns used in policy files and CLI arguments.

Grammar (whitespace-insensitive, ``#`` comments to end of line)::

    pattern  := block
    block    := LAYER '{' clause* '}'
    clause   := block | FIELD op operand
    op       := '==' | 'in' | 'prefix' | 'range'
    operand  := literal                      (==, prefix)
              | '{' literal (',' literal)* '}'   (in)
              | INT '..' INT                 (range)
    literal  := INT | FLOAT | STRING | 'true' | 'false'

Integers accept ``0x`` hex.  Strings are double-quoted with ``\\"`` and
``\\\\`` escapes; MAC and IPv4 addresses are written as strings.  Exactly one
nested block per layer is allowed.  Derived layer constraints are implicit
and have no written form.
"""

from __future__ import annotations

from typing import Optional

from .errors import PatternError
from .patterns import (
    FlowPattern,
    MatchOp,
    PredicateKind,
    PredicateNode,
    Value,
    hierarchy,
    where,
)

_PUNCT = ("==", "..", "{", "}", ",")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_BODY = _IDENT_START | set("0123456789-")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("==", i) or text.startswith("..", i):
            tokens.append(text[i : i + 2])
            i += 2
            continue
        if ch in "{},":
            tokens.append(ch)
            i += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise PatternError("unterminated string literal")
            tokens.append('"' + "".join(buf))
            i = j + 1
            continue
        if ch in _IDENT_START or ch.isdigit() or ch == "-":
            j = i + 1
            while j < n and (text[j] in _IDENT_BODY or text[j] == "."):
                # ".." terminates a number; a single "." continues a float
                if text[j] == "." and text.startswith("..", j):
                    break
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise PatternError(f"unexpected character {ch!r} in pattern")
    return tokens


class _Cursor:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PatternError("unexpected end of pattern")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise PatternError(f"expected {tok!r}, got {got!r}")


def _parse_literal(tok: str) -> Value:
    if tok.startswith('"'):
        return tok[1:]
    if tok == "true":
        return True
    if tok == "false":
        return False
    try:
        if tok.lower().startswith("0x") or tok.lower().startswith("-0x"):
            return int(tok, 16)
        if any(c in tok for c in ".eE") and not tok.lower().startswith("0x"):
            return float(tok)
        return int(tok)
    except ValueError:
        raise PatternError(f"bad literal {tok!r}") from None


def _is_ident(tok: str) -> bool:
    return bool(tok) and tok[0] in _IDENT_START and not tok.startswith('"')


def _parse_block(cur: _Cursor) -> PredicateNode:
    layer = cur.next()
    if not _is_ident(layer):
        raise PatternError(f"expected layer id, got {layer!r}")
    cur.expect("{")
    children: list[PredicateNode] = []
    while True:
        tok = cur.peek()
        if tok is None:
            raise PatternError("unterminated block")
        if tok == "}":
            cur.next()
            break
        ident = cur.next()
        if not _is_ident(ident):
            raise PatternError(f"expected field or layer id, got {ident!r}")
        nxt = cur.peek()
        if nxt == "{":
            cur.pos -= 1
            children.append(_parse_block(cur))
            continue
        op_tok = cur.next()
        if op_tok == "==":
            children.append(where(ident, MatchOp.EQ, _parse_literal(cur.next())))
        elif op_tok == "prefix":
            operand = _parse_literal(cur.next())
            if not isinstance(operand, str):
                raise PatternError(f"{ident}: prefix wants a string operand")
            children.append(where(ident, MatchOp.PREFIX, operand))
        elif op_tok == "in":
            cur.expect("{")
            values = [_parse_literal(cur.next())]
            while cur.peek() == ",":
                cur.next()
                values.append(_parse_literal(cur.next()))
            cur.expect("}")
            children.append(where(ident, MatchOp.IN_SET, frozenset(values)))
        elif op_tok == "range":
            lo = _parse_literal(cur.next())
            cur.expect("..")
            hi = _parse_literal(cur.next())
            if type(lo) is not int or type(hi) is not int:
                raise PatternError(f"{ident}: range wants integer bounds")
            children.append(where(ident, MatchOp.RANGE, (lo, hi)))
        else:
            raise PatternError(f"unknown operator {op_tok!r}")
    return hierarchy(layer, *children)


def parse_pattern(text: str) -> FlowPattern:
    """Parse the text grammar into a normalized flow pattern."""
    cur = _Cursor(_tokenize(text))
    root = _parse_block(cur)
    if cur.peek() is not None:
        raise PatternError(f"trailing input after pattern: {cur.peek()!r}")
    return FlowPattern(root)


def _format_literal(v: Value) -> str:
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is str:
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(v)


def _format_leaf(node: PredicateNode) -> str:
    if node.op is MatchOp.EQ:
        return f"{node.ident} == {_format_literal(node.operand)}"
    if node.op is MatchOp.PREFIX:
        return f"{node.ident} prefix {_format_literal(node.operand)}"
    if node.op is MatchOp.IN_SET:
        parts = sorted(_format_literal(v) for v in node.operand)
        return f"{node.ident} in {{ {', '.join(parts)} }}"
    lo, hi = node.operand
    return f"{node.ident} range {lo}..{hi}"


def format_pattern(flow: FlowPattern) -> str:
    """Single-line text form; derived constraints are omitted."""

    def fmt(node: PredicateNode) -> str:
        parts = [
            _format_leaf(c)
            for c in node.children
            if c.kind is PredicateKind.PARAMETRIC
        ]
        hier = node.hierarchy_child()
        if hier is not None:
            parts.append(fmt(hier))
        inner = " ".join(parts)
        return f"{node.ident} {{ {inner} }}" if inner else f"{node.ident} {{ }}"

    return fmt(flow.root)
