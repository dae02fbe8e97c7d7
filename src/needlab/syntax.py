"""Concrete syntax: parser and minimal-parenthesis printer.

Grammar (UTF-8):

    term  ::= '\\' ident '.' term | app
    app   ::= atom+                      (left associative)
    atom  ::= ident | ident ':' '(' term ')' | '(' term ')'
    ident ::= [A-Za-z_][A-Za-z0-9_']* ('%' [0-9]+)?

A lambda body extends maximally to the right.  ``λ`` is a synonym for
``\\``.  ``--`` starts a comment running to end of line.  A bare ``%`` is
banned inside identifiers, but an identifier may carry a ``%N`` suffix,
N in ASCII digits, denoting a machine-minted name with generation index N;
the printer emits these for fresh names.  ``l:(t)`` is t under the sharing label l, as the
labeled semantics and the store machine's image print it.  Printed terms,
labeled ones included, always parse back.

Traces print one state after another, and consecutive states share most of
their nodes.  ``print_term`` and ``StackPrinter`` take an optional
``PrintMemo`` that carries the printed text of recent states' compound
nodes, so that a state costs only what changed.  ``StackPrinter``, the one
frame-stack printer, prints the states of one stack that steps cut and
grow at the top, keeping each frame's piece with the frame.
"""
from __future__ import annotations

import re

from .frames import ArgF, BodF, Frames, LamF
from .terms import HOLE, App, Labeled, Lam, Name, Term, Var

#: One token at a time, by ``_TOKEN.match(text, at)``: a named group per
#: kind, while blanks and ``--`` comments match without a group and are
#: skipped.  A ``%`` suffix takes ASCII digits; an empty one is an error.
_TOKEN = re.compile(
    r"[ \t\r\n]+|--[^\n]*"
    r"|(?P<ident>(?P<base>[A-Za-z_][A-Za-z0-9_']*)(?:%(?P<index>[0-9]*))?)"
    r"|(?P<lambda>[\\λ])|(?P<dot>\.)|(?P<colon>:)|(?P<lparen>\()|(?P<rparen>\))"
    # the distinguished hole of a one-hole context; printed contexts
    # parse back, though holes never occur in programs
    r"|(?P<hole>\[\])"
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _error(text: str, at: int, message: str) -> ParseError:
    """A ParseError at offset at of text, its line and column counted here."""
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _tokens(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, offset) of each token of text, then an eof token."""
    tokens = []
    at, end, match = 0, len(text), _TOKEN.match
    while at < end:
        m = match(text, at)
        if m is None:
            raise _error(text, at, f"unexpected character {text[at]!r}")
        kind = m.lastgroup
        if kind == "ident":
            index = m["index"]
            if index == "":
                raise _error(text, m.end(), "expected digits after '%'")
            tokens.append((kind, Name(m["base"], int(index) if index else 0), at))
        elif kind is not None:
            tokens.append((kind, None, at))
        at = m.end()
    tokens.append(("eof", None, end))
    return tokens


class _Group:
    """One term-in-progress: leading binders, then application atoms."""

    __slots__ = ("binders", "atoms", "paren", "label")

    def __init__(self, paren: bool = False, label: Name | None = None):
        self.binders: list[Name] = []
        self.atoms: list[Term] = []
        self.paren = paren  # opened by '(' or 'l:(', closed by ')'
        self.label = label  # the l of an l:(...) group


def parse(text: str) -> Term:
    """Explicit-stack parser; machine output can nest thousands deep."""
    tokens = _tokens(text)
    at = 0
    stack = [_Group()]
    while True:
        kind, value, start = tokens[at]
        at += 1
        if kind == "lambda" and stack[-1].atoms:
            raise _error(text, start, "an abstraction here must be parenthesized")
        if kind == "lambda" or kind == "ident" and tokens[at][0] == "colon":
            for want in ("ident", "dot") if kind == "lambda" else ("colon", "lparen"):
                found, _, where = tokens[at]
                if found != want:
                    raise _error(text, where, f"expected {want}, found {found}")
                at += 1
            if kind == "lambda":
                stack[-1].binders.append(tokens[at - 2][1])
            else:
                stack.append(_Group(True, value))
        elif kind == "ident":
            stack[-1].atoms.append(Var(value))
        elif kind == "hole":
            stack[-1].atoms.append(HOLE)
        elif kind == "lparen":
            stack.append(_Group(True))
        elif kind == "rparen" or kind == "eof":
            group = stack.pop()
            if group.paren != (kind == "rparen"):
                message = "unclosed parenthesis" if group.paren else "unexpected trailing rparen"
                raise _error(text, start, message)
            if not group.atoms:
                raise _error(text, start, f"expected a term, found {kind}")
            t = group.atoms[0]
            for a in group.atoms[1:]:
                t = App(t, a)
            for b in reversed(group.binders):
                t = Lam(b, t)
            if kind == "eof":
                return t
            stack[-1].atoms.append(t if group.label is None else Labeled(group.label, t))
        else:
            raise _error(text, start, f"unexpected {kind}")


# Printing contexts: TOP admits anything bare, OPER parenthesizes
# abstractions (operator position), ATOM parenthesizes abstractions and
# applications (argument position).
_TOP, _OPER, _ATOM = 0, 1, 2

# work item that ends the text of the node on top of PrintMemo.marks
_STORE = object()
_END = (_STORE, None)


class PrintMemo:
    """Printed text carried from one state of a trace to the next.

    Compound nodes map to their bare text (the parent adds parentheses),
    matched by identity; frames keep their pieces in a ``StackPrinter``.
    cur holds the entries the state being printed used or stored, prev
    those of earlier states.  A node that hits is looked up, not walked,
    so the nodes inside it are not used again; they stay in prev, and a
    later state that moves one of them elsewhere still finds its text.
    ``next_state`` adds cur to prev while prev holds at most 1024 entries;
    past that, prev keeps only the state just printed, so the memo holds
    at most about one large state's text.
    """

    __slots__ = ("prev", "cur", "marks")

    def __init__(self):
        self.prev: dict = {}
        self.cur: dict = {}
        self.marks: list = []  # node and start in out of each open _END

    def next_state(self) -> None:
        cur = self.cur
        if len(self.prev) <= 1024:
            self.prev.update(cur)
        else:
            self.prev = cur
        self.cur = {}


def print_term(t: Term, memo: PrintMemo | None = None) -> str:
    """Minimal-parenthesis text of t.  With a memo, a node printed for the
    previous state is emitted as its stored text."""
    return _print(t, _TOP, memo)


def _print(t: Term, level: int, memo: PrintMemo | None) -> str:
    out: list[str] = []
    work: list = [(t, level)]
    append, push, pop = out.append, work.append, work.pop
    if memo is not None:
        cur, prev, marks = memo.cur, memo.prev, memo.marks

    while work:
        item = pop()
        if item.__class__ is str:
            append(item)
            continue
        node, level = item
        kind = node.__class__
        if kind is Var:
            append(str(node.name))
            continue
        # with a memo, nodes whose children are all variables are printed,
        # not looked up: they print about as fast as a lookup
        if kind is App:
            if level > _OPER:
                append("(")
                push(")")
            leaf = node.fn.__class__ is Var and node.arg.__class__ is Var
        elif kind is Lam:
            if level > _TOP:
                append("(")
                push(")")
            leaf = node.body.__class__ is Var
        elif kind is Labeled:
            leaf = node.body.__class__ is Var
        elif node is _STORE:
            start = marks.pop()
            text = "".join(out[start:])
            del out[start:]
            append(text)
            cur[marks.pop()] = text
            continue
        elif node is HOLE:
            append("[]")
            continue
        else:
            raise TypeError(f"cannot print {node!r}")
        if memo is not None and not leaf:
            # a compound node's bare text, remembered from this state or an
            # earlier one; else mark where it starts, for _END to store it
            text = cur.get(node)
            if text is None:
                text = prev.get(node)
                if text is not None:
                    cur[node] = text
            if text is not None:
                append(text)
                continue
            marks.append(node)
            marks.append(len(out))
            push(_END)
        if kind is App:
            push((node.arg, _ATOM))
            push(" ")
            push((node.fn, _OPER))
        elif kind is Lam:
            append(f"\\{node.binder}.")
            push((node.body, _TOP))
        else:
            append(f"{node.label}:(")
            push(")")
            push((node.body, _TOP))
    return "".join(out)


def _frame_text(f, level: int, memo: PrintMemo | None):
    """(left, right, level of the hole) for one frame printed at level; the
    pieces depend on nothing else."""
    if isinstance(f, ArgF):
        paren = level > _OPER
        arg = _print(f.term, _ATOM, memo)
        piece = ("(" if paren else "", f" {arg})" if paren else f" {arg}", _OPER)
    elif isinstance(f, LamF):
        paren = level > _TOP
        piece = (("(" if paren else "") + f"\\{f.binder}.", ")" if paren else "", _TOP)
    else:  # BodF: the hole is the argument of between[\\x. inner[x]]
        operator = _operator_text(f, memo)
        paren = level > _OPER
        piece = (("(" if paren else "") + operator + " ", ")" if paren else "", _ATOM)
    return piece


def _operator_frames(f: BodF) -> Frames:
    """The frames of a BodF's operator between[\\x. inner[x]], outermost first."""
    return f.between[::-1] + (LamF(f.binder),) + f.inner[::-1]


def _operator_text(f: BodF, memo: PrintMemo | None) -> str:
    """A BodF's operator printed at the operator level, frame by frame from
    a work stack: a nested BodF's operator is pushed there, not printed by
    a recursive call, and argument terms print through the memo."""
    out: list[str] = []
    # (frames outermost first, index of the next one, its level, the hole's text)
    work: list = [(_operator_frames(f), 0, _OPER, str(f.binder))]
    append, push, pop = out.append, work.append, work.pop
    while work:
        item = pop()
        if item.__class__ is str:
            append(item)
            continue
        frames, i, level, hole = item
        if i == len(frames):
            append(hole)
            continue
        g = frames[i]
        if g.__class__ is BodF:
            if level > _OPER:
                append("(")
                push(")")
            push((frames, i + 1, _ATOM, hole))
            push(" ")
            push((_operator_frames(g), 0, _OPER, str(g.binder)))
        else:
            left, right, level = _frame_text(g, level, memo)
            append(left)
            push(right)
            push((frames, i + 1, level, hole))
    return "".join(out)


class StackPrinter:
    """Prints the states of one outermost-first frame stack that each step
    cuts and then grows at its top: need-sr's and af's driver stacks, ck's
    and ckh's frame tuples reversed.  A step pushes only new frame objects,
    even where a frame's content is kept, so the frames below its lowest cut
    are the ones still the same object at the same depth, and they keep
    their pieces: a state prints the frames above that depth, found from the
    top down, the outermost at the top level.  text(frame, level, memo)
    gives a frame's (left, right, level of the hole) pieces.
    """

    __slots__ = ("memo", "text", "frames", "lefts", "rights", "levels")

    def __init__(self, memo: PrintMemo | None = None, text=_frame_text):
        self.memo = memo
        self.text = text
        self.frames: list = []
        self.lefts: list[str] = []
        self.rights: list[str] = []
        self.levels = [_TOP]  # the level each frame is printed at, then the hole's

    def context(self, stack) -> tuple[str, str, int]:
        """The stack's left pieces outermost first, its right pieces
        innermost first, and the level of the hole."""
        frames, lefts, rights, levels = self.frames, self.lefts, self.rights, self.levels
        kept = min(len(frames), len(stack))
        while kept and stack[kept - 1] is not frames[kept - 1]:
            kept -= 1
        del frames[kept:], lefts[kept:], rights[kept:], levels[kept + 1 :]
        level = levels[kept]
        for f in stack[kept:]:
            left, right, level = self.text(f, level, self.memo)
            frames.append(f)
            lefts.append(left)
            rights.append(right)
            levels.append(level)
        return "".join(lefts), "".join(reversed(rights)), level

    def __call__(self, stack, t: Term) -> str:
        left, right, level = self.context(stack)
        return left + _print(t, level, self.memo) + right
