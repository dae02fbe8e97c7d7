"""Concrete syntax: parser and minimal-parenthesis printer.

Grammar (UTF-8):

    term  ::= '\\' ident '.' term | app
    app   ::= atom+                      (left associative)
    atom  ::= ident | ident ':' '(' term ')' | '(' term ')'
    ident ::= [A-Za-z_][A-Za-z0-9_']*

A lambda body extends maximally to the right.  ``λ`` is a synonym for
``\\``.  ``--`` starts a comment running to end of line.  A bare ``%`` is
banned inside identifiers, but an identifier may carry a ``%N`` suffix
denoting a machine-minted name with generation index N; the printer emits
these for fresh names.  ``l:(t)`` is t under the sharing label l, as the
labeled semantics and the store machine's image print it.  Printed terms,
labeled ones included, always parse back.

Traces print one state after another, and consecutive states share most of
their nodes.  ``print_term`` and ``print_plugged`` take an optional
``PrintMemo`` that carries the printed text of recent states' compound
nodes, so that a state costs only what changed.  ``StackPrinter``, the one
frame-stack printer, prints the states of one stack that steps cut and
grow at the top, keeping each frame's piece with the frame.
"""
from __future__ import annotations

from .frames import ArgF, Frames, LamF
from .terms import HOLE, App, Labeled, Lam, Name, Term, Var

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, object, int, int]] = []
        self._run()

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _error(self, msg: str):
        raise ParseError(msg, self.line, self.col)

    def _run(self) -> None:
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c in " \t\r\n":
                self._advance()
                continue
            if c == "-" and text.startswith("--", self.pos):
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance()
                continue
            line, col = self.line, self.col
            if c in "\\λ":
                self.tokens.append(("lambda", None, line, col))
                self._advance()
            elif c == ".":
                self.tokens.append(("dot", None, line, col))
                self._advance()
            elif c == ":":
                self.tokens.append(("colon", None, line, col))
                self._advance()
            elif c == "(":
                self.tokens.append(("lparen", None, line, col))
                self._advance()
            elif c == ")":
                self.tokens.append(("rparen", None, line, col))
                self._advance()
            elif c == "[" and text.startswith("[]", self.pos):
                # the distinguished hole of a one-hole context; printed
                # contexts parse back, though holes never occur in programs
                self.tokens.append(("hole", None, line, col))
                self._advance(2)
            elif c in _IDENT_START:
                start = self.pos
                while self.pos < len(text) and text[self.pos] in _IDENT_CONT:
                    self._advance()
                base = text[start : self.pos]
                index = 0
                if self.pos < len(text) and text[self.pos] == "%":
                    self._advance()
                    dstart = self.pos
                    while self.pos < len(text) and text[self.pos].isdigit():
                        self._advance()
                    if dstart == self.pos:
                        self._error("expected digits after '%'")
                    index = int(text[dstart : self.pos])
                self.tokens.append(("ident", Name(base, index), line, col))
            else:
                self._error(f"unexpected character {c!r}")
        self.tokens.append(("eof", None, self.line, self.col))


class _Group:
    """One term-in-progress: leading binders, then application atoms."""

    __slots__ = ("binders", "atoms", "open_tok", "label")

    def __init__(self, open_tok=None, label: Name | None = None):
        self.binders: list[Name] = []
        self.atoms: list[Term] = []
        self.open_tok = open_tok  # the '(' token for paren groups, else None
        self.label = label  # the l of an l:(...) group

    def close(self, tok) -> Term:
        if not self.atoms:
            raise ParseError(f"expected a term, found {tok[0]}", tok[2], tok[3])
        t = self.atoms[0]
        for a in self.atoms[1:]:
            t = App(t, a)
        for b in reversed(self.binders):
            t = Lam(b, t)
        return t


def parse(text: str) -> Term:
    """Explicit-stack parser; machine output can nest thousands deep."""
    tokens = _Lexer(text).tokens
    at = 0
    stack = [_Group()]
    while True:
        kind, value, line, col = tokens[at]
        at += 1
        if kind == "lambda":
            if stack[-1].atoms:
                raise ParseError(
                    "an abstraction here must be parenthesized", line, col
                )
            name_tok = tokens[at]
            at += 1
            if name_tok[0] != "ident":
                raise ParseError(f"expected ident, found {name_tok[0]}", name_tok[2], name_tok[3])
            dot_tok = tokens[at]
            at += 1
            if dot_tok[0] != "dot":
                raise ParseError(f"expected dot, found {dot_tok[0]}", dot_tok[2], dot_tok[3])
            stack[-1].binders.append(name_tok[1])
        elif kind == "ident" and tokens[at][0] == "colon":
            paren_tok = tokens[at + 1]
            at += 2
            if paren_tok[0] != "lparen":
                raise ParseError(
                    f"expected lparen, found {paren_tok[0]}", paren_tok[2], paren_tok[3]
                )
            stack.append(_Group(paren_tok, value))
        elif kind == "ident":
            stack[-1].atoms.append(Var(value))
        elif kind == "hole":
            stack[-1].atoms.append(HOLE)
        elif kind == "lparen":
            stack.append(_Group((kind, value, line, col)))
        elif kind == "rparen":
            group = stack[-1]
            if group.open_tok is None:
                raise ParseError("unexpected trailing rparen", line, col)
            stack.pop()
            body = group.close((kind, value, line, col))
            stack[-1].atoms.append(body if group.label is None else Labeled(group.label, body))
        elif kind == "eof":
            group = stack[-1]
            if group.open_tok is not None:
                raise ParseError("unclosed parenthesis", line, col)
            return group.close((kind, value, line, col))
        else:
            raise ParseError(f"unexpected {kind}", line, col)


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


def print_plugged(frames: Frames, t: Term, memo: PrintMemo | None = None) -> str:
    """print_term(plug(frames, t), memo), printed frame by frame without
    building the plugged term."""
    return StackPrinter(memo)(frames[::-1], t)


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
        left, right, hole = StackPrinter(memo, _OPER).context(f.between[::-1])
        lam = f"\\{f.binder}." + print_plugged(f.inner, Var(f.binder), memo)
        operator = left + (f"({lam})" if hole > _TOP else lam) + right
        paren = level > _OPER
        piece = (("(" if paren else "") + operator + " ", ")" if paren else "", _ATOM)
    return piece


class StackPrinter:
    """Prints the states of one outermost-first frame stack that each step
    cuts and then grows at its top: need-sr's and af's driver stacks, ck's
    and ckh's frame tuples reversed.  A step pushes only frames the last
    state's stack did not hold, so the frames below its lowest cut are the
    ones that are still the same object at the same depth, and they keep
    their pieces: a state prints the frames above that depth, found from
    the top down.  level is the outermost frame's, and text(frame, level,
    memo) gives a frame's (left, right, level of the hole) pieces.
    """

    __slots__ = ("memo", "text", "frames", "lefts", "rights", "levels")

    def __init__(self, memo: PrintMemo | None = None, level: int = _TOP, text=_frame_text):
        self.memo = memo
        self.text = text
        self.frames: list = []
        self.lefts: list[str] = []
        self.rights: list[str] = []
        self.levels = [level]  # the level each frame is printed at, then the hole's

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
