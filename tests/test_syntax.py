import random

import pytest

from needlab import af, ck, ckh
from needlab.frames import ArgF, BodF, LamF, plug
from needlab.gen import gen_closed
from needlab.harness import MACHINE_TABLE, MACHINES, _CKHPrinter
from needlab.syntax import ParseError, PrintMemo, StackPrinter, parse, print_term
from needlab.terms import HOLE, App, Labeled, Lam, Name, NameSupply, Var, hygienize, term_eq


def test_parse_single_production():
    t = parse(r"\x.x")
    assert term_eq(t, Lam(Name("x"), Var(Name("x"))))


def test_parse_body_extends_right():
    t = parse(r"\x.x x")
    assert term_eq(t, Lam(Name("x"), App(Var(Name("x")), Var(Name("x")))))


def test_parse_left_associative():
    t = parse("f a b")
    assert term_eq(t, App(App(Var(Name("f")), Var(Name("a"))), Var(Name("b"))))


def test_parse_lambda_synonym_and_comments():
    t = parse("λx.x  -- identity\n")
    assert term_eq(t, parse(r"\x.x"))


def test_parse_fresh_name_suffix():
    t = parse("x%3")
    assert term_eq(t, Var(Name("x", 3)))
    with pytest.raises(ParseError):
        parse("x% y")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("(\\x.x")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse(r"\x x")
    with pytest.raises(ParseError):
        parse("x ?")


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("x ?", "unexpected character '?'", 1, 3),
        ("a\r\n\t?", "unexpected character '?'", 2, 2),  # CR and tab are one column each
        ("-x", "unexpected character '-'", 1, 1),
        ("x%²", "expected digits after '%'", 1, 3),  # ASCII digits only
        ("x%٣", "expected digits after '%'", 1, 3),
        ("f\n  x% y", "expected digits after '%'", 2, 5),
        ("x \\y.y", "an abstraction here must be parenthesized", 1, 3),
        ("\\.x", "expected ident, found dot", 1, 2),
        ("\\x x", "expected dot, found ident", 1, 4),
        ("\\x", "expected dot, found eof", 1, 3),
        ("x%1:\\y.y", "expected lparen, found lambda", 1, 5),
        ("x . y", "unexpected dot", 1, 3),
        ("x)\n", "unexpected trailing rparen", 1, 2),
        ("(\\x.x -- open\n", "unclosed parenthesis", 2, 1),
        ("(\\x.x -- a comment at the end", "unclosed parenthesis", 1, 30),
        ("", "expected a term, found eof", 1, 1),
        ("\t-- nothing else", "expected a term, found eof", 1, 17),
        ("l:()", "expected a term, found rparen", 1, 4),
    ],
)
def test_parse_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.line, e.value.col) == (f"{line}:{col}: {message}", line, col)


def test_print_minimal_parens():
    assert print_term(parse(r"\x.x x")) == r"\x.x x"
    assert print_term(parse("f a b")) == "f a b"
    assert print_term(parse(r"(\x.x) y")) == r"(\x.x) y"
    assert print_term(parse("x (y z)")) == "x (y z)"
    assert print_term(parse(r"x (\y.y)")) == r"x (\y.y)"


def test_round_trip():
    sources = [
        r"\x.x",
        r"\x.\y.x y (x y)",
        r"(\x.x x) ((\a.a) (\b.b))",
        "f (g h) ((a b) c)",
        r"\f.(\x.f (x x)) (\x.f (x x))",
        "x%3 (\\y%1.y%1)",
        r"\x'.x' x''",
    ]
    for src in sources:
        t = parse(src)
        assert term_eq(parse(print_term(t)), t)


def test_parse_labeled():
    t = parse(r"x%1:(\y.y) z%2:(w)")
    assert term_eq(
        t,
        App(
            Labeled(Name("x", 1), Lam(Name("y"), Var(Name("y")))),
            Labeled(Name("z", 2), Var(Name("w"))),
        ),
    )
    for src in [r"x%1:(y%2:(\z.z)) (\a.a%3:(a))", r"\v.f%4:(v v) q%5:(r%6:(s))"]:
        assert print_term(parse(src)) == src
    with pytest.raises(ParseError):
        parse(r"x%1:\y.y")
    with pytest.raises(ParseError):
        parse("x%1:(y")


def _machine_terms(machine, t, fuel):
    # the whole term of each state of one machine's run
    row = MACHINE_TABLE[machine]
    supply = NameSupply.for_term(t)
    state = row.inject(hygienize(t, supply))
    image = {
        "need-sr": af.build,
        "af": af.build,
        "af-mod": af.build,
        "ck": ck.build,
        "ckh": ckh.buildL,
    }.get(machine, lambda s: s)
    out = [image(state)]
    for rule, state in row.drive(state, supply):
        out.append(image(state))
        if rule is None or len(out) > fuel:
            return out
    return out


@pytest.mark.parametrize("machine", MACHINES)
def test_print_with_memo_matches_plain_print(machine):
    # consecutive states share nodes; the memo must print each state as a
    # fresh print does, also after it drops what a state did not use
    for i in range(40):
        memo = PrintMemo()
        for t in _machine_terms(machine, gen_closed(42 + i, 25), 300):
            assert print_term(t, memo) == print_term(t), (i, machine)
            assert print_term(t, memo) == print_term(t)  # now every node is a hit
            memo.next_state()


def _random_term(rng, depth):
    pick = rng.randrange(6 if depth else 2)
    if pick == 0:
        return Var(Name(rng.choice("xyz"), rng.randrange(3)))
    if pick == 1:
        return HOLE if depth and rng.random() < 0.1 else Var(Name("w"))
    if pick == 2:
        return Lam(Name(rng.choice("xyz")), _random_term(rng, depth - 1))
    if pick == 3:
        return Labeled(Name("l", rng.randrange(1, 4)), _random_term(rng, depth - 1))
    return App(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _random_frames(rng, n, depth):
    frames = []
    for _ in range(n):
        kind = rng.randrange(3 if depth else 2)
        if kind == 0:
            frames.append(ArgF(_random_term(rng, 3)))
        elif kind == 1:
            frames.append(LamF(Name(rng.choice("xyz"))))
        else:
            frames.append(
                BodF(
                    Name(rng.choice("xyz")),
                    tuple(_random_frames(rng, rng.randrange(4), depth - 1)),
                    tuple(_random_frames(rng, rng.randrange(4), depth - 1)),
                )
            )
    return frames


def test_print_plugged_matches_plugged_term():
    rng = random.Random(7)
    kinds = set()
    full_bodies = 0
    for _ in range(2000):
        frames = tuple(_random_frames(rng, rng.randrange(6), 2))
        t = rng.choice([HOLE, Var(Name("v")), _random_term(rng, 3)])
        kinds.add((type(frames[0]).__name__ if frames else None, type(t).__name__))
        full_bodies += any(isinstance(f, BodF) and f.inner and f.between for f in frames)
        assert StackPrinter()(frames[::-1], t) == print_term(plug(frames, t))
        # one memo, the same frames under outer frames that change their levels
        memo = PrintMemo()
        y = Name("y")
        for outer in ((), (ArgF(Var(y)),), (LamF(y),), (BodF(y, (), ()),), ()):
            expected = print_term(plug(frames + outer, t))
            assert StackPrinter(memo)((frames + outer)[::-1], t) == expected
            memo.next_state()
    # every frame kind around every kind of filler, hence every level
    fillers = {"_Hole", "Var", "Lam", "App", "Labeled"}
    assert {(k, f) for k in ("ArgF", "LamF", "BodF", None) for f in fillers} <= kinds
    assert full_bodies > 100


def test_print_plugged_takes_no_recursion_on_nested_demand_frames():
    # each BodF's operator holds the next one in its inner or its between
    # frames, 3,000 deep; the operators print from a work stack
    x, y = Name("x"), Name("y")
    f = BodF(x, (), ())
    for i in range(3000):
        f = BodF(x, (f, LamF(y)), ()) if i % 2 else BodF(y, (), (ArgF(Var(y)), f))
    frames = (f, ArgF(Var(x)))
    assert StackPrinter(PrintMemo())(frames[::-1], HOLE) == print_term(plug(frames, HOLE))


def _cut_and_push(rng, stack, push):
    # one step of a driver: cut the stack at a random depth, push new
    # frames; whether it cut below the last state's top and then grew
    depth = len(stack)
    cut = rng.randrange(depth + 1)
    del stack[cut:]
    stack += push(rng, rng.randrange(4))
    return cut < depth and len(stack) > cut


def _ckh_frames(rng, n):
    return [ArgF(_random_term(rng, 3)) if rng.random() < 0.5 else ckh.VarF(Name("v")) for _ in range(n)]


def test_stack_printer_matches_plugged_term():
    # each state of a stack that steps cut and grow prints as its plugged
    # term does; store-machine frames print as a fresh rendering does
    rng = random.Random(13)
    regrown = 0
    for _ in range(2000):
        memo = PrintMemo()
        printer, ckh_printer = StackPrinter(memo), _CKHPrinter(memo)
        stack, ckh_stack = [], []
        for _ in range(rng.randrange(1, 6)):
            regrown += _cut_and_push(rng, stack, lambda rng, n: _random_frames(rng, n, 2))
            regrown += _cut_and_push(rng, ckh_stack, _ckh_frames)
            t = rng.choice([HOLE, Var(Name("v")), _random_term(rng, 3)])
            assert printer(stack, t) == print_term(plug(tuple(reversed(stack)), t))
            state = ckh.CKHState(t, tuple(reversed(ckh_stack)), {})
            assert ckh_printer(state) == _CKHPrinter()(state)
            memo.next_state()
    assert regrown > 1000
