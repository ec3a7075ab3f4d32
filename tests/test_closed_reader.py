"""The value builder against the term path.

``normalize_closed``, ``decide_closed_eq``, ``sign_of_closed`` and
``meadows eval`` read a closed term straight to its value with
``terms._closed_value``.  ``eval_exact(parse(src), {}, session)`` is the
reference: on every source the reader must give the same value, print it
the same way and leave the session with the same tower, product table and
root memo, in the same order, also when two sources are read into one
session; and on an invalid or open source it must raise the same error, at
the same position.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.exact import Session
from meadows.simplify import normalize_closed, sign_of_closed
from meadows.terms import EvalError, ParseError, _closed_value, eval_exact, parse

# Exponents, among them the three spellings of a zero one, and spaces.
exponents = st.sampled_from(("1", "2", "3", "-1", "-2", "- 3", " 2") * 3 + ("0", "-0", "00"))
literals = st.one_of(
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 4)),  # n/0 among them
    st.builds("sqrt({})".format, st.integers(2, 7)),
)


def _compound(inner):
    return st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(("sqrt", "sqrt", "inv", "s", "")), inner),
        st.builds("-{}".format, inner),
        st.builds("({})^{}".format, inner, exponents),
        st.builds("sqrt({})^{}".format, inner, exponents),
    )


def sources(leaves):
    return st.recursive(
        st.one_of(leaves, st.builds("{}^{}".format, leaves, exponents)), _compound, max_leaves=10
    )


closed = sources(literals)
# Names, holes and syntax errors: as leaves, or spliced anywhere into a source.
FAULTS = ("x", "[]", "$", ")", "(", "*", "^", "^x", "sqrt", " y1 ", "2^10001", "/")
faulty = st.one_of(
    sources(st.one_of(literals, st.sampled_from(("x", "[]", "y1")))),
    st.builds(
        lambda src, fault, at: src[: at % (len(src) + 1)] + fault + src[at % (len(src) + 1) :],
        closed,
        st.sampled_from(FAULTS),
        st.integers(0, 200),
    ),
)


def term_path(src, session):
    return eval_exact(parse(src), {}, session)


def outcome(read, sources):
    """Each source's value and text, read in turn into one session, and the
    session's state; or the first error as (type, message, position)."""
    session = Session()
    try:
        values = [read(src, session) for src in sources]
    except (ParseError, EvalError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    state = session._radicands, session._products, list(session._roots.items())
    return [(v._num, v._den) for v in values], state, [str(v) for v in values]


@settings(max_examples=600, deadline=None)
@given(closed)
def test_a_closed_source_reads_as_the_term_path_evaluates_it(src):
    assert outcome(_closed_value, [src]) == outcome(term_path, [src])


@settings(max_examples=300, deadline=None)
@given(closed, closed)
def test_two_sources_read_into_one_session_as_the_term_path_reads_them(left, right):
    assert outcome(_closed_value, [left, right]) == outcome(term_path, [left, right])


@settings(max_examples=500, deadline=None)
@given(faulty, closed)
def test_names_holes_and_syntax_errors_raise_what_the_term_path_raises(src, other):
    assert outcome(_closed_value, [src]) == outcome(term_path, [src])
    assert outcome(_closed_value, [other, src]) == outcome(term_path, [other, src])


def test_a_zero_power_never_reads_its_base():
    # sqrt(6) read first would make sqrt(2) * sqrt(3) print as sqrt(6)
    assert normalize_closed("sqrt(6)^0 + sqrt(2)*sqrt(3)") == "1 + sqrt(2) * sqrt(3)"
    assert normalize_closed("sqrt(6)^-0 + sqrt(2)*sqrt(3)") == "1 + sqrt(2) * sqrt(3)"
    assert normalize_closed("x^0") == "1"
    assert sign_of_closed("[]^00") == 1
