"""The degree helpers agree with their element-wise definitions at every rank,
on the ranks `wadd` and `wsub` write out (1-3) and on the generic ones."""

from hypothesis import given, strategies as st

from quiverext.quiver import wadd, wneg, wsub

INTS = st.integers(min_value=-2 ** 70, max_value=2 ** 70) | st.sampled_from(
    [0, -1, 2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1])


@st.composite
def degree_pairs(draw):
    k = draw(st.integers(min_value=0, max_value=6))
    vectors = st.tuples(*[INTS] * k)
    return draw(vectors), draw(vectors)


@given(degree_pairs())
def test_helpers_are_elementwise(pair):
    a, b = pair
    for got, want in ((wadd(a, b), [x + y for x, y in zip(a, b)]),
                      (wsub(a, b), [x - y for x, y in zip(a, b)]),
                      (wneg(a), [-x for x in a])):
        assert type(got) is tuple
        assert list(got) == want
