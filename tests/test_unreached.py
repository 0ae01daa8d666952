from unreached import unreached

SOURCE = '''"""Module docstring."""


@decorator
def f(x):
    """Function docstring."""
    if x:
        return 1
    return (
        2)


class C:
    """Class docstring."""
    y = 3
'''


def test_every_statement_but_docstrings_when_nothing_ran():
    assert unreached(SOURCE, set()) == [5, 7, 8, 9, 13, 15]


def test_a_statement_counts_when_any_line_it_spans_ran():
    # a decorator line runs the def; the last line of a two-line return ran
    assert unreached(SOURCE, {4, 7, 8, 10}) == [13, 15]
    # a line of a body counts for the statements around it
    assert unreached(SOURCE, {15}) == [5, 7, 8, 9]
