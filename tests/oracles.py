"""Reference routines that only the tests use, kept out of the package."""


def form_on_elements(p, form, x, y):
    """Bilinear extension of a form given on basis pairs to two Lie maps."""
    return sum(ca * cb * form(p, a, b) for a, ca in x.items() for b, cb in y.items())
