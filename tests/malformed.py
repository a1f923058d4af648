"""Malformed copies of solver input arrays, for the tests of their checks."""

BAD = ["shape", float("nan"), float("inf")]


def malformed(arr, bad):
    """A copy of ``arr`` one leading row short for bad = "shape", or with its
    entry 3 set to the non-finite ``bad``; and the start of the FieldError
    text it gives for a field ``name``, to format."""
    if bad == "shape":
        return arr[:-1].copy(), "{name} shape"
    arr = arr.copy()
    arr.flat[3] = bad
    return arr, "non-finite values in {name}"
