"""Read-only array fields for the frozen dataclasses."""


def freeze_fields(instance, **fields):
    """Set each field to a read-only copy of its array, or to a tuple of such
    copies for a tuple of arrays; the caller's arrays stay writable."""

    def readonly(a):
        a = a.copy()
        a.setflags(write=False)
        return a

    for name, value in fields.items():
        value = tuple(map(readonly, value)) if isinstance(value, tuple) else readonly(value)
        object.__setattr__(instance, name, value)
