"""Read-only array fields for the frozen dataclasses."""


def freeze_fields(instance, **fields):
    """Set each field to a read-only copy; the caller's arrays stay writable."""
    for name, value in fields.items():
        value = value.copy()
        value.setflags(write=False)
        object.__setattr__(instance, name, value)
