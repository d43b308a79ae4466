"""RL004 clean: read-only inspection of the lifecycle books."""


def leak_count(book) -> int:
    pending = len(book._requests)
    copies = sorted(book._copy_of)
    return pending + len(copies)
