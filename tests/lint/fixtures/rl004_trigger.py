"""RL004 trigger: lifecycle book mutations outside ``engine/book.py``."""


class Meddler:
    def reset(self, book) -> None:
        book._requests.clear()
        del book._copy_of[0]
        book._probes = {}
