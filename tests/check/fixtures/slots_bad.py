"""Seeded violations for the slots rule (never imported)."""


class Loose:  # no __slots__
    def __init__(self, block):
        self.block = block


def handle_request(block):  # hot by name
    return Loose(block)


def access(blocks):  # hot by name; exercises the local-alias path
    cls = Loose
    return [cls(b) for b in blocks]


def _run_columnar_fast_opg(blocks):  # a fused loop, hot by name
    return [Loose(b) for b in blocks]
