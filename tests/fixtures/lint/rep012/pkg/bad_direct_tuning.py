"""REP012 bad fixture: direct mutation of summary tuning state."""


def shrink(tree):
    tree.k = 2  # REP012
    tree.min_level += 1  # REP012


def clobber(node, new_coeffs):
    node.coeffs = new_coeffs[:2]  # REP012


class FakeSwat:
    def __init__(self, k):
        self.k = int(k)  # constructors are legal

    def degrade(self):
        self.k = 1  # REP012 — mutation outside __init__
