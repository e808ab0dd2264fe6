"""Application flows: one WORX103 violation."""


class Flow:
    def __init__(self, name):
        self.name = name


def peek(store):
    return store._hosts  # WORX103: foreign private state
