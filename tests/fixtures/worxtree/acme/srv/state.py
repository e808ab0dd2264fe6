"""Serving-side bridge: planted WORX201.

The fixture policy (see tests/test_worxlint.py) declares everything
behind ``server`` guarded by ``lock``.
"""


class ServingState:
    def __init__(self, server, lock):
        self.server = server
        self.lock = lock
        self.view = server.capture()

    def refresh(self):  # worx: holds lock
        self.view = self.server.capture()

    def stats(self):
        return self.server.engine.count()  # WORX201: guarded, no lock

    def history(self, host):
        with self.lock:
            return self.server.history.window(host)
