"""Snapshot gaps: a missing method and a statistic state_dict drops."""


class ServerAccumulator:
    """Stand-in for the real abstract base."""


class LeakyAccumulator(ServerAccumulator):
    def __init__(self):
        self._total = 0.0
        self._hidden = 0

    def absorb_columns(self, block):
        self._total += block.column("array").sum()
        self._hidden += block.n
        return self

    def merge(self, other):
        self._total += other._total
        self._hidden += other._hidden
        return self

    def state_dict(self):
        return {"total": self._total}
