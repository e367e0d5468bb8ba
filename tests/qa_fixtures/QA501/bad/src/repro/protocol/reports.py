"""Three report containers with codec gaps.

``OrphanReports`` never reaches the block converter at all;
``HalfWiredReports`` converts to a block kind the v1 decoder does not
know, so a v1 client cannot submit it.
"""


class ColumnBlock:  # carrier: the columnar wire form itself, exempt
    def __init__(self, kind="", n=0, columns=None):
        self.kind = kind
        self.n = n
        self.columns = columns or {}


class SampledNumericReports:
    def __init__(self, cols=(), values=()):
        self.cols = cols
        self.values = values


class OrphanReports:
    def __init__(self, blob=b""):
        self.blob = blob


class HalfWiredReports:
    def __init__(self, items=()):
        self.items = items


def to_block(reports):
    if isinstance(reports, SampledNumericReports):
        return ColumnBlock(
            kind="sampled-numeric",
            n=len(reports.cols),
            columns={"cols": reports.cols, "values": reports.values},
        )
    if isinstance(reports, HalfWiredReports):
        return ColumnBlock(
            kind="half-wired",
            n=len(reports.items),
            columns={"items": reports.items},
        )
    raise ValueError(f"cannot encode report container {type(reports)}")
