"""One report container, converted to a block the v1 codec knows."""


class ColumnBlock:  # carrier: the columnar wire form itself, exempt
    def __init__(self, kind="", n=0, columns=None):
        self.kind = kind
        self.n = n
        self.columns = columns or {}


class SampledNumericReports:
    def __init__(self, cols=(), values=()):
        self.cols = cols
        self.values = values


def to_block(reports):
    if isinstance(reports, ColumnBlock):
        return reports
    if isinstance(reports, SampledNumericReports):
        return ColumnBlock(
            kind="sampled-numeric",
            n=len(reports.cols),
            columns={"cols": reports.cols, "values": reports.values},
        )
    raise ValueError(f"cannot encode report container {type(reports)}")
