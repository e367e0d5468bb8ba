"""v1 codec with an entry for every block kind to_block builds."""

from repro.protocol.reports import ColumnBlock, to_block


def encode_reports(reports):
    block = to_block(reports)
    if block.kind == "sampled-numeric":
        return {"type": "sampled-numeric", "cols": list(block.columns["cols"])}
    raise ValueError(f"unknown report block kind {block.kind}")


def decode_reports(payload):
    if payload["type"] == "sampled-numeric":
        cols = payload["cols"]
        return ColumnBlock("sampled-numeric", len(cols), {"cols": cols})
    raise ValueError(f"unknown report payload type {payload['type']}")
