"""v1 codec that encodes the half-wired kind but cannot decode it."""

from repro.protocol.reports import ColumnBlock, to_block


def encode_reports(reports):
    block = to_block(reports)
    if block.kind == "sampled-numeric":
        return {"type": "sampled-numeric", "cols": list(block.columns["cols"])}
    if block.kind == "half-wired":
        return {"type": "half-wired", "items": list(block.columns["items"])}
    raise ValueError(f"unknown report block kind {block.kind}")


def decode_reports(payload):
    if payload["type"] == "sampled-numeric":
        cols = payload["cols"]
        return ColumnBlock("sampled-numeric", len(cols), {"cols": cols})
    raise ValueError(f"unknown report payload type {payload['type']}")
