"""The bundled scenarios as the tests run them. The file `scenarios/NAME.json`
is the one definition of each; a variant is a bundled file with an overlay,
and the variants that tests share are built here, each derived value
written out."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from write_golden_digests import bundled  # noqa: E402


def pinned_same(streams: int):
    """`pinned_same` with `streams` flows, each offered 0.48 Gbps (40k pps of
    1500 B)."""
    return bundled("pinned_same", {"traffic": {"streams": streams, "link_gbps": 0.48 * streams}})


def migrating(name: str, streams: int):
    """`migrate_same` or `migrate_cross` with `streams` flows in the files'
    few-flows regime, which holds up to 200 streams: each flow is driven
    hard, 16,000 data packets in all but at least 60 a flow, so bursts
    straddle migrations. Above 200 streams the `_2000` files' regime holds."""
    assert streams <= 200, streams
    return bundled(name, {"traffic": {
        "streams": streams, "data_packets_per_stream": max(60, 16_000 // streams),
    }})
