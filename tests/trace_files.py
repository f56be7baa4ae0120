"""Mobility traces for tests, read as a run reads its mobility file."""

import io

from linksim import traces
from linksim.traces import MOBILITY_HEADER


def read_mobility_text(data):
    """read_mobility of data, str or bytes, as an open binary file."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return traces.read_mobility(io.BytesIO(data), None)


def mobility_of(tracks):
    """The mobility trace of tracks, which maps each node to its waypoints,
    (t_us, x_m, y_m, z_m) rows; repr keeps each coordinate bit-exact."""
    return read_mobility_text(MOBILITY_HEADER + "\n" + "".join(
        f"{t_us},{node},{x!r},{y!r},{z!r}\n"
        for node, waypoints in tracks.items()
        for t_us, x, y, z in waypoints))
