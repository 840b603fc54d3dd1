"""The engine-config codec checks its fields instead of coercing them.

A shard daemon decodes the parent's :class:`EngineConfig` on ``load`` and
``configure``.  A payload field of the wrong type must not turn into some
other configuration (``"false"`` is truthy, ``int(7.9)`` is 7): it raises
:class:`SchemaError`, as does a field this build does not have.  A value
``EngineConfig`` itself rejects raises its ``ConfigurationError``.  Both
are typed errors, so the daemon answers them in-band and keeps the
connection.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.core.engine import EngineConfig
from repro.core.errors import ConfigurationError, SchemaError
from repro.core.pruning import PruningStrategy
from repro.rpc import wire
from repro.rpc.launcher import LocalShardCluster
from repro.serve.framing import encode_frame, read_frame_from_socket

#: ``field -> value`` edits of a valid payload that the decoder used to coerce
#: (or reject with a bare ``ValueError``), each with the typed error it raises now.
MALFORMED = {
    "vectorized-string": ("vectorized", "false", SchemaError),
    "window-string": ("use_p_expanded_query", "no", SchemaError),
    "seed-float": ("rng_seed", 7.9, SchemaError),
    "seed-bool": ("rng_seed", True, SchemaError),
    "samples-bool": ("monte_carlo_samples", True, SchemaError),
    "samples-string": ("monte_carlo_samples", "250", SchemaError),
    "method-unknown": ("probability_method", "bogus", ConfigurationError),
    "method-not-a-string": ("probability_method", 1, SchemaError),
    "strategies-string": ("ciuq_strategies", "p_bound", SchemaError),
    "strategies-unknown": ("ciuq_strategies", ["p_bound", "bogus"], SchemaError),
    "strategies-not-strings": ("ciuq_strategies", [1], SchemaError),
    "removed-field": ("use_pti_pruning", True, SchemaError),
    "unknown-field": ("turbo", True, SchemaError),
}


def _payload(**edits) -> dict:
    config = EngineConfig(
        probability_method="monte_carlo",
        monte_carlo_samples=64,
        rng_seed=11,
        use_p_expanded_query=False,
        ciuq_strategies=(PruningStrategy.P_BOUND,),
        vectorized=False,
    )
    payload = json.loads(json.dumps(wire.config_to_dict(config)))
    payload.update(edits)
    return payload


def test_round_trip_is_exact():
    decoded = wire.config_from_dict(_payload())
    assert decoded.fingerprint() == wire.config_from_dict(_payload()).fingerprint()
    assert decoded.ciuq_strategies == (PruningStrategy.P_BOUND,)
    assert decoded.vectorized is False and decoded.use_p_expanded_query is False
    assert (decoded.rng_seed, decoded.monte_carlo_samples) == (11, 64)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_field_raises_a_typed_error(name):
    field, value, error = MALFORMED[name]
    with pytest.raises(error, match=field if error is SchemaError else "probability_method"):
        wire.config_from_dict(_payload(**{field: value}))


def test_daemon_answers_a_malformed_load_in_band_and_keeps_serving(small_points):
    with LocalShardCluster.spawn(1) as cluster:
        with socket.create_connection(cluster.addrs[0], timeout=60.0) as sock:

            def call(header: dict) -> dict:
                sock.sendall(encode_frame(header, {}))
                frame = read_frame_from_socket(sock)
                assert frame is not None, "the daemon dropped the connection"
                return frame[0]

            load = wire.load_header("points", 0, "rtree", None, EngineConfig(), small_points)
            malformed = json.loads(json.dumps(load))
            malformed["config"]["vectorized"] = "false"
            error = call(malformed)
            assert error["op"] == "error"
            assert error["error"]["code"] == SchemaError.wire_code
            assert call(load)["op"] == "loaded"
