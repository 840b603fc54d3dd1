"""A daemon's ``load`` rebuilds a shard's catalogs bitwise, in one batch."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.errors import SchemaError
from repro.geometry.rect import Rect
from repro.rpc import wire
from repro.rpc.shardd import ShardHost
from repro.uncertainty.catalog import DEFAULT_CATALOG_LEVELS, PAPER_CATALOG_LEVELS
from repro.uncertainty.pdf import TruncatedGaussianPdf, UniformPdf
from repro.uncertainty.region import PointObject, UncertainObject


def _objects(levels) -> list[UncertainObject]:
    rng = np.random.default_rng(12)
    objects = []
    for oid in range(60):
        x, y = rng.uniform(0.0, 1000.0, size=2)
        region = Rect(x, y, x + rng.uniform(5.0, 90.0), y + rng.uniform(5.0, 90.0))
        pdf = UniformPdf(region) if oid % 3 else TruncatedGaussianPdf(region)
        objects.append(UncertainObject(oid=oid, pdf=pdf).with_catalog(levels))
    return objects


def _load(host: ShardHost, objects, levels) -> None:
    header = wire.load_header("uncertain", 0, "pti", levels, EngineConfig(), objects)
    # Through JSON, as the framing ships it.
    reply, _ = host.handle(json.loads(json.dumps(header)), {})
    assert reply["op"] == "loaded" and reply["count"] == len(objects)


def _rect_bits(database) -> dict[int, bytes]:
    return {
        obj.oid: np.array([r.as_tuple() for r in obj.catalog.rects]).tobytes()
        for obj in database.objects
    }


@pytest.mark.parametrize(
    "object_levels, shard_levels",
    [
        (DEFAULT_CATALOG_LEVELS, DEFAULT_CATALOG_LEVELS),
        (PAPER_CATALOG_LEVELS, PAPER_CATALOG_LEVELS),
        # Catalogs built elsewhere at other levels keep their own levels.
        (PAPER_CATALOG_LEVELS, DEFAULT_CATALOG_LEVELS),
    ],
)
def test_loaded_catalogs_equal_the_shipped_ones(object_levels, shard_levels):
    objects = _objects(object_levels)
    host = ShardHost()
    _load(host, objects, shard_levels)
    database = host._shards[("uncertain", 0)].database
    assert all(obj.catalog.levels == tuple(object_levels) for obj in database.objects)
    assert _rect_bits(database) == {
        obj.oid: np.array([r.as_tuple() for r in obj.catalog.rects]).tobytes()
        for obj in objects
    }
    database.index.check_augmentation()
    snapshot = database.columnar()
    assert snapshot.catalog_bounds.tobytes() == np.array(
        [[r.as_tuple() for r in obj.catalog.rects] for obj in database.objects]
    ).tobytes()


def test_load_restores_the_collector():
    host = ShardHost()
    assert gc.isenabled()
    _load(host, _objects(DEFAULT_CATALOG_LEVELS), DEFAULT_CATALOG_LEVELS)
    assert gc.isenabled()


def test_point_payload_in_an_uncertain_shard_is_a_typed_error():
    header = wire.load_header(
        "uncertain",
        0,
        "pti",
        DEFAULT_CATALOG_LEVELS,
        EngineConfig(),
        [PointObject.at(1, 2.0, 3.0)],
    )
    with pytest.raises(SchemaError):
        ShardHost().handle(header, {})
