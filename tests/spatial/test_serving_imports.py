"""The serving import graph stops at the serving code: an allowlist.

``tests/spatial/test_import_fence.py`` denies the Section V tree
family and process pools by name.  This test pins the other side: a
fresh interpreter that imports the sharded server and the single
server loads exactly the ``repro`` modules listed here, and neither
``networkx`` nor ``scipy``.  A new module on the serving path is then
a one-line change to :data:`SERVING`, made in review; a new edge into
the evaluation, trace or utility code fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Every ``repro`` module ``import repro.shard.server, repro.core.server``
#: loads.
SERVING = frozenset({
    "repro", "repro._types",
    "repro.core", "repro.core.abstraction", "repro.core.cache",
    "repro.core.camera", "repro.core.flatsnap", "repro.core.fov",
    "repro.core.index", "repro.core.ingest", "repro.core.oracle",
    "repro.core.pipeline", "repro.core.quarantine", "repro.core.query",
    "repro.core.ranking", "repro.core.retrieval",
    "repro.core.segmentation", "repro.core.server",
    "repro.core.similarity", "repro.core.wal",
    "repro.geo", "repro.geo.coords", "repro.geo.earth",
    "repro.geometry", "repro.geometry.angles", "repro.geometry.polygon",
    "repro.geometry.sector", "repro.geometry.shapes",
    "repro.geometry.vec",
    "repro.net", "repro.net.channel", "repro.net.clock",
    "repro.net.protocol", "repro.net.traffic",
    "repro.obs", "repro.obs.journal", "repro.obs.metrics",
    "repro.obs.runtime", "repro.obs.trace",
    "repro.shard", "repro.shard.partition", "repro.shard.persist",
    "repro.shard.replica", "repro.shard.server",
    "repro.spatial", "repro.spatial.grid", "repro.spatial.linear",
    "repro.video", "repro.video.retrieval", "repro.video.scoring",
})

_SCRIPT = r"""
import json
import sys

import repro.core.server
import repro.shard.server

print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro.")
                        or m.split(".")[0] in ("networkx", "scipy"))))
"""


def test_the_servers_load_exactly_the_serving_modules():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not {m for m in loaded if not m.startswith("repro")}
    assert sorted(loaded - SERVING) == []
    assert sorted(SERVING - loaded) == []
