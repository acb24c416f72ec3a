"""The static-analysis layer: fovlint engine, the RF rules, CLI.

Three tiers of coverage:

* unit -- each rule on minimal in-memory snippets (bad fires, good
  stays quiet), via :func:`repro.analysis.lint_source`;
* acceptance -- the seeded fixtures (``tests/fixtures/fovlint_bad.py``
  for the per-file rules RF001-RF008,
  ``tests/fixtures/fovlint_concurrency_bad.py`` for the whole-program
  rules RF009-RF013, ``tests/fixtures/fovlint_hotloop_bad.py`` for
  RF015) together trigger every rule, and the shipped ``src/repro``
  tree is clean;
* regression -- the concrete violations fixed when the linter first ran
  (``__all__`` drift in similarity/segmentation/rtree; the torn-read
  ``EventJournal.dropped``) stay fixed.

The cross-module phase gets its own sections: the ProjectModel and
lock fixpoint, each concurrency rule positive + negative, and a
self-check that fovlint runs clean over its own package.

mypy and ruff run in CI only; their config presence is asserted here,
their execution is skip-gated on availability.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.engine import axis_role, is_degree_name, name_tokens

REPO = Path(__file__).resolve().parents[1]
SRC_TREE = REPO / "src" / "repro"
BAD_FIXTURE = REPO / "tests" / "fixtures" / "fovlint_bad.py"
CONC_FIXTURE = REPO / "tests" / "fixtures" / "fovlint_concurrency_bad.py"
HOT_FIXTURE = REPO / "tests" / "fixtures" / "fovlint_hotloop_bad.py"


def rule_ids(violations) -> set[str]:
    return {v.rule_id for v in violations}


# ---------------------------------------------------------------------------
# name classification helpers


def test_name_tokens_split_on_underscores_and_digits():
    assert name_tokens("half_angle_rad") == ("half", "angle", "rad")
    assert name_tokens("theta2") == ("theta",)
    assert name_tokens("lat1_deg") == ("lat", "deg")


def test_degree_names():
    assert is_degree_name("theta")
    assert is_degree_name("azimuth_deg")
    assert is_degree_name("lat2")
    assert not is_degree_name("half_angle_rad")   # radians token wins
    assert not is_degree_name("distance")


def test_axis_roles():
    assert axis_role("lat") == "lat"
    assert axis_role("lngs") == "lng"
    assert axis_role("longitude") == "lng"
    assert axis_role("t") is None
    assert axis_role("lat_lng_pair") is None      # claims both -> unknown


# ---------------------------------------------------------------------------
# RF001: degrees into trig


def test_rf001_flags_raw_trig_on_degrees():
    vs = lint_source("import math\ny = math.sin(theta)\n", select=["RF001"])
    assert rule_ids(vs) == {"RF001"}


def test_rf001_accepts_explicit_radians():
    vs = lint_source(
        "import numpy as np\ny = np.sin(np.radians(theta))\n",
        select=["RF001"],
    )
    assert vs == []


def test_rf001_dataflow_clears_derived_radians():
    src = (
        "import numpy as np\n"
        "lat1 = np.radians(a)\n"
        "lat2 = np.radians(b)\n"
        "dlat = lat2 - lat1\n"
        "y = np.sin(dlat / 2.0)\n"
    )
    assert lint_source(src, select=["RF001"]) == []


def test_rf001_degrees_call_unclears():
    src = (
        "import numpy as np\n"
        "theta = np.radians(x)\n"
        "theta = np.degrees(theta)\n"
        "y = np.sin(theta)\n"
    )
    assert rule_ids(lint_source(src, select=["RF001"])) == {"RF001"}


def test_rf001_radian_suffixed_names_are_exempt():
    assert lint_source(
        "import math\ny = math.cos(half_angle_rad)\n", select=["RF001"]
    ) == []


# ---------------------------------------------------------------------------
# RF002: lat/lng argument order


def test_rf002_flags_swapped_positional_args():
    src = (
        "def project(lng, lat):\n"
        "    return lng, lat\n"
        "def use(my_lat, my_lng):\n"
        "    return project(my_lat, my_lng)\n"
    )
    vs = lint_source(src, select=["RF002"])
    assert len(vs) == 2 and rule_ids(vs) == {"RF002"}


def test_rf002_accepts_correct_order():
    src = (
        "def project(lng, lat):\n"
        "    return lng, lat\n"
        "def use(my_lat, my_lng):\n"
        "    return project(my_lng, my_lat)\n"
    )
    assert lint_source(src, select=["RF002"]) == []


def test_rf002_flags_keyword_mismatch():
    src = "def f(lat=None):\n    pass\nf(lat=point_lng)\n"
    assert rule_ids(lint_source(src, select=["RF002"])) == {"RF002"}


def test_rf002_skips_ambiguous_signatures():
    # Two same-named callees that disagree about slot roles: no guess.
    src = (
        "def g(lat, lng):\n    pass\n"
        "def use(my_lng):\n    return g(my_lng, 0.0)\n"
        "# fovlint: module=repro.other\n"
    )
    ambiguous = src + "def g(lng, lat):\n    pass\n"
    assert lint_source(ambiguous, select=["RF002"]) == []


# ---------------------------------------------------------------------------
# RF003: __all__ discipline (scoped to core/geometry/spatial)


def test_rf003_flags_missing_public_def():
    src = "__all__ = []\ndef shiny():\n    pass\n"
    assert rule_ids(lint_source(src, select=["RF003"])) == {"RF003"}


def test_rf003_flags_stale_entry():
    src = "__all__ = ['gone']\n"
    assert rule_ids(lint_source(src, select=["RF003"])) == {"RF003"}


def test_rf003_flags_private_export():
    src = "__all__ = ['_Node']\n_Node = 1\n"
    assert rule_ids(lint_source(src, select=["RF003"])) == {"RF003"}


def test_rf003_out_of_scope_module_is_exempt():
    src = "def shiny():\n    pass\n"
    assert lint_source(src, modname="repro.eval.figures",
                       select=["RF003"]) == []


def test_rf003_accepts_complete_all():
    src = "__all__ = ['shiny']\ndef shiny():\n    pass\n"
    assert lint_source(src, select=["RF003"]) == []


# ---------------------------------------------------------------------------
# RF004: mutable defaults


def test_rf004_flags_list_dict_set_defaults():
    src = "def f(a=[], b={}, c=set(), *, d=dict()):\n    pass\n"
    vs = lint_source(src, select=["RF004"])
    assert len(vs) == 4 and rule_ids(vs) == {"RF004"}


def test_rf004_accepts_none_sentinel():
    src = "def f(a=None, b=(), c=0.0):\n    pass\n"
    assert lint_source(src, select=["RF004"]) == []


# ---------------------------------------------------------------------------
# RF005: determinism of core/spatial


def test_rf005_flags_wall_clock_and_global_rng():
    src = (
        "import time, random\nimport numpy as np\n"
        "a = time.time()\n"
        "b = random.random()\n"
        "c = np.random.normal()\n"
    )
    assert len(lint_source(src, select=["RF005"])) == 3


def test_rf005_allows_seeded_rng():
    src = (
        "import random\nimport numpy as np\n"
        "rng = random.Random(7)\n"
        "g = np.random.default_rng(7)\n"
    )
    assert lint_source(src, select=["RF005"]) == []


def test_rf005_flags_duration_clocks():
    # perf_counter/monotonic are banned in core/spatial too: latency is
    # measured through an injected clock (repro.net.clock.default_timer).
    src = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "t1 = time.monotonic()\n"
    )
    vs = lint_source(src, select=["RF005"])
    assert len(vs) == 2 and rule_ids(vs) == {"RF005"}


def test_rf005_flags_from_time_imports():
    src = "from time import perf_counter, time\n"
    vs = lint_source(src, select=["RF005"])
    assert len(vs) == 2 and rule_ids(vs) == {"RF005"}


def test_rf005_allows_harmless_time_imports():
    src = "from time import sleep\n"
    assert lint_source(src, select=["RF005"]) == []


def test_rf005_out_of_scope_module_is_exempt():
    src = "import time\na = time.time()\nb = time.perf_counter()\n"
    assert lint_source(src, modname="repro.eval.bench",
                       select=["RF005"]) == []


# ---------------------------------------------------------------------------
# RF006: dual-form normalisation


_DUAL_DOC = (
    '    """Score.\n\n'
    "    Returns\n"
    "    -------\n"
    "    float or ndarray\n"
    '        The score.\n    """\n'
)


def test_rf006_flags_unnormalised_dual_form():
    src = "def f(x):\n" + _DUAL_DOC + "    return x * 2\n"
    assert rule_ids(lint_source(src, select=["RF006"])) == {"RF006"}


def test_rf006_accepts_as_float_helper():
    src = "def f(x):\n" + _DUAL_DOC + "    return _as_float(x * 2)\n"
    assert lint_source(src, select=["RF006"]) == []


def test_rf006_accepts_ndim_check():
    src = (
        "import numpy as np\n"
        "def f(x):\n" + _DUAL_DOC +
        "    out = x * 2\n"
        "    if np.ndim(x) == 0:\n"
        "        return float(out)\n"
        "    return out\n"
    )
    assert lint_source(src, select=["RF006"]) == []


def test_rf006_ignores_single_form_functions():
    src = 'def f(x):\n    """Double x and return the array."""\n    return x\n'
    assert lint_source(src, select=["RF006"]) == []


# ---------------------------------------------------------------------------
# RF007: bare struct.unpack on wire payloads


def test_rf007_flags_module_level_unpack_on_payload():
    src = (
        "import struct\n"
        "def parse(payload):\n"
        "    return struct.unpack('<I', payload[:4])\n"
    )
    assert rule_ids(lint_source(src, select=["RF007"])) == {"RF007"}


def test_rf007_flags_struct_instance_unpack_from():
    src = (
        "import struct\n"
        "_H = struct.Struct('<I')\n"
        "def parse(packet, off):\n"
        "    return _H.unpack_from(packet, off)\n"
    )
    assert rule_ids(lint_source(src, select=["RF007"])) == {"RF007"}


def test_rf007_ignores_non_payload_buffers():
    src = (
        "import struct\n"
        "def parse(blob):\n"
        "    return struct.unpack('<I', blob[:4])\n"
    )
    assert lint_source(src, select=["RF007"]) == []


def test_rf007_exempts_the_protocol_module():
    src = (
        "import struct\n"
        "def decode(payload):\n"
        "    return struct.unpack('<I', payload[:4])\n"
    )
    assert lint_source(src, modname="repro.net.protocol",
                       select=["RF007"]) == []


def test_rf007_scoped_to_repro_packages():
    src = (
        "import struct\n"
        "def parse(payload):\n"
        "    return struct.unpack('<I', payload[:4])\n"
    )
    assert lint_source(src, modname="thirdparty.io",
                       select=["RF007"]) == []


# ---------------------------------------------------------------------------
# RF008: literal metric/span names


def test_rf008_flags_fstring_name():
    src = "def f(reg, uid):\n    return reg.counter(f'per_user.{uid}')\n"
    assert rule_ids(lint_source(src, select=["RF008"])) == {"RF008"}


def test_rf008_flags_concatenated_name():
    src = "def f(reg, kind):\n    return reg.gauge('queue.' + kind)\n"
    assert rule_ids(lint_source(src, select=["RF008"])) == {"RF008"}


def test_rf008_flags_malformed_literal():
    # No dot namespace / not snake_case: flagged even though literal.
    src = "def f(reg):\n    return reg.counter('Requests')\n"
    assert rule_ids(lint_source(src, select=["RF008"])) == {"RF008"}


def test_rf008_flags_span_names_too():
    src = "def f(tr, q):\n    return tr.span(f'query.{q}')\n"
    assert rule_ids(lint_source(src, select=["RF008"])) == {"RF008"}


def test_rf008_accepts_literal_dotted_names():
    src = (
        "def f(reg, tr):\n"
        "    c = reg.counter('ingest.bundles', 'help', labelnames=('s',))\n"
        "    h = reg.histogram('span.duration_s')\n"
        "    with tr.span('server.query'):\n"
        "        pass\n"
    )
    assert lint_source(src, select=["RF008"]) == []


def test_rf008_ignores_forwarded_name_variables():
    # Helpers forwarding a `name` parameter (and np.histogram's array
    # first argument) are plain Names -- out of scope by design.
    src = (
        "import numpy as np\n"
        "def make(reg, name):\n"
        "    return reg.counter(name)\n"
        "def bins(data):\n"
        "    return np.histogram(data)\n"
    )
    assert lint_source(src, select=["RF008"]) == []


def test_rf008_scoped_to_repro_packages():
    src = "def f(reg, uid):\n    return reg.counter(f'u.{uid}')\n"
    assert lint_source(src, modname="thirdparty.metrics",
                       select=["RF008"]) == []


# ---------------------------------------------------------------------------
# the cross-module ProjectModel and lock fixpoint


def _model_for(source: str, modname: str = "repro.shard.snippet"):
    from repro.analysis.engine import ProjectInfo, parse_module
    from repro.analysis.model import build_model
    module = parse_module(Path("<snippet>.py"), source=source)
    module.modname = modname
    return build_model(ProjectInfo(modules=[module]))


_LOCKED_CLASS = (
    "import threading\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._items = []\n"
    "    def put(self, x):\n"
    "        with self._lock:\n"
    "            self._helper(x)\n"
    "    def _helper(self, x):\n"
    "        self._items.append(x)\n"
)


def test_model_detects_lock_fields_and_kinds():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self, n):\n"
        "        self._lock = threading.RLock()\n"
        "        self._locks = [threading.Lock() for _ in range(n)]\n"
        "        self._epoch = 0\n"
    )
    cls = _model_for(src).classes["repro.shard.snippet.S"]
    assert cls.lock_kinds == {"_lock": "RLock", "_locks": "Lock"}
    assert cls.epoch_attrs == {"_epoch"}
    assert cls.is_reentrant("_lock") and not cls.is_reentrant("_locks[*]")


def test_model_fixpoint_guarantees_private_helper_lock():
    cls = _model_for(_LOCKED_CLASS).classes["repro.shard.snippet.Box"]
    assert cls.methods["_helper"].guaranteed_locks == {"_lock"}
    # Public methods are reachable from outside: never guaranteed.
    assert cls.methods["put"].guaranteed_locks == frozenset()


def test_model_fixpoint_intersects_over_call_sites():
    # A helper called once under the lock and once without gets no
    # guarantee: the weakest caller wins.
    src = _LOCKED_CLASS + "    def bare(self, x):\n        self._helper(x)\n"
    cls = _model_for(src).classes["repro.shard.snippet.Box"]
    assert cls.methods["_helper"].guaranteed_locks == frozenset()


def test_model_canonicalises_indexed_lock_family():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self, n):\n"
        "        self._locks = [threading.Lock() for _ in range(n)]\n"
        "    def touch(self, i):\n"
        "        with self._locks[i]:\n"
        "            pass\n"
    )
    cls = _model_for(src).classes["repro.shard.snippet.S"]
    assert [a.lock for a in cls.methods["touch"].acquires] == ["_locks[*]"]


def test_model_is_built_once_per_project():
    from repro.analysis.engine import ProjectInfo, parse_module
    module = parse_module(Path("<snippet>.py"), source="x = 1\n")
    project = ProjectInfo(modules=[module])
    assert project.model() is project.model()


# ---------------------------------------------------------------------------
# RF009: cross-method lock discipline

_SNIPPET_MOD = "repro.shard.snippet"


def test_rf009_flags_unguarded_mutation_and_write():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []\n"
        "    def put(self, x):\n"
        "        with self._lock:\n"
        "            self._items.append(x)\n"
        "    def drop(self, x):\n"
        "        self._items.remove(x)\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF009"])
    assert rule_ids(vs) == {"RF009"} and len(vs) == 1
    assert vs[0].line == 10 and "mutation races" in vs[0].message


def test_rf009_flags_lock_free_read():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._n = self._n + 1\n"
        "    def peek(self):\n"
        "        return self._n\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF009"])
    assert len(vs) == 1 and "read lock-free" in vs[0].message


def test_rf009_accepts_fully_guarded_class():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []\n"
        "    def put(self, x):\n"
        "        with self._lock:\n"
        "            self._items.append(x)\n"
        "    def snapshot(self):\n"
        "        with self._lock:\n"
        "            return list(self._items)\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF009"]) == []


def test_rf009_private_helper_inherits_callers_lock():
    # The fixpoint proves _helper always runs under the lock, so its
    # mutation is not a violation (the ShardedCloudServer pattern).
    assert lint_source(_LOCKED_CLASS, modname=_SNIPPET_MOD,
                       select=["RF009"]) == []


def test_rf009_init_writes_are_exempt():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []\n"
        "        self._items.append(0)\n"
        "    def put(self, x):\n"
        "        with self._lock:\n"
        "            self._items.append(x)\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF009"]) == []


def test_rf009_lockless_class_is_out_of_scope():
    src = (
        "class S:\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "    def put(self, x):\n"
        "        self._items.append(x)\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF009"]) == []


def test_rf009_suppression_honored():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._n = self._n + 1\n"
        "    def peek(self):\n"
        "        # racy monitoring read, single atomic load\n"
        "        return self._n  # fovlint: disable=RF009\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF009"]) == []


# ---------------------------------------------------------------------------
# RF010: lock-order consistency


def test_rf010_flags_opposite_acquisition_orders():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def fwd(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def rev(self):\n"
        "        with self._b:\n"
        "            with self._a:\n"
        "                pass\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF010"])
    assert len(vs) == 1 and "lock-order cycle" in vs[0].message


def test_rf010_accepts_consistent_order():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def one(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def two(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF010"]) == []


def test_rf010_flags_nonreentrant_reacquire_via_helper():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def outer(self):\n"
        "        with self._lock:\n"
        "            self._inner()\n"
        "    def _inner(self):\n"
        "        with self._lock:\n"
        "            pass\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF010"])
    assert vs and any("self-deadlock" in v.message for v in vs)


def test_rf010_rlock_reacquire_is_fine():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.RLock()\n"
        "    def outer(self):\n"
        "        with self._lock:\n"
        "            self.inner()\n"
        "    def inner(self):\n"
        "        with self._lock:\n"
        "            pass\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF010"]) == []


def test_rf010_flags_intra_family_nesting():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self, n):\n"
        "        self._locks = [threading.Lock() for _ in range(n)]\n"
        "    def move(self, i, j):\n"
        "        with self._locks[i]:\n"
        "            with self._locks[j]:\n"
        "                pass\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF010"])
    assert len(vs) == 1 and "lock family" in vs[0].message


# ---------------------------------------------------------------------------
# RF011: epoch bump protocol

_EPOCH_HEAD = (
    "class Idx:\n"
    "    def __init__(self):\n"
    "        self._epoch = 0\n"
    "        self._records = []\n"
)


def test_rf011_flags_mutation_without_bump():
    src = _EPOCH_HEAD + (
        "    def insert(self, r):\n"
        "        self._records.append(r)\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF011"])
    assert len(vs) == 1 and "no path bumps" in vs[0].message


def test_rf011_flags_bump_inside_loop():
    src = _EPOCH_HEAD + (
        "    def insert_many(self, rs):\n"
        "        for r in rs:\n"
        "            self._records.append(r)\n"
        "            self._epoch += 1\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF011"])
    assert len(vs) == 1 and "inside a loop" in vs[0].message


def test_rf011_flags_double_bump():
    src = _EPOCH_HEAD + (
        "    def insert(self, r):\n"
        "        self._records.append(r)\n"
        "        self._epoch += 1\n"
        "        self._epoch += 1\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF011"])
    assert len(vs) == 1 and "2 times" in vs[0].message


def test_rf011_accepts_one_bump_per_batch():
    src = _EPOCH_HEAD + (
        "    def insert_many(self, rs):\n"
        "        for r in rs:\n"
        "            self._records.append(r)\n"
        "        if rs:\n"
        "            self._epoch += 1\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF011"]) == []


def test_rf011_private_helper_covered_by_bumping_callers():
    # The FoVIndex._log_mutation pattern: the helper mutates, every
    # caller bumps.
    src = _EPOCH_HEAD + (
        "    def insert(self, r):\n"
        "        self._log(r)\n"
        "        self._epoch += 1\n"
        "    def delete(self, r):\n"
        "        self._log(r)\n"
        "        self._epoch += 1\n"
        "    def _log(self, r):\n"
        "        self._records.append(r)\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF011"]) == []


def test_rf011_bump_via_callee_helper_counts():
    src = _EPOCH_HEAD + (
        "    def insert(self, r):\n"
        "        self._records.append(r)\n"
        "        self._advance()\n"
        "    def _advance(self):\n"
        "        self._epoch += 1\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF011"]) == []


def test_rf011_lazy_derived_view_needs_no_bump():
    # The FoVIndex.rtree()/packed_view() shape: mutators touch content
    # only; the derived view is (re)assigned inside its getter alone,
    # tagged with the content state it reflects, and caught up through
    # a local.  Rebinding a derived attribute is not a storage mutation.
    src = _EPOCH_HEAD + (
        "        self._view = None\n"
        "    def insert_many(self, rs):\n"
        "        self._records.extend(rs)\n"
        "        self._epoch += 1\n"
        "    def view(self):\n"
        "        view = self._view\n"
        "        if view is None:\n"
        "            view = (list(self._records), len(self._records))\n"
        "        else:\n"
        "            tree, count = view\n"
        "            tree.extend(self._records[count:])\n"
        "            view = (tree, len(self._records))\n"
        "        self._view = view\n"
        "        return view[0]\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF011"]) == []


def test_rf011_flags_getter_mutating_view_through_self():
    # The sloppy variant: the same catch-up written against the
    # attribute looks exactly like an unbumped content mutation.
    src = _EPOCH_HEAD + (
        "        self._tree = []\n"
        "        self._count = 0\n"
        "    def tree(self):\n"
        "        self._tree.extend(self._records[self._count:])\n"
        "        self._count = len(self._records)\n"
        "        return self._tree\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF011"])
    assert len(vs) == 1 and "'self._tree'" in vs[0].message


def test_rf011_epochless_class_is_out_of_scope():
    src = (
        "class S:\n"
        "    def __init__(self):\n"
        "        self._records = []\n"
        "    def insert(self, r):\n"
        "        self._records.append(r)\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF011"]) == []


# ---------------------------------------------------------------------------
# RF012: blocking call under a lock


def test_rf012_flags_sleep_under_lock():
    src = (
        "import threading, time\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def throttle(self):\n"
        "        with self._lock:\n"
        "            time.sleep(1)\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF012"])
    assert len(vs) == 1


def test_rf012_flags_blocking_in_guaranteed_helper():
    src = (
        "import threading, time\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def work(self):\n"
        "        with self._lock:\n"
        "            self._slow()\n"
        "    def _slow(self):\n"
        "        time.sleep(1)\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF012"])
    assert len(vs) == 1 and "_slow" in vs[0].message


def test_rf012_accepts_blocking_outside_lock():
    src = (
        "import threading, time\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def throttle(self):\n"
        "        time.sleep(1)\n"
        "        with self._lock:\n"
        "            pass\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF012"]) == []


def test_rf012_string_join_on_literal_is_not_blocking():
    src = (
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def render(self, parts):\n"
        "        with self._lock:\n"
        "            return ', '.join(parts)\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF012"]) == []


# ---------------------------------------------------------------------------
# RF013: instrument catalog drift


def test_rf013_flags_unknown_metric_name():
    src = "def f(reg):\n    return reg.counter('cache.hit')\n"
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF013"])
    assert len(vs) == 1 and "not declared" in vs[0].message


def test_rf013_flags_kind_drift():
    src = "def f(reg):\n    return reg.gauge('cache.hits')\n"
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF013"])
    assert len(vs) == 1 and "declared as a counter" in vs[0].message


def test_rf013_flags_unknown_span_name():
    src = "def f(tr):\n    with tr.span('query.warp'):\n        pass\n"
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF013"])
    assert len(vs) == 1 and "span name" in vs[0].message


def test_rf013_flags_duplicate_registration():
    src = (
        "def f(reg):\n"
        "    a = reg.counter('cache.hits')\n"
        "    b = reg.counter('cache.hits')\n"
        "    return a, b\n"
    )
    vs = lint_source(src, modname=_SNIPPET_MOD, select=["RF013"])
    assert len(vs) == 1 and vs[0].line == 3 and "already bound" in vs[0].message


def test_rf013_accepts_cataloged_names():
    src = (
        "def f(reg, tr):\n"
        "    c = reg.counter('cache.hits')\n"
        "    with tr.span('server.query'):\n"
        "        pass\n"
    )
    assert lint_source(src, modname=_SNIPPET_MOD, select=["RF013"]) == []


def test_rf013_dead_catalog_entry(tmp_path):
    catalog = tmp_path / "catalog.py"
    catalog.write_text(
        "# fovlint: module=repro.obs.catalog\n"
        "METRICS = {\n"
        "    'a.lives': ('counter', 'used'),\n"
        "    'a.dies': ('counter', 'nothing emits this'),\n"
        "}\n"
        "SPANS = {'s.lives': 'used'}\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text(
        "# fovlint: module=repro.obs.user\n"
        "def f(reg, tr):\n"
        "    c = reg.counter('a.lives')\n"
        "    with tr.span('s.lives'):\n"
        "        pass\n",
        encoding="utf-8",
    )
    report = lint_paths([catalog, user], select=["RF013"])
    assert len(report.violations) == 1
    v = report.violations[0]
    assert "a.dies" in v.message and v.path == str(catalog) and v.line == 4


def test_rf013_shipped_catalog_matches_tree():
    # Every instrument in src/repro is declared, alive, and kind-true.
    report = lint_paths([SRC_TREE], select=["RF013"])
    assert report.ok, "\n" + report.format()


# ---------------------------------------------------------------------------
# RF015: for-loops over packed columns on the hot path

_HOT_MOD = "repro.core.retrieval"


def test_rf015_flags_direct_column_iteration():
    src = "def f(view):\n    for v in view.lat:\n        print(v)\n"
    assert rule_ids(lint_source(src, modname=_HOT_MOD,
                                select=["RF015"])) == {"RF015"}


def test_rf015_flags_sliced_column_and_transparent_wrappers():
    src = (
        "def f(view, lo, hi):\n"
        "    for r in view.fused[lo:hi]:\n"
        "        pass\n"
        "    for i, t in enumerate(view.theta):\n"
        "        pass\n"
        "    for a, b in zip(view.lat, view.lng):\n"
        "        pass\n"
    )
    found = lint_source(src, modname=_HOT_MOD, select=["RF015"])
    assert len(found) == 3 and rule_ids(found) == {"RF015"}


def test_rf015_exempts_the_tolist_funnel():
    src = (
        "def f(view, ids):\n"
        "    for v in view.lat.tolist():\n"
        "        pass\n"
        "    for i in ids.tolist():\n"
        "        pass\n"
    )
    assert lint_source(src, modname=_HOT_MOD, select=["RF015"]) == []


def test_rf015_ignores_non_column_iterables():
    src = (
        "def f(queries, results):\n"
        "    for q in queries:\n"
        "        pass\n"
        "    for i in range(10):\n"
        "        pass\n"
    )
    assert lint_source(src, modname=_HOT_MOD, select=["RF015"]) == []


def test_rf015_scoped_to_hot_modules():
    src = "def f(view):\n    for v in view.lat:\n        pass\n"
    # Cold modules (persistence, traces, default snippet) may loop.
    assert lint_source(src, select=["RF015"]) == []
    assert lint_source(src, modname="repro.shard.persist",
                       select=["RF015"]) == []


# ---------------------------------------------------------------------------
# self-check: fovlint is clean over its own package


def test_fovlint_is_clean_over_itself():
    report = lint_paths([SRC_TREE / "analysis"])
    assert report.ok, "\n" + report.format()





def test_disable_pragma_suppresses_on_its_line():
    src = "import math\ny = math.sin(theta)  # fovlint: disable=RF001\n"
    assert lint_source(src, select=["RF001"]) == []


def test_disable_pragma_is_rule_specific():
    src = "import math\ny = math.sin(theta)  # fovlint: disable=RF005\n"
    assert rule_ids(lint_source(src, select=["RF001"])) == {"RF001"}


def test_module_pragma_must_start_the_line():
    # Mentioning the pragma inside prose/docstrings must not rebind the
    # module name (the engine's own docstring does exactly that).
    src = (
        '"""Docs say ``# fovlint: module=repro.core.x`` here."""\n'
        "import time\na = time.time()\n"
    )
    assert lint_source(src, modname="repro.eval.bench",
                       select=["RF005"]) == []


# ---------------------------------------------------------------------------
# acceptance: the seeded fixture and the shipped tree


def test_bad_fixture_triggers_every_per_file_rule():
    report = lint_paths([BAD_FIXTURE])
    assert not report.ok
    assert rule_ids(report.violations) == {
        "RF001", "RF002", "RF003", "RF004", "RF005", "RF006", "RF007",
        "RF008",
    }


def test_concurrency_fixture_triggers_every_whole_program_rule():
    report = lint_paths([CONC_FIXTURE])
    assert not report.ok
    assert rule_ids(report.violations) == {
        "RF009", "RF010", "RF011", "RF012", "RF013",
    }


def test_hotloop_fixture_triggers_rf015():
    report = lint_paths([HOT_FIXTURE])
    assert not report.ok
    found = [v for v in report.violations if v.rule_id == "RF015"]
    assert rule_ids(report.violations) == {"RF015"}
    assert len(found) == 3                 # the funnel loop stays quiet


def test_every_rule_has_a_seeded_fixture():
    from repro.analysis import all_rules
    fired = rule_ids(lint_paths([BAD_FIXTURE, CONC_FIXTURE,
                                 HOT_FIXTURE]).violations)
    assert fired == {r.rule_id for r in all_rules()}


def test_shipped_tree_is_clean():
    report = lint_paths([SRC_TREE])
    assert report.files_checked > 80
    assert report.violations == [], "\n" + report.format()


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        lint_paths([SRC_TREE], select=["RF999"])


# ---------------------------------------------------------------------------
# CLI and standalone shim


def test_cli_lint_exit_codes():
    from repro.cli import main
    assert main(["lint", str(SRC_TREE)]) == 0
    assert main(["lint", str(BAD_FIXTURE)]) == 1
    assert main(["lint", str(REPO / "no_such_dir")]) == 2


def test_cli_lint_select(capsys):
    from repro.cli import main
    assert main(["lint", str(BAD_FIXTURE), "--select", "RF004"]) == 1
    out = capsys.readouterr().out
    assert "RF004" in out and "RF001" not in out


def test_cli_json_format(capsys):
    from repro.cli import main
    assert main(["lint", str(CONC_FIXTURE), "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert {r["rule"] for r in rows} >= {"RF009", "RF013"}


def test_standalone_shim_runs_without_pythonpath():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "analysis" / "fovlint.py"),
         str(BAD_FIXTURE)],
        capture_output=True, text=True, cwd=REPO,
        env={"PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 1
    assert "RF001" in proc.stdout


# ---------------------------------------------------------------------------
# regression: the violations fixed when the linter first ran


def test_scalar_similarity_is_exported():
    # importlib: `import repro.core.similarity` resolves to the
    # same-named *function* re-exported by the package __init__.
    import importlib
    m = importlib.import_module("repro.core.similarity")
    assert "scalar_similarity" in m.__all__


def test_stream_segment_is_exported():
    import repro.core.segmentation as m
    assert "StreamSegment" in m.__all__


def test_rtree_all_has_no_private_names():
    import repro.spatial.rtree as m
    assert all(not name.startswith("_") for name in m.__all__)


def test_every_all_entry_resolves():
    # Cheap project-wide guard: run only RF003 over the shipped tree.
    report = lint_paths([SRC_TREE], select=["RF003"])
    assert report.ok, "\n" + report.format()


# ---------------------------------------------------------------------------
# external tools: config shipped always, execution gated on availability


def test_mypy_and_ruff_configured():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert "[tool.mypy]" in text and "strict = true" in text
    assert "[tool.ruff" in text


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(["ruff", "check", "src", "tools"],
                          capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_core():
    proc = subprocess.run(["mypy"], capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
