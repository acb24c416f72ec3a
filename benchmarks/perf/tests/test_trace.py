"""SpanRecorder arithmetic and wrapper installation / removal."""

import sys
import types

import pytest

from benchmarks.perf.layers import targets
from benchmarks.perf.trace import SpanRecorder, Target, install


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.begin("op")                 # 0 .. 10
    clock.now = 1.0
    rec.begin("a")                  # 1 .. 7
    clock.now = 2.0
    rec.begin("b")                  # 2 .. 5
    clock.now = 5.0
    rec.end()
    clock.now = 7.0
    rec.end()
    clock.now = 8.0
    rec.begin("b")                  # 8 .. 9
    clock.now = 9.0
    rec.end()
    clock.now = 10.0
    rec.end()
    times = rec.self_times()
    assert times == {"op": (3.0, 1), "a": (3.0, 1), "b": (4.0, 2)}
    assert sum(t for t, _ in times.values()) == rec.wall() == 10.0
    # one identifier per top-level operation, parents by index
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0]
    assert {s[4] for s in rec.spans} == {0}
    rec.begin("op")
    rec.end()
    assert rec.spans[-1][4] == 1


def test_reset_forgets_spans_and_counts_but_not_inside_a_span():
    rec = SpanRecorder(FakeClock())
    rec.add("x", 3)
    rec.begin("a")
    with pytest.raises(RuntimeError):
        rec.reset()
    rec.end()
    rec.reset()
    assert rec.spans == [] and rec.count("x") == 0


def _toy_package():
    """``toy.lib.f`` plus an aliased by-name import in ``toy.user``."""
    lib = types.ModuleType("toy.lib")
    exec("def f(x):\n    if x < 0:\n        raise ValueError(x)\n"
         "    return x + 1\n", lib.__dict__)
    user = types.ModuleType("toy.user")
    user.g = lib.f
    exec("def call(x):\n    return g(x)\n", user.__dict__)
    return lib, user


def test_install_rebinds_by_name_imports_and_remove_restores(monkeypatch):
    lib, user = _toy_package()
    monkeypatch.setitem(sys.modules, "toy.lib", lib)
    monkeypatch.setitem(sys.modules, "toy.user", user)
    original = lib.f
    rec = SpanRecorder()
    seen = []
    target = Target(lib, "f", "toy.f",
                    after=lambda r, a, k, res: seen.append(res),
                    failed=lambda r, a, k: r.add("toy.raised"))
    with install(rec, [target], package="toy"):
        assert lib.f is not original and user.g is lib.f
        assert user.call(1) == 2
        with pytest.raises(ValueError):
            user.call(-1)
    assert lib.f is original and user.g is original
    assert seen == [2] and rec.count("toy.raised") == 1
    assert [s[0] for s in rec.spans] == ["toy.f", "toy.f"]
    assert all(s[2] is not None for s in rec.spans)


def test_absorbed_span_is_billed_to_its_delegate():
    class Server:
        def one(self, x):
            return self.many([x])[0]

        def many(self, xs):
            return [x * 2 for x in xs]

    rec = SpanRecorder()
    with install(rec, [Target(Server, "one", "one"),
                       Target(Server, "many", "many", absorbed_by="one")]):
        assert Server().one(2) == 4
        assert Server().many([1, 2]) == [2, 4]
    assert [s[0] for s in rec.spans] == ["one", "many"]


def test_real_wrappers_leave_every_attribute_as_found():
    owners = {id(t.owner): t.owner for t in targets()}
    repro_modules = [m for name, m in sys.modules.items()
                     if name == "repro" or name.startswith("repro.")]
    everything = list(owners.values()) + repro_modules

    def snapshot():
        return [dict(vars(owner)) for owner in everything]

    before = snapshot()
    installed = install(SpanRecorder(), targets())
    during = snapshot()
    installed.remove()
    assert during != before
    after = snapshot()
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a)
               for a, b in zip(after, before))
