"""The benchmark's tracer can still patch the package, and puts it back.

perfbench's tracer replaces module functions and class methods by name and
requires each name to be defined on its owner itself, not inherited.  A
rename, a move to a base class or an import dropped from a module would
otherwise fail only in traced benchmark runs.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} was not replaced"
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not put back"
    assert not tracer._saved
