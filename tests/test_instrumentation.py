"""The benchmark's span tracing must find every function it wraps.

``perfbench/tracing.py`` replaces program functions at named lookup
places; a rename in the program would otherwise break ``--trace 1``
without failing any test of the program itself.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_wraps_every_target_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    places = [(owner, attr) for owners, _, _ in tracing._targets() for owner, attr in owners]
    originals = [owner.__dict__[attr] for owner, attr in places]
    restore = tracing.instrument(tracing.Tracer(run_id="t"))
    try:
        for (owner, attr), original in zip(places, originals):
            wrapper = owner.__dict__[attr]
            assert wrapper is not original, f"{owner.__name__}.{attr} not wrapped"
            assert wrapper.__wrapped__ is original
    finally:
        restore()
    for (owner, attr), original in zip(places, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
