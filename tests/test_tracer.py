"""Smoke test of the benchmark's span tracer (bench/tracer.py): it wraps
kanhydro functions by name, so renaming or deleting one of them must fail
here rather than in a traced benchmark run."""

import sys
from pathlib import Path

from kanhydro import (bspline, cli, harness, hydro, kan, metrics, optim,
                      symbolic)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracer import Tracer  # noqa: E402

MODULES = (bspline, cli, harness, hydro, kan, metrics, optim, symbolic)


def test_enter_and_exit_restore_every_wrapped_attribute():
    before = [dict(vars(m)) for m in MODULES]
    with Tracer():
        wrapped = {(m.__name__, name) for m, old in zip(MODULES, before)
                   for name, value in vars(m).items()
                   if value is not old.get(name)}
    assert ("kanhydro.kan", "snap_edge") in wrapped
    assert ("kanhydro.symbolic", "fit_affine_wrap") in wrapped
    for m, old in zip(MODULES, before):
        assert {k: v for k, v in vars(m).items() if v is not old.get(k)} == {}
