"""Event-driven retry of gated branches, and a numpy-free core.

A branch whose completion gate is closed (Appendix A.2's in-order and
store-ordered completion models) waits in ``_pending_branches``.  The
complete phase retries that list only on the cycle after an event that
can open a gate — a branch completing, a store resolving, a squash —
instead of polling it every cycle.  Skipping a retry is only sound when
the retry would have failed, so the event-driven machine must produce
exactly the statistics of one that retries every cycle.  The polling
reference is built from the public cycle-hook surface: a hook that
raises the gate event at the end of every cycle forces the next cycle's
full retry.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import CompletionModel, CoreConfig, Processor, ReconvPolicy
from repro.harness.experiments import load_bundle

WINDOW = 4096
MACHINES = {"BASE": ReconvPolicy.NONE, "CI": ReconvPolicy.POSTDOM}


@pytest.fixture(scope="module")
def bundle():
    # gcc at this scale has hundreds of recoveries per cell, so squashes
    # open gates often and every completion model keeps branches gated
    return load_bundle("gcc", 0.05)


def _force_retry(proc) -> None:
    proc._gate_event = True


def _run(bundle, config: CoreConfig, poll: bool):
    proc = Processor(bundle.program, config, bundle.golden, bundle.reconv)
    if poll:
        proc.add_cycle_hook(_force_retry)
    return proc.run()


def _assert_same(bundle, config: CoreConfig) -> None:
    event = _run(bundle, config, poll=False)
    polled = _run(bundle, config, poll=True)
    assert dataclasses.asdict(event) == dataclasses.asdict(polled)
    assert event.retired == len(bundle.golden)


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("model", list(CompletionModel), ids=lambda m: m.value)
def test_event_driven_retry_matches_polling(bundle, model, machine):
    config = CoreConfig(
        window_size=WINDOW, completion_model=model, reconv_policy=MACHINES[machine]
    )
    _assert_same(bundle, config)


def test_false_misprediction_oracle_matches_polling(bundle):
    """The oracle gates on window position, so it retries every cycle
    without the hook too; the hook must change nothing."""
    config = CoreConfig(
        window_size=WINDOW,
        completion_model=CompletionModel.SPEC,
        hide_false_mispredictions=True,
        reconv_policy=ReconvPolicy.POSTDOM,
    )
    _assert_same(bundle, config)


def test_gated_branches_are_not_retried_every_cycle(bundle):
    """The point of the change: on a store-gated CI cell the complete
    phase makes far fewer completion attempts than a per-cycle poll."""
    config = CoreConfig(
        window_size=WINDOW,
        completion_model=CompletionModel.NON_SPEC,
        reconv_policy=ReconvPolicy.POSTDOM,
    )
    counts = {}
    for poll in (False, True):
        proc = Processor(bundle.program, config, bundle.golden, bundle.reconv)
        original = proc._try_complete_branch
        calls = 0

        def counted(h, original=original):
            nonlocal calls
            calls += 1
            return original(h)

        proc._try_complete_branch = counted
        if poll:
            proc.add_cycle_hook(_force_retry)
        proc.run()
        counts[poll] = calls
    assert counts[False] * 2 < counts[True], counts


def test_simulating_a_cell_never_imports_numpy():
    """The core's columns are stdlib arrays at every window size: numpy
    must stay off the import path even at the widest window."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import repro\n"
        "from repro.core import CoreConfig, simulate_core\n"
        "from repro.harness.experiments import load_bundle\n"
        "bundle = load_bundle('compress', 0.02)\n"
        f"stats = simulate_core(bundle.program, CoreConfig(window_size={WINDOW}),"
        " bundle.golden, bundle.reconv)\n"
        "assert stats.retired == len(bundle.golden)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False", out.stdout + out.stderr
