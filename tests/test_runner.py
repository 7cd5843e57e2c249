"""Fault-isolated cell runner: retry, timeout, degradation, resume."""

import json

import pytest

from repro.errors import CellTimeout, CheckpointError, TransientError
from repro.harness.parallel import schedule_cells
from repro.harness.runner import (
    Cell,
    CellRunner,
    CheckpointStore,
    RunnerConfig,
    call_with_timeout,
    config_hash,
)


def make_runner(**kwargs):
    sleeps = []
    runner = CellRunner(RunnerConfig(**kwargs), sleep=sleeps.append)
    return runner, sleeps


def schedule(tmp_path, fns, **kwargs):
    """Run ``{cell: fn}`` in-process through the cell scheduler against
    ``tmp_path``'s checkpoint; returns the results in ``fns`` order."""
    results = schedule_cells(
        list(fns),
        lambda cell, prepared: fns[cell](),
        store=CheckpointStore(tmp_path / "ckpt.json"),
        policy=RunnerConfig(**kwargs),
    )
    return [results[cell.key] for cell in fns]


CELL = Cell(experiment="table1", workload="go", config_hash="abc123", scale=0.1)


class TestConfigHash:
    def test_stable_across_equal_dicts(self):
        a = config_hash({"window": 256, "policy": "postdom"})
        b = config_hash({"policy": "postdom", "window": 256})
        assert a == b

    def test_distinguishes_different_configs(self):
        from repro.core import CoreConfig

        assert config_hash(CoreConfig()) != config_hash(CoreConfig(window_size=128))

    def test_handles_enums_and_dataclasses(self):
        from repro.core import CoreConfig, ReconvPolicy

        h = config_hash({"cfg": CoreConfig(), "policy": ReconvPolicy.POSTDOM})
        assert isinstance(h, str) and len(h) == 12


class TestCanonicalCollisions:
    """Type-tagged canonicalization: distinct configs must hash apart."""

    def test_int_and_str_dict_keys_do_not_collide(self):
        assert config_hash({1: "x"}) != config_hash({"1": "x"})

    def test_enum_does_not_collide_with_its_rendered_name(self):
        from repro.core import ReconvPolicy

        assert config_hash(ReconvPolicy.POSTDOM) != config_hash(
            "ReconvPolicy.POSTDOM"
        )

    def test_dataclass_does_not_collide_with_equivalent_tuple(self):
        import dataclasses

        @dataclasses.dataclass
        class Knob:
            a: int = 1

        handwritten = ("dataclass", "Knob", (("a", 1),))
        assert config_hash(Knob()) != config_hash(handwritten)

    def test_set_does_not_collide_with_tuple_of_same_elements(self):
        assert config_hash({1, 2}) != config_hash((1, 2))

    def test_mixed_type_sets_hash_deterministically(self):
        assert config_hash({1, "1", 2.5}) == config_hash({2.5, 1, "1"})

    def test_mixed_type_dict_keys_hash_deterministically(self):
        assert config_hash({1: "a", "1": "b"}) == config_hash({"1": "b", 1: "a"})


class TestRetry:
    def test_transient_failure_retries_then_succeeds(self):
        runner, sleeps = make_runner(max_attempts=3, backoff_seconds=0.5)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("blip")
            return {"ipc": 1.5}

        result = runner.run_cell(CELL, flaky)
        assert result.ok and result.value == {"ipc": 1.5}
        assert result.attempts == 3 and len(calls) == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_permanent_failure_degrades_without_retry(self):
        runner, sleeps = make_runner(max_attempts=3)
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bad knob")

        result = runner.run_cell(CELL, broken)
        assert not result.ok and len(calls) == 1  # deterministic: one shot
        assert result.error_type == "ValueError" and "bad knob" in result.error
        assert result.as_row() == {
            "error": "bad knob", "error_type": "ValueError", "attempts": 1,
        }
        assert sleeps == []

    def test_transient_failure_exhausts_attempts_then_degrades(self):
        runner, _ = make_runner(max_attempts=2)

        def always_flaky():
            raise TransientError("still flaky")

        result = runner.run_cell(CELL, always_flaky)
        assert not result.ok
        assert result.error_type == "TransientError" and result.attempts == 2

    def test_run_cells_isolates_failures(self):
        runner, _ = make_runner(max_attempts=1)
        other = Cell("table1", "gcc", "abc123", 0.1)
        results = runner.run_cells(
            [(CELL, lambda: 1 / 0), (other, lambda: {"ipc": 2.0})]
        )
        assert [r.ok for r in results] == [False, True]
        assert results[1].value == {"ipc": 2.0}


class TestTimeout:
    def test_hung_cell_becomes_cell_timeout(self):
        def hang():
            while True:
                pass

        with pytest.raises(CellTimeout, match="wall-clock budget"):
            call_with_timeout(hang, 0.2)

    def test_timeout_is_retryable_then_degrades(self):
        runner, _ = make_runner(max_attempts=2, timeout_seconds=0.1)

        def hang():
            while True:
                pass

        result = runner.run_cell(CELL, hang)
        assert not result.ok
        assert result.error_type == "CellTimeout" and result.attempts == 2

    def test_no_timeout_means_plain_call(self):
        assert call_with_timeout(lambda: 42, None) == 42

    def _run_in_thread(self, fn):
        """Run fn on a worker thread, returning ('ok', value) or ('err', exc)."""
        import threading

        out = []

        def target():
            try:
                out.append(("ok", fn()))
            except BaseException as exc:
                out.append(("err", exc))

        t = threading.Thread(target=target)
        t.start()
        t.join(10)
        assert out, "worker thread did not finish"
        return out[0]

    def test_off_main_thread_timeout_is_enforced_not_a_crash(self):
        # Before the deadline fallback this raised ValueError from
        # signal.signal (or silently skipped the guard).
        def hang():
            while True:
                pass

        status, payload = self._run_in_thread(
            lambda: call_with_timeout(hang, 0.2)
        )
        assert status == "err" and isinstance(payload, CellTimeout)

    def test_off_main_thread_value_and_errors_propagate(self):
        status, payload = self._run_in_thread(
            lambda: call_with_timeout(lambda: 42, 5.0)
        )
        assert (status, payload) == ("ok", 42)

        def boom():
            raise ValueError("bad knob")

        status, payload = self._run_in_thread(
            lambda: call_with_timeout(boom, 5.0)
        )
        assert status == "err" and isinstance(payload, ValueError)

    def test_main_thread_value_error_is_not_swallowed(self):
        # The SIGALRM setup failure marker must not eat fn's ValueError.
        def boom():
            raise ValueError("from the cell itself")

        with pytest.raises(ValueError, match="from the cell itself"):
            call_with_timeout(boom, 5.0)


class TestDeadline:
    def test_unbounded_deadline_never_expires(self):
        from repro.harness.runner import Deadline

        d = Deadline.after(None)
        assert d.remaining() is None and not d.expired()
        d.check()  # no raise

    def test_expired_deadline_raises_cell_timeout(self):
        from repro.harness.runner import Deadline

        d = Deadline.after(0.001)
        import time

        time.sleep(0.01)
        assert d.expired()
        with pytest.raises(CellTimeout, match="wall-clock budget"):
            d.check()


class TestCheckpointResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        # First run: two cells complete, then the study "dies".
        done = Cell("table1", "go", "abc123", 0.1)
        also_done = Cell("table1", "gcc", "abc123", 0.1)
        pending = Cell("table1", "comp", "abc123", 0.1)
        first = schedule(
            tmp_path, {done: lambda: {"ipc": 1.0}, also_done: lambda: {"ipc": 2.0}}
        )
        assert all(result.ok for result in first)

        # Second run (fresh store = fresh process): finished cells are
        # served from the checkpoint without re-invoking their functions.
        def must_not_run():
            raise AssertionError("completed cell was re-simulated")

        r1, r2, r3 = schedule(
            tmp_path,
            {
                done: must_not_run,
                also_done: must_not_run,
                pending: lambda: {"ipc": 3.0},
            },
        )
        assert r1.resumed and r1.value == {"ipc": 1.0}
        assert r2.resumed and r2.value == {"ipc": 2.0}
        assert not r3.resumed and r3.value == {"ipc": 3.0}

    def test_failed_cells_are_not_checkpointed(self, tmp_path):
        (failed,) = schedule(tmp_path, {CELL: lambda: 1 / 0}, max_attempts=1)
        assert not failed.ok

        (result,) = schedule(tmp_path, {CELL: lambda: {"ipc": 9.0}})
        assert result.ok and not result.resumed  # actually re-ran

    def test_different_config_hash_is_a_different_cell(self, tmp_path):
        schedule(tmp_path, {CELL: lambda: {"ipc": 1.0}})
        other_cfg = Cell(CELL.experiment, CELL.workload, "ffff00", CELL.scale)
        (result,) = schedule(tmp_path, {other_cfg: lambda: {"ipc": 4.0}})
        assert not result.resumed and result.value == {"ipc": 4.0}

    def test_corrupt_checkpoint_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointStore(path)

    def test_wrong_version_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99, "results": {}}))
        with pytest.raises(CheckpointError, match="unexpected layout"):
            CheckpointStore(path)

    def test_non_serialisable_value_fails_at_record_time(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt.json")
        with pytest.raises(CheckpointError, match="non-JSON-serialisable"):
            store.record("k", {"bad": object()})


class TestRunStudy:
    def test_study_degrades_and_resumes(self, tmp_path):
        from repro.harness import run_study

        path = tmp_path / "study.json"
        first = run_study(
            experiments=["table1"], scale=0.02, names=("go",),
            checkpoint_path=path,
        )
        row = first["results"]["table1"]["go"]
        assert first["failures"] == [] and first["resumed"] == 0
        assert "error" not in row

        second = run_study(
            experiments=["table1"], scale=0.02, names=("go",),
            checkpoint_path=path,
        )
        assert second["resumed"] == 1
        assert second["results"]["table1"]["go"] == row

    def test_resumed_study_returns_the_fresh_rows(self, tmp_path):
        from repro.harness import run_study

        # int window keys (figure3/5) and tuples (figure10's curve points
        # and counts) must come back from the checkpoint as they went in
        kwargs = dict(
            experiments=["figure3", "figure5", "figure10"], scale=0.02,
            names=("go",), checkpoint_path=tmp_path / "study.json",
        )
        fresh = run_study(**kwargs)
        resumed = run_study(**kwargs)
        assert fresh["failures"] == [] and resumed["resumed"] == 3
        for experiment in kwargs["experiments"]:
            assert resumed["results"][experiment] == fresh["results"][experiment]

    def test_interrupted_in_process_study_keeps_finished_cells(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import experiments, run_study

        real_row = experiments.run_spec_row
        rows = []

        def interrupt_second_row(*args, **kwargs):
            rows.append(args[1])
            if len(rows) == 2:
                raise KeyboardInterrupt  # CellRunner does not catch it
            return real_row(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_spec_row", interrupt_second_row)
        path = tmp_path / "study.json"
        kwargs = dict(
            experiments=["table1"], scale=0.02, names=("go", "compress"),
            checkpoint_path=path, jobs=1,
        )
        with pytest.raises(KeyboardInterrupt):
            run_study(**kwargs)
        assert len(CheckpointStore(path)) == 1  # the first cell survived

        rows.clear()
        second = run_study(**kwargs)
        assert second["resumed"] == 1 and not second["failures"]
        assert rows == ["compress"]

    def test_unknown_experiment_rejected(self):
        from repro.errors import ConfigError
        from repro.harness import run_study

        with pytest.raises(ConfigError, match="figure99"):
            run_study(experiments=["figure99"], scale=0.02, names=("go",))
