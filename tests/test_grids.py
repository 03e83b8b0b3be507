"""``grids.run_parts``, the one way the library runs parts of a job on
threads: phases in order, part 0 on the calling thread, errors raised in
the caller, and every thread joined."""

import threading
import time

import pytest

from cilab.grids import run_parts


def _run(phases, parts):
    """run_parts(phases, parts) on a thread of the test, joined with a
    timeout, so that a part that never ends fails the test instead of
    hanging it.  Returns the calling thread, the thread count inside the
    call before any part ran, and the error raised or None."""
    out = {"error": None}

    def call():
        out["caller"] = threading.current_thread()
        out["threads"] = threading.active_count()
        try:
            run_parts(phases, parts)
        except Exception as error:
            out["error"] = error

    threads = threading.active_count()
    thread = threading.Thread(target=call)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert threading.active_count() == threads   # every part was joined
    return out["caller"], out["threads"], out["error"]


# more parts than the CPUs of a 2-CPU host, and the sleeps make the parts
# of a phase overlap and end in a different order in each phase
@pytest.mark.parametrize("parts", [2, 3, 4])
def test_every_part_of_a_phase_ends_before_the_next_phase(parts):
    events, lock = [], threading.Lock()

    def phase(i):
        def run(p):
            with lock:
                events.append(("start", i, p, threading.current_thread()))
            time.sleep(2e-3 * ((p + i) % parts))
            with lock:
                events.append(("end", i, p, threading.current_thread()))
        return run

    caller, _, error = _run([phase(i) for i in range(3)], parts)
    assert error is None
    for i in range(3):
        starts = [j for j, e in enumerate(events) if e[:2] == ("start", i)]
        ends = [j for j, e in enumerate(events) if e[:2] == ("end", i)]
        assert len(starts) == len(ends) == parts
        assert sorted(e[2] for e in events if e[:2] == ("end", i)) == list(
            range(parts))
        if i:
            assert max(last_ends) < min(starts)
        last_ends = ends
    # part 0 on the calling thread, the others on at most parts - 1 others
    assert {e[3] for e in events if e[2] == 0} == {caller}
    workers = {e[3] for e in events if e[2] > 0}
    assert caller not in workers and 1 <= len(workers) <= parts - 1


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("failing", [0, 1])
def test_error_of_a_part_reaches_the_caller(parts, failing):
    ended, later = [], []

    def first(p):
        if p == failing:
            raise FloatingPointError(f"in part {p}")
        time.sleep(0.01)
        ended.append(p)

    _, _, error = _run([first, later.append], parts)
    assert isinstance(error, FloatingPointError)
    assert str(error) == f"in part {failing}"
    # the other parts of the phase had ended, and no later phase ran
    assert sorted(ended) == [p for p in range(parts) if p != failing]
    assert later == []


def test_one_part_runs_on_the_calling_thread():
    seen = []

    def phase(p):
        seen.append((p, threading.current_thread(), threading.active_count()))

    caller, threads, error = _run([phase, phase, phase], 1)
    assert error is None
    assert seen == [(0, caller, threads)] * 3   # no thread was started
