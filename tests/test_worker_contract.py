"""The fork runner's contract, tested once through its four entry points:
estimate_song and run_benchmark, which share the runner, and `pitchlab
estimate` and `pitchlab bench`, which call them. However a call ends, no
child and no pipe outlives it."""
import contextlib
import errno
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import pitchlab
from pitchlab.audio_io import read_wav
from pitchlab.cli import main
from pitchlab.errors import WorkerFailed
from pitchlab.estimators import REGISTRY, NoteMethod
from pitchlab.evaluation import estimate_song, materialize_songs, run_benchmark
from pitchlab.noise import NoiseRef, Scenario

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")

WHITE = {"white": NoiseRef(synth_kind="white", seed=1)}
SCENARIOS = [Scenario("white", 10.0)]


@pytest.fixture
def songs(tmp_path):
    """Two 8 kHz songs of 15 and 19 notes, each a .wav and a .notes file."""
    return materialize_songs(2, 31, tmp_path, sample_rate=8000)


@pytest.fixture
def forks(monkeypatch):
    """os.fork, os.pipe and yin's kernel, patched to record and misbehave.

    children: the pids forked, in order; fds: the ends of every pipe made.
    rank is 0 in the caller and k in its k-th child. plan maps a rank to what
    yin does there: "exit" at once, "sleep" 60 s, "fail" (raise) or
    "late_fail" (1 s, then raise); it estimates elsewhere. caller_notes
    counts its calls in the caller. fail = "os.fork" or "os.pipe" makes the
    second such call fail as it does out of processes or descriptors.
    """
    real_fork, real_pipe, yin = os.fork, os.pipe, REGISTRY["yin"].note_fn
    forks = SimpleNamespace(children=[], fds=[], rank=0, plan={}, caller_notes=0, fail=None)

    def fork():
        if forks.fail == "os.fork" and forks.children:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            forks.children.append(pid)
        else:
            forks.rank = len(forks.children) + 1
        return pid

    def pipe():
        if forks.fail == "os.pipe" and forks.fds:
            raise OSError(errno.EMFILE, "Too many open files")
        forks.fds.extend(real_pipe())
        return tuple(forks.fds[-2:])

    def kernel(analysis, cfg):
        if forks.rank == 0:
            forks.caller_notes += 1
        act = forks.plan.get(forks.rank)
        if act == "exit":
            os._exit(1)
        if act in ("sleep", "late_fail"):
            time.sleep(60 if act == "sleep" else 1)
        if act in ("fail", "late_fail"):
            raise ValueError(f"part {forks.rank} failed")
        return yin(analysis, cfg)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setitem(REGISTRY, "yin", NoteMethod(kernel))
    yield forks
    for pid in forks.children:  # what a failing test left, so that the next starts clean
        with contextlib.suppress(ChildProcessError):
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def assert_nothing_left(forks):
    """No child of this process is left, and every pipe end made is closed."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for fd in forks.fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def call(entry, songs, jobs):
    """estimate_song's rows for the first song, or run_benchmark's report on
    both songs, clean and under white noise at 10 dB, at jobs."""
    if entry == "estimate_song":
        song = songs[0]
        return estimate_song(read_wav(song.audio_path), song.notes, ["yin"], {}, jobs=jobs)
    return run_benchmark(songs, ["yin"], SCENARIOS, WHITE, jobs=jobs)


def cli_argv(command, songs, tmp_path, jobs):
    """argv for `pitchlab estimate` on the first song (its CPUs are whatever
    os.sched_getaffinity says) or `pitchlab bench --jobs` on both songs."""
    notes = [song.audio_path.replace(".wav", ".notes") for song in songs]
    if command == "estimate":
        return ["estimate", songs[0].audio_path, notes[0], "--method", "yin"]
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"songs": {"annotations": notes}, "methods": ["yin"],
                                  "snrs_db": [10], "out": str(tmp_path / "out")}))
    return ["bench", str(config), "--jobs", str(jobs)]


FAULTS = {  # fault: how the entry names it
    "child_exits": r"worker process \d+ exited with code 1 and no reply",
    "os.fork": r"os\.fork failed: .*Resource temporarily unavailable",
    "os.pipe": r"os\.pipe failed: .*Too many open files",
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("entry", ["estimate_song", "run_benchmark", "estimate", "bench"])
def test_a_worker_failure_is_reported_and_leaves_nothing(entry, fault, songs, forks, tmp_path,
                                                         monkeypatch, capsys):
    # at 3 jobs a child exits without a reply, or the second child's fork or
    # pipe fails once the first child runs. A function raises WorkerFailed; a
    # command exits 4 with one stderr line, no stdout and no results written
    if fault == "child_exits":
        forks.plan.update(dict.fromkeys(range(1, 4), "exit"))
    else:
        forks.fail = fault
    if entry in ("estimate_song", "run_benchmark"):
        with pytest.raises(WorkerFailed, match=FAULTS[fault]):
            call(entry, songs, 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        code = main(cli_argv(entry, songs, tmp_path, 3))
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert re.fullmatch(
            rf"error: an? \w+ worker process died or could not start: {FAULTS[fault]}\n", err)
        assert not (tmp_path / "out" / "results.csv").exists()
    assert forks.children and forks.fds
    assert_nothing_left(forks)


@pytest.mark.parametrize("entry, jobs, children, caller_notes", [
    ("estimate_song", 1, 0, 15),
    ("estimate_song", 2, 1, 7),
    ("estimate_song", 3, 2, 5),
    ("estimate_song", 4, 3, 3),
    ("estimate_song", 20, 14, 1),
    ("estimate_song", "no_fork", 0, 15),
    ("run_benchmark", 1, 0, 68),
    ("run_benchmark", 2, 2, 0),
    ("run_benchmark", 3, 3, 0),
    ("run_benchmark", 4, 4, 0),
    ("run_benchmark", 20, 4, 0),
    ("run_benchmark", "no_fork", 0, 68),
])
def test_the_children_a_call_forks(entry, jobs, children, caller_notes, songs, forks,
                                   monkeypatch):
    # estimate_song forks min(jobs, notes) - 1 children for 15 notes and
    # estimates the first run itself. run_benchmark has a clean and a white
    # task at jobs 2, and both over two runs of songs from jobs 3 on; it deals
    # them to min(jobs, tasks) children and scores none itself. Where the
    # platform cannot fork, the caller computes everything. Each gives the
    # serial result.
    serial = call(entry, songs, 1)
    forks.caller_notes = 0
    if jobs == "no_fork":
        monkeypatch.delattr(os, "fork")
        jobs = 3
    assert call(entry, songs, jobs) == serial
    assert (len(forks.children), forks.caller_notes) == (children, caller_notes)
    assert_nothing_left(forks)


ORDERS = {  # case: (what yin does at each rank, the part whose exception is raised)
    "worker_exits": ({1: "exit", 2: "sleep"}, None),  # None: WorkerFailed
    "later_worker_exits": ({1: "sleep", 2: "exit"}, None),
    "caller_fails": ({0: "fail", 1: "sleep", 2: "sleep"}, 0),
    "worker_fails": ({1: "fail", 2: "sleep"}, 1),
    "earlier_worker_fails_later": ({1: "late_fail", 2: "fail"}, 1),
}


@pytest.mark.parametrize("entry, case", [*(("estimate_song", case) for case in ORDERS),
                                         ("run_benchmark", "worker_exits"),
                                         ("run_benchmark", "later_worker_exits")])
def test_a_failure_is_raised_at_once_in_part_order(entry, case, songs, forks):
    # at 3 jobs: a dead child is reported while another sleeps, and a part's
    # exception once every part before it has returned, so it is the serial
    # one; a caller that waited for a sleeping child instead of killing it,
    # or read the pipes in order, would take a minute
    forks.plan, part = ORDERS[case]
    raised, match = ((WorkerFailed, FAULTS["child_exits"]) if part is None
                     else (ValueError, f"^part {part} failed$"))
    t0 = time.monotonic()
    with pytest.raises(raised, match=match):
        call(entry, songs, 3)
    assert time.monotonic() - t0 < 30
    assert_nothing_left(forks)


# Runs argv[2:] through cli.main at 2 CPUs; yin logs the pid of each child it
# runs in to argv[1], then sleeps there for a minute.
SLEEPING_CHILDREN = """
import os, sys, time
from pitchlab import cli
from pitchlab.estimators import REGISTRY, NoteMethod

caller, yin = os.getpid(), REGISTRY["yin"].note_fn

def sleeps_in_children(analysis, cfg):
    if os.getpid() != caller:
        with open(sys.argv[1], "a") as log:
            log.write(f"{os.getpid()}\\n")
        time.sleep(60)
    return yin(analysis, cfg)

REGISTRY["yin"] = NoteMethod(sleeps_in_children)
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[2:]))
"""


def alive(pids) -> list[int]:
    """The pids in pids that still name a process."""
    out = []
    for pid in pids:
        try:
            os.kill(pid, 0)
            out.append(pid)
        except ProcessLookupError:
            pass
    return out


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
@pytest.mark.parametrize("command, children", [("estimate", 1), ("bench", 2)])
def test_a_caller_killed_by_a_signal_takes_its_children(command, children, sig, songs,
                                                        tmp_path):
    # the caller dies of the signal, as it would by default, and its
    # sleeping children are gone within a few seconds, not a minute later
    log = tmp_path / "children"
    src = str(Path(pitchlab.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", SLEEPING_CHILDREN, str(log), *cli_argv(command, songs, tmp_path, 2)],
        env={"PYTHONPATH": src}, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < children:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
            pids = [int(pid) for pid in log.read_text().split()] if log.exists() else []
        proc.send_signal(sig)
        assert proc.wait(timeout=10) == -sig
        deadline = time.monotonic() + 5
        while alive(pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert alive(pids) == []
    finally:
        proc.kill()
        proc.wait()
        for pid in alive(pids):
            os.kill(pid, signal.SIGKILL)


def test_the_handlers_do_not_outlive_the_call(songs, tmp_path, monkeypatch, capsys):
    # perfbench calls cli.main in-process. SIGTERM is caught while estimate
    # runs at 2 CPUs and restored after; a SIGHUP ignored, as under nohup,
    # stays ignored throughout
    seen, yin = [], REGISTRY["yin"].note_fn

    def recording(analysis, cfg):
        seen.append((signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)))
        return yin(analysis, cfg)

    monkeypatch.setitem(REGISTRY, "yin", NoteMethod(recording))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    hup = signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        before = (signal.getsignal(signal.SIGTERM), signal.SIG_IGN)
        assert main(cli_argv("estimate", songs, tmp_path, 2)) == 0
        after = (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP))
    finally:
        signal.signal(signal.SIGHUP, hup)
    assert after == before
    assert {(callable(term), ignored) for term, ignored in seen} == {(True, signal.SIG_IGN)}


def test_estimate_song_forks_off_the_main_thread(songs, forks):
    # signal.signal works only on the main thread; the runner forks without it
    serial = call("estimate_song", songs, 1)
    rows = []
    thread = threading.Thread(target=lambda: rows.append(call("estimate_song", songs, 2)))
    thread.start()
    thread.join(timeout=60)
    assert rows == [serial] and len(forks.children) == 1
    assert_nothing_left(forks)
