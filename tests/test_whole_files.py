"""Every artifact ensteal writes lands whole or not at all.

A fault is injected at one write at a time: the file opened for writing
stores half of what is written to it, then the write raises ENOSPC. After
the fault every file present must load with its own reader, a target that
existed before must keep its bytes, no `*.tmp` file may remain, and a run's
report.json must exist only after the run succeeded. A process killed in the
middle of a write may leave a `*.tmp` file, and nothing else that is torn.
"""

import builtins
import errno
import json
import os
import re
import signal
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import assert_lf_text
from ensteal import datapool, harness, netvictim, numkit
from ensteal.cli import main
from ensteal.config import RemoteSection, parse_config
from ensteal.datapool import GaussianMixture, load_dataset, make_synthetic, save_dataset
from ensteal.ensemble import load_ensemble
from ensteal.errors import InvalidInputError, StageError
from ensteal.numkit import load_model

pytestmark = pytest.mark.dev

class _HalfWrite:
    """A file handle whose write stores half of its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FaultyDisk:
    """`open` as ensteal.datapool and ensteal.numkit see it. It records the
    path of every file opened for writing; the fail_at-th of them (counted
    from 1, 0 for none) gets a handle whose write stores half and fails."""

    def __init__(self):
        self.fail_at = 0
        self.written: list[str] = []

    def __call__(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if not set(mode) & set("wax+"):
            return fh
        self.written.append(os.fspath(file))
        return _HalfWrite(fh) if len(self.written) == self.fail_at else fh

    def targets(self) -> list[str]:
        """The files written, under their final names."""
        return [p.removesuffix(".tmp") for p in self.written]


@pytest.fixture
def disk(monkeypatch):
    faulty = FaultyDisk()
    for module in (datapool, numkit):
        monkeypatch.setattr(module, "open", faulty, raising=False)
    return faulty


def files_under(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


def assert_whole(root, allow_tmp=False) -> None:
    """Every file under root loads with its own reader."""
    for p in sorted(Path(root).rglob("*")):
        if p.is_dir():
            continue
        if p.suffix == ".tmp":
            assert allow_tmp, p
        elif p.suffix == ".ckpt":
            load_model(p)
        elif p.suffix == ".aotd":
            load_dataset(p)
        elif p.suffix == ".json":
            json.loads(assert_lf_text(p))
        elif p.suffix == ".csv":
            header, *rows = assert_lf_text(p).split("\n")[:-1]
            assert all(row.count(",") == header.count(",") for row in rows), p
        elif p.name == "index.txt":
            load_ensemble(p.parent)
        elif p.name == "summary.txt":
            assert_lf_text(p)
        else:
            raise AssertionError(f"no reader for {p}")


def run_config(**extra) -> dict:
    """A small run with SSL, PGD and scores.csv on: 14 files."""
    raw = {
        "seed": 5,
        "victim": {
            "data": {"source": "gaussian_mixture", "classes": 3, "dim": 6, "separation": 4.0},
            "train_n": 600,
            "test_n": 200,
            "hidden_layers": [16, 16],
            "epochs": 25,
        },
        "attack": {
            "pool_n": 800,
            "budget": 120,
            "cycles": 3,
            "strategy": {"kind": "consensus_entropy"},
            "ensemble": {"hidden_profile": [[6], [10], [16, 16]], "epochs": 10},
        },
        "ssl": {"epochs": 2, "confidence_threshold": 0.6, "per_class_cap": 20},
        "adversarial": {"epsilon": 0.8, "steps": 5, "n_eval": 40},
        "outputs": {"scores_csv": True},
    }
    raw.update(extra)
    return raw


# ── run-attack ───────────────────────────────────────────────────────


def test_a_run_fails_whole_at_every_write(tmp_path, disk):
    cfg = parse_config(run_config())
    clean = tmp_path / "clean"
    harness.run_attack(cfg, clean)
    done = files_under(clean)
    # not vacuous: every artifact of the run went through the faulty open
    assert sorted(os.path.relpath(p, clean) for p in disk.targets()) == sorted(done)
    assert len(done) == 14
    for k in range(1, len(done) + 1):
        disk.fail_at, disk.written = k, []
        out = tmp_path / f"fail{k}"
        with pytest.raises(StageError) as err:
            harness.run_attack(cfg, out)
        assert getattr(err.value.cause, "errno", None) == errno.ENOSPC, k
        assert_whole(out)
        left = files_under(out)
        assert "report.json" not in left, k
        # the failure path rewrites these two; every other file is the clean run's
        for name in set(left) - {"curves.csv", "summary.txt"}:
            assert left[name] == done[name], (k, name)
        assert left["summary.txt"].startswith(b"run failed: stage "), k


def test_a_failed_config_echo_write_fails_its_own_stage(tmp_path, disk, monkeypatch):
    made = []
    real = harness.make_synthetic
    monkeypatch.setattr(harness, "make_synthetic", lambda *args: made.append(args) or real(*args))
    disk.fail_at = 1
    with pytest.raises(StageError) as err:
        harness.run_attack(parse_config(run_config()), tmp_path)
    assert err.value.stage == "config_echo" and err.value.cause.errno == errno.ENOSPC
    assert made == []  # nothing was made, trained or bought
    assert (tmp_path / "summary.txt").read_text().startswith("run failed: stage 'config_echo' failed: ")
    assert sorted(files_under(tmp_path)) == ["curves.csv", "summary.txt"]


# ── the CLI's writers ────────────────────────────────────────────────


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A labeled dataset, a victim checkpoint that fits it and a saved ensemble."""
    d = tmp_path_factory.mktemp("inputs")
    save_dataset(make_synthetic(GaussianMixture(3, 6, 4.0), 200, seed=1), d / "data.aotd")
    assert main(["train-victim", "--train", str(d / "data.aotd"), "--hidden", "8", "--epochs", "5",
                 "--out", str(d / "victim.ckpt")]) == 0
    raw = run_config()
    raw["victim"]["checkpoint"] = str(d / "victim.ckpt")
    for section in ("ssl", "adversarial", "outputs"):
        del raw[section]
    harness.run_attack(parse_config(raw), d / "run")
    return SimpleNamespace(data=d / "data.aotd", victim=d / "victim.ckpt", ensemble=d / "run" / "ensemble")


def serve_victim(inputs, argv: list[str], monkeypatch) -> int:
    """`serve-victim` in this process: at the first sleep of its loop a
    client buys 5 labels, then a Ctrl-C stops the server."""
    services = []

    class Recording(netvictim.VictimService):
        def __init__(self, *args):
            super().__init__(*args)
            services.append(self)

    def sleep(_):
        client = netvictim.RemoteVictimClient(RemoteSection(services[0].host, services[0].port))
        try:
            client.predict_batch(load_dataset(inputs.data).features[:5])
        finally:
            client.close()
        raise KeyboardInterrupt

    monkeypatch.setattr(netvictim, "VictimService", Recording)
    monkeypatch.setattr(netvictim, "time", SimpleNamespace(sleep=sleep))
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        return main(argv)
    finally:
        signal.signal(signal.SIGTERM, sigterm)


COMMANDS = {
    "gen-data": lambda i: ["gen-data", "--source", "gaussian_mixture", "--n", "50", "--seed", "2"],
    "train-victim": lambda i: ["train-victim", "--train", str(i.data), "--hidden", "4", "--epochs", "2"],
    "evaluate": lambda i: ["evaluate", "--ensemble", str(i.ensemble), "--victim", str(i.victim),
                           "--data", str(i.data)],
    "adv-transfer": lambda i: ["adv-transfer", "--source", str(i.victim), "--victim", str(i.victim),
                               "--data", str(i.data), "--epsilon", "0.5", "--steps", "2", "--n-eval", "20"],
    "serve-victim": lambda i: ["serve-victim", "--checkpoint", str(i.victim), "--budget", "10"],
}
OUT_FLAG = {"serve-victim": "--log-path"}
SUFFIX = {"gen-data": ".aotd", "train-victim": ".ckpt", "evaluate": ".json"}


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_cli_write_lands_whole_or_not_at_all(tmp_path, inputs, disk, monkeypatch, capsys, command, existed):
    target = tmp_path / ("out" + SUFFIX.get(command, ".csv"))
    argv = [*COMMANDS[command](inputs), OUT_FLAG.get(command, "--out"), str(target)]

    def run() -> int:
        return serve_victim(inputs, argv, monkeypatch) if command == "serve-victim" else main(argv)

    assert run() == 0
    assert disk.targets() == [str(target)]  # not vacuous: the one write went through the faulty open
    assert_whole(tmp_path)
    before = files_under(tmp_path)
    if not existed:
        target.unlink()
    capsys.readouterr()
    disk.fail_at, disk.written = 1, []
    assert run() == 1
    assert capsys.readouterr().err == f"error (OSError): [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert_whole(tmp_path)
    assert files_under(tmp_path) == (before if existed else {})


# ── a killed process ─────────────────────────────────────────────────

# Runs `ensteal run-attack`, killing itself with SIGKILL halfway through the
# write of the file named by the first argument.
KILL_MID_WRITE = """
import builtins, os, signal, sys
from ensteal import cli, datapool, numkit

name = sys.argv[1]

class Killing:
    def __init__(self, fh):
        self.fh = fh
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.fh.close()
    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

def killing_open(file, mode="r", *args, **kwargs):
    fh = builtins.open(file, mode, *args, **kwargs)
    if "w" in mode and os.path.basename(os.fspath(file)).startswith(name):
        return Killing(fh)
    return fh

datapool.open = numkit.open = killing_open
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("name", ["victim.ckpt", "report.json"])
def test_a_run_killed_mid_write_leaves_no_torn_artifact(tmp_path, name):
    config_path = tmp_path / "config.json"
    config_path.write_text(datapool.json_text(run_config()))
    out = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", KILL_MID_WRITE, name, "run-attack", "--config", str(config_path), "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert_whole(out, allow_tmp=True)
    assert not (out / "report.json").exists()
    assert not (out / name).exists()


# ── the writer's targets ─────────────────────────────────────────────


def test_a_write_through_a_symlink_lands_in_the_file_it_names(tmp_path, disk):
    # the writer used to replace the link itself with a new regular file
    real = tmp_path / "real.csv"
    real.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    datapool.write_text(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == b"new\n"
    # a dangling link: the file it names is made
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to(tmp_path / "made.csv")
    datapool.write_text(dangling, "made\n")
    assert dangling.is_symlink() and (tmp_path / "made.csv").read_bytes() == b"made\n"
    assert disk.written == [f"{os.path.realpath(p)}.tmp" for p in (real, tmp_path / "made.csv")]
    assert_whole(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling.csv", "link.csv", "made.csv", "real.csv"]


def test_a_write_keeps_an_existing_targets_permission_bits(tmp_path):
    # the writer used to leave the umask's mode on a replaced file
    old = tmp_path / "old.json"
    old.write_bytes(b"{}\n")
    old.chmod(0o640)
    datapool.write_text(old, '{"a": 1}\n')
    assert stat.S_IMODE(old.stat().st_mode) == 0o640 and old.read_bytes() == b'{"a": 1}\n'
    new = tmp_path / "new.json"
    datapool.write_text(new, "{}\n")  # a new file still gets the umask's mode
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert_whole(tmp_path)


def test_a_target_that_is_not_a_regular_file_is_refused_before_anything_is_written(tmp_path, monkeypatch):
    # the writer used to make path.tmp and replace whatever sat at path
    opened = []

    def refuse_open(file, mode="r", *args, **kwargs):
        opened.append(os.fspath(file))
        raise AssertionError(f"opened {file}")

    monkeypatch.setattr(datapool, "open", refuse_open, raising=False)
    (tmp_path / "adir").mkdir()
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "to_dir").symlink_to(tmp_path / "adir")
    for target in (tmp_path / "adir", tmp_path / "fifo", tmp_path / "to_dir", Path(os.devnull)):
        with pytest.raises(InvalidInputError, match=f"cannot write {re.escape(str(target))}: not a regular file"):
            datapool.write_bytes(target, b"x")
    assert opened == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "fifo", "to_dir"]
