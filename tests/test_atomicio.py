"""Tests for crash-safe writes — including the two-process cache race:
concurrent stores to the same key must each leave a complete, loadable
artifact behind (last rename wins, no torn entry ever visible)."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.atomicio import atomic_write_bytes, atomic_write_text, fsync_dir
from repro.exec.cache import ResultCache
from repro.segmentlog import decode_line


class TestAtomicWrite:
    def test_writes_and_returns_final_path(self, tmp_path):
        target = tmp_path / "out.bin"
        assert atomic_write_bytes(target, b"payload") == target
        assert target.read_bytes() == b"payload"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "deep")
        assert target.read_text() == "deep"

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_tmp_files_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        for i in range(5):
            atomic_write_text(target, f"v{i}")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_fsync_variant_also_lands(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "durable", fsync=True)
        assert target.read_text() == "durable"

    def test_fsync_dir_accepts_real_directory(self, tmp_path):
        fsync_dir(tmp_path)  # must not raise

    def test_tmp_name_carries_pid(self, tmp_path):
        # the scratch-file convention that keeps racing processes apart
        target = tmp_path / "x"
        tmp_name = f"x.tmp.{os.getpid()}"
        assert (tmp_path / tmp_name).name.endswith(str(os.getpid()))
        atomic_write_text(target, "v")
        assert not (tmp_path / tmp_name).exists()


_RACER = textwrap.dedent("""
    import sys
    from repro.exec.cache import ResultCache

    root, key, tag, n = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
    cache = ResultCache(root=root)
    for i in range(n):
        cache.store(key, {"writer": tag, "round": i})
    print("done", tag)
""")


class TestCacheRace:
    def test_two_processes_race_same_key(self, tmp_path):
        """Two writers hammer one cache key concurrently; every interleaving
        must leave a complete entry from one of them — never a torn read."""
        root = tmp_path / "cache"
        key = "ab" + "0" * 62
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.environ.get("PYTHONPATH", ""), "src"] if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACER, str(root), key, tag, "200"],
                env=env, cwd=os.getcwd(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for tag in ("alpha", "beta")
        ]
        outs = [p.communicate(timeout=60) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        cache = ResultCache(root=root)
        hit, value = cache.load(key)
        assert hit, "race left no complete artifact"
        assert value["writer"] in ("alpha", "beta")
        assert value["round"] == 199  # both writers finished all rounds
        # the entry on disk is complete and passes its checksum on its own
        raw = cache.path_for(key).read_bytes()
        assert decode_line(raw) == {"value": value}
        # no scratch files survive the race
        leftovers = [
            p for p in cache.path_for(key).parent.iterdir()
            if ".tmp." in p.name
        ]
        assert leftovers == []

    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        cache.store("cd" + "1" * 62, {"x": [1, 2, 3]})
        assert cache.load("cd" + "1" * 62) == (True, {"x": [1, 2, 3]})


class TestAtomicCallers:
    def test_benchmark_record_is_valid_json(self, tmp_path, monkeypatch):
        sys.path.insert(0, "benchmarks")
        try:
            from _record import record
        finally:
            sys.path.pop(0)
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        path = record("atomic-smoke", {"metric": 1.5})
        import json

        payload = json.loads(path.read_text())
        assert payload["name"] == "atomic-smoke"
        assert payload["scalars"] == {"metric": 1.5}
        assert not list(tmp_path.glob("*.tmp.*"))
