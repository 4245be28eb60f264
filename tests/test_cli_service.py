"""CLI error-path contract: every ``repro.errors`` class maps to a distinct
nonzero exit code, and the service subcommands surface typed failures as
those codes (never tracebacks)."""

import json
import tempfile
import threading
from pathlib import Path

import pytest

from repro import errors
from repro.cli import EXIT_CODES, exit_code_for, main


class TestExitCodeTable:
    @pytest.mark.parametrize(
        "exc_type,code", sorted(EXIT_CODES.items(), key=lambda kv: kv[1]),
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_each_mapping(self, exc_type, code):
        assert exit_code_for(exc_type("boom")) == code

    def test_codes_distinct_and_nonzero(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        # 0 = success, 1 = generic failure, 2 = argparse usage error
        assert all(c not in (0, 1, 2) for c in codes)

    def test_subclass_inherits_parent_code(self):
        class Special(errors.Saturated):
            pass

        assert exit_code_for(Special("x")) == EXIT_CODES[errors.Saturated]

    def test_every_service_error_is_mapped(self):
        for exc_type in (errors.ServiceError, errors.Saturated,
                         errors.LeaseExpired, errors.CorruptLog,
                         errors.ProtocolError):
            assert exc_type in EXIT_CODES

    def test_unlisted_repro_error_falls_back(self):
        class Novel(errors.ReproError):
            pass

        assert exit_code_for(Novel("x")) == EXIT_CODES[errors.ReproError]


class TestServiceErrorPaths:
    def test_submit_without_spec_is_configuration_error(self, capsys):
        code = main(["submit", "--socket", "/nope"])
        assert code == EXIT_CODES[errors.ConfigurationError]
        err = capsys.readouterr().err
        assert err.startswith("error: [ConfigurationError]")
        assert "--spec" in err

    def test_submit_unreachable_socket_is_service_error(self, capsys):
        code = main(["submit", "--drug", "3", "--socket", "/nope/s",
                     "--timeout", "0.2"])
        assert code == EXIT_CODES[errors.ServiceError]
        assert "cannot reach server" in capsys.readouterr().err

    def test_campaign_status_unreachable_socket(self, capsys):
        code = main(["campaign-status", "--socket", "/nope/s",
                     "--timeout", "0.2"])
        assert code == EXIT_CODES[errors.ServiceError]
        assert "[ServiceError]" in capsys.readouterr().err

    def test_serve_corrupt_journal_is_journal_corrupt(self, tmp_path,
                                                      capsys):
        from repro.service.journal import Journal, segment_paths

        jdir = tmp_path / "journal"
        journal = Journal(jdir)
        for i in range(3):
            journal.append_commit("tick", i=i)
        journal.close()
        segment = segment_paths(jdir)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"garbage mid segment\n"
        segment.write_bytes(b"".join(lines))
        sock = Path(tempfile.mkdtemp(prefix="rsvc-")) / "s"
        code = main(["serve", "--drug", "2", "--journal", str(jdir),
                     "--socket", str(sock)])
        assert code == EXIT_CODES[errors.CorruptLog]
        assert "[CorruptLog]" in capsys.readouterr().err

    def test_serve_bad_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "campaign.json"
        bad.write_text(json.dumps({"name": "x", "jobs": [
            {"job_id": "a", "handler": "quadrature"},
            {"job_id": "a", "handler": "quadrature"},
        ]}))
        sock = Path(tempfile.mkdtemp(prefix="rsvc-")) / "s"
        code = main(["serve", "--spec", str(bad), "--journal",
                     str(tmp_path / "j"), "--socket", str(sock)])
        assert code == EXIT_CODES[errors.ConfigurationError]


class TestServiceRoundTrip:
    def test_serve_submit_work_status_via_cli(self, tmp_path, monkeypatch,
                                              capsys):
        """The full CLI surface end to end: serve, submit, work, status."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.service import drug_campaign

        spec = drug_campaign(3, seed=4)
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(spec.to_json())
        sock = Path(tempfile.mkdtemp(prefix="rsvc-")) / "s"
        jdir = tmp_path / "journal"

        server = threading.Thread(
            target=main,
            args=(["serve", "--spec", str(spec_path), "--journal",
                   str(jdir), "--socket", str(sock),
                   "--sweep-interval", "0.05"],),
            daemon=True,
        )
        server.start()
        from repro.service import ServiceClient

        client = ServiceClient(sock, session="cli-test")
        client.wait_ready(timeout_s=20.0)
        try:
            assert main(["submit", "--spec", str(spec_path), "--socket",
                         str(sock)]) == 0
            assert "already known" in capsys.readouterr().out

            assert main(["work", "--socket", str(sock), "--session", "w0",
                         "--max-jobs", "2"]) == 0
            assert "3 jobs completed" in capsys.readouterr().out

            assert main(["campaign-status", "--socket", str(sock),
                         "--results", "--json"]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["finished"] is True
            assert status["counts"]["done"] == 3
            assert sorted(status["results"]) == [
                "dock-0000", "dock-0001", "dock-0002",
            ]
        finally:
            client.drain()
            server.join(timeout=10)
        assert not server.is_alive()
