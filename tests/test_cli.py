"""Tests for the ``python -m repro`` command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("tables", "sweep", "hash", "run", "batch", "asm",
                        "dis", "faultcampaign"):
            args = {
                "tables": [],
                "sweep": [],
                "hash": ["sha3_256", "--string", "x"],
                "run": [],
                "batch": [],
                "asm": ["f.s"],
                "dis": ["f.hex"],
                "faultcampaign": [],
            }[command]
            parsed = parser.parse_args([command] + args)
            assert parsed.command == command

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_hash_needs_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hash", "sha3_256"])

    def test_main_parser_built_once_and_tracks_engines(self, capsys):
        from repro import cli
        from repro.sim import engines

        assert cli._parser() is cli._parser()
        engines.register(engines.EngineSpec(
            name="latecomer", caps=engines.EngineCaps(),
            runner=lambda proc, pre, mi, mc: proc._run_predecoded(
                pre, mi, mc),
            requires_predecode=True, priority=5))
        try:
            assert main(["hash", "sha3_256", "--string", "abc",
                         "--simulate", "--engine", "latecomer"]) == 0
            assert capsys.readouterr().out.strip() == \
                hashlib.sha3_256(b"abc").hexdigest()
        finally:
            engines.unregister("latecomer")
        with pytest.raises(SystemExit):
            main(["hash", "sha3_256", "--string", "abc",
                  "--engine", "latecomer"])


class TestHashCommand:
    def test_string_digest(self, capsys):
        assert main(["hash", "sha3_256", "--string", "abc"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == hashlib.sha3_256(b"abc").hexdigest()

    def test_file_digest(self, tmp_path, capsys):
        path = tmp_path / "data.bin"
        path.write_bytes(b"file contents")
        assert main(["hash", "sha3_512", "--file", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == hashlib.sha3_512(b"file contents").hexdigest()

    def test_shake_with_length(self, capsys):
        assert main(["hash", "shake_128", "--string", "s",
                     "--length", "16"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == hashlib.shake_128(b"s").hexdigest(16)

    def test_simulated_digest_matches(self, capsys):
        assert main(["hash", "sha3_256", "--string", "abc",
                     "--simulate"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == hashlib.sha3_256(b"abc").hexdigest()
        assert "simulated cycles" in captured.err

    def test_simulated_32bit(self, capsys):
        assert main(["hash", "sha3_256", "--string", "q", "--simulate",
                     "--elen", "32"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == hashlib.sha3_256(b"q").hexdigest()


class TestSimulatedHashReuse:
    """Repeat ``hash --simulate`` calls in one process share the default
    session (and one parser) but stay independent of each other."""

    # (algorithm, message bytes, --length, --elen, --lmul, --engine)
    CASES = [
        ("sha3_256", 300, None, 64, 8, "compiled"),
        ("shake_128", 20, 700, 64, 1, "predecoded"),
        ("sha3_256", 0, None, 32, 8, "stepped"),
        ("shake_128", 200, 64, 64, 8, "compiled"),
        ("sha3_256", 137, None, 64, 1, "compiled"),
        ("shake_128", 5, 400, 32, 8, "predecoded"),
        ("sha3_256", 300, None, 64, 8, "compiled"),
    ]

    @staticmethod
    def _one_run_cycles(elen, lmul, engine):
        from repro.keccak import KeccakState
        from repro.programs import build_program
        from repro.programs.session import Session

        program = build_program(elen, lmul, 5, include_memory_io=True)
        return Session().run(program, [KeccakState()],
                             engine=engine).stats.cycles

    def test_mixed_invocations_in_one_process(self, tmp_path, capsys):
        import re

        for index, (algorithm, size, length, elen, lmul, engine) in \
                enumerate(self.CASES):
            message = bytes((index * 31 + i) % 256 for i in range(size))
            path = tmp_path / f"m{index}.bin"
            path.write_bytes(message)
            argv = ["hash", algorithm, "--file", str(path), "--simulate",
                    "--elen", str(elen), "--lmul", str(lmul),
                    "--engine", engine]
            if length is None:
                expected = hashlib.sha3_256(message).hexdigest()
                rate, out_bytes = 136, 32
            else:
                argv += ["--length", str(length)]
                expected = hashlib.shake_128(message).hexdigest(length)
                rate, out_bytes = 168, length
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.out.strip() == expected
            counts = re.search(r"# (\d+) permutations, (\d+) simulated",
                               captured.err)
            perms, cycles = int(counts.group(1)), int(counts.group(2))
            assert perms == size // rate + 1 + (-(-out_bytes // rate) - 1)
            assert cycles == perms * self._one_run_cycles(elen, lmul, engine)
            # An unrelated command between the simulated ones.
            assert main(["run", "--elen", "64", "--lmul", "8"]) == 0
            capsys.readouterr()

    def test_permutations_count_separately_on_the_shared_session(self):
        from repro.keccak import KeccakState, keccak_f1600
        from repro.programs import SimulatedPermutation
        from repro.programs.session import default_session

        first = SimulatedPermutation(elen=64, lmul=8, elenum=5)
        second = SimulatedPermutation(elen=64, lmul=8, elenum=5,
                                      engine="stepped")
        assert first._session is second._session is default_session()
        assert first.program is second.program
        state = KeccakState(list(range(25)))
        assert first(state) == keccak_f1600(state)
        assert second(state) == keccak_f1600(state)
        assert first(state) == keccak_f1600(state)
        assert (first.call_count, second.call_count) == (2, 1)
        assert first.total_cycles == 2 * second.total_cycles > 0


class TestRunCommand:
    def test_default_run(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "functionally exact: True" in out
        assert "cycles/round:       75" in out

    def test_32bit_run(self, capsys):
        assert main(["run", "--elen", "32", "--elenum", "15",
                     "--states", "3"]) == 0
        out = capsys.readouterr().out
        assert "cycles/round:       147" in out


class TestBatchCommand:
    def test_batch_verify_serial(self, capsys):
        assert main(["batch", "--count", "8", "--size", "40",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "8 messages" in out
        assert "match hashlib" in out

    def test_batch_verify_two_workers(self, capsys):
        assert main(["batch", "--count", "12", "--size", "40",
                     "--workers", "2", "--chunk-size", "6",
                     "--verify"]) == 0
        assert "match hashlib" in capsys.readouterr().out

    def test_batch_shm_transport_verifies(self, capsys):
        from repro.parallel_exec import shm as _shm

        if not _shm.HAVE_SHM:
            pytest.skip("no multiprocessing.shared_memory")
        assert main(["batch", "--count", "12", "--size", "40",
                     "--workers", "2", "--engine", "reference",
                     "--transport", "shm", "--verify"]) == 0
        assert "match hashlib" in capsys.readouterr().out

    def test_batch_rejects_unknown_transport(self):
        with pytest.raises(SystemExit):
            main(["batch", "--transport", "carrier-pigeon"])

    def test_batch_prints_first_digest_without_verify(self, capsys):
        import hashlib as _hashlib
        import random

        assert main(["batch", "--count", "2", "--size", "10",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        expected = _hashlib.sha3_256(
            random.Random(7).randbytes(10)).hexdigest()
        assert out[-1] == expected


class TestAsmDisCommands:
    SOURCE = "li t0, 5\nloop:\naddi t0, t0, -1\nbnez t0, loop\necall\n"

    def test_asm_outputs_hex_words(self, tmp_path, capsys):
        src = tmp_path / "prog.s"
        src.write_text(self.SOURCE)
        assert main(["asm", str(src)]) == 0
        words = capsys.readouterr().out.split()
        assert len(words) == 4
        assert all(len(w) == 8 for w in words)

    def test_asm_listing(self, tmp_path, capsys):
        src = tmp_path / "prog.s"
        src.write_text(self.SOURCE)
        assert main(["asm", str(src), "--listing"]) == 0
        assert "bnez t0, loop" in capsys.readouterr().out

    def test_dis_round_trip(self, tmp_path, capsys):
        src = tmp_path / "prog.s"
        src.write_text(self.SOURCE)
        main(["asm", str(src)])
        hex_words = capsys.readouterr().out
        hexfile = tmp_path / "prog.hex"
        hexfile.write_text(hex_words)
        assert main(["dis", str(hexfile)]) == 0
        out = capsys.readouterr().out
        assert "addi t0, zero, 5" in out
        assert "ecall" in out


class TestSweepCommand:
    def test_sweep_runs(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep" in out
        assert "Pareto frontier" in out

    def test_sweep_no_fused(self, capsys):
        assert main(["sweep", "--no-fused"]) == 0
        assert "fused" not in capsys.readouterr().out


class TestMixCommand:
    def test_all_variants(self, capsys):
        assert main(["mix"]) == 0
        out = capsys.readouterr().out
        for name in ("keccak64_lmul1", "keccak64_lmul8", "keccak64_fused",
                     "keccak64_lmul41", "keccak32_lmul8"):
            assert name in out

    def test_single_variant(self, capsys):
        assert main(["mix", "--variant", "64-fused"]) == 0
        out = capsys.readouterr().out
        assert "keccak64_fused" in out
        assert "keccak64_lmul1" not in out


class TestFaultCampaignCommand:
    def test_small_campaign_exits_zero(self, capsys):
        assert main(["faultcampaign", "--faults", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fault campaign" in out
        assert "SILENT:         0" in out

    def test_variant_and_mode_filters(self, capsys):
        assert main(["faultcampaign", "--faults", "4", "--seed", "1",
                     "--variants", "64-lmul8", "--modes", "fused",
                     "--no-crosscheck"]) == 0
        assert "4 fault(s)" in capsys.readouterr().out


class TestErrorHandling:
    """Bad input must produce a one-line diagnostic and exit code 2."""

    def test_missing_input_file_exits_2(self, capsys):
        assert main(["hash", "sha3_256", "--file", "/nonexistent/x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_hex_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.hex"
        bad.write_text("nothex\n")
        assert main(["dis", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("repro: error:")

    def test_unreadable_asm_source_exits_2(self, capsys):
        assert main(["asm", "/nonexistent/prog.s"]) == 2
        assert capsys.readouterr().err.startswith("repro: error:")

    def test_unknown_campaign_variant_exits_2(self, capsys):
        assert main(["faultcampaign", "--faults", "1",
                     "--variants", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown variant" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_chunk_size_exits_2(self, capsys):
        assert main(["batch", "--count", "4", "--size", "10",
                     "--chunk-size", "0"]) == 2
        assert "chunk size" in capsys.readouterr().err


class TestIsaDocCommand:
    def test_stdout(self, capsys):
        assert main(["isa-doc"]) == 0
        out = capsys.readouterr().out
        assert "# Instruction set reference" in out
        assert "vpi.vi" in out

    def test_output_file(self, tmp_path):
        target = tmp_path / "isa.md"
        assert main(["isa-doc", "--output", str(target)]) == 0
        assert "vslidedownm.vi" in target.read_text()


class TestQuarantineReport:
    def test_clean_run_prints_pool_summary(self, capsys):
        assert main(["batch", "--count", "8", "--size", "32",
                     "--workers", "1", "--chunk-size", "4",
                     "--quarantine-report", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "no chunks quarantined" in out
        assert "all 8 digest(s) match hashlib (sha3_256)" in out

    def test_report_includes_pool_stats_line(self, capsys):
        assert main(["batch", "--count", "6", "--size", "24",
                     "--workers", "2", "--chunk-size", "2",
                     "--quarantine-report"]) == 0
        out = capsys.readouterr().out
        # The PoolStats summary rides along with the quarantine verdict.
        assert "3/3 chunk(s) completed" in out
        assert "no chunks quarantined" in out


class TestManifestVersionCli:
    def test_resume_with_alien_manifest_exits_2(self, tmp_path, capsys):
        import json
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"version": 99, "kind": "repro.batch_hash"}))
        assert main(["batch", "--count", "4", "--size", "16",
                     "--resume", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "version 99" in err
        assert len(err.strip().splitlines()) == 1  # no traceback


class TestServeLoadgenCli:
    def test_commands_registered(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--socket", "/tmp/x.sock"])
        assert serve.command == "serve"
        assert serve.workers == 0
        load = parser.parse_args(["loadgen", "--socket", "/tmp/x.sock",
                                  "--requests", "5"])
        assert load.command == "loadgen"
        assert load.requests == 5

    def test_serve_requires_an_endpoint(self, capsys):
        assert main(["serve"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "--socket" in err

    def test_loadgen_requires_an_endpoint(self, capsys):
        assert main(["loadgen"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_loadgen_against_nothing_fails_min_ok(self, capsys):
        assert main(["loadgen", "--socket", "/tmp/no-such-daemon.sock",
                     "--requests", "3", "--min-ok", "1"]) == 1
        captured = capsys.readouterr()
        assert "connection_error=3" in captured.out
        assert "expected at least 1" in captured.err
