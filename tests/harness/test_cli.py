"""The ``ccdp`` command-line interface."""

import pytest

from repro.harness.cli import main


class TestInfo:
    def test_info_lists_workloads(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("mxm", "vpenta", "tomcatv", "swim"):
            assert name in out
        assert "machine defaults" in out


class TestCompile:
    def test_compile_prints_reports(self, capsys):
        assert main(["compile", "mxm", "--n", "16", "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "stale analysis" in out
        assert "case1-serial-known" in out

    def test_compile_program_flag(self, capsys):
        assert main(["compile", "mxm", "--n", "16", "--pes", "4",
                     "--program"]) == 0
        out = capsys.readouterr().out
        assert "vprefetch" in out


class TestRun:
    def test_run_ccdp(self, capsys):
        assert main(["run", "mxm", "--version", "ccdp", "--pes", "2",
                     "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "mxm/ccdp" in out and "ok" in out

    def test_run_base(self, capsys):
        assert main(["run", "vpenta", "--version", "base", "--pes", "2",
                     "--n", "17"]) == 0
        out = capsys.readouterr().out
        assert "stale_reads" in out


class TestTables:
    def test_table2_single_workload(self, capsys):
        code = main(["table2", "--workloads", "mxm", "--pes", "1,2",
                     "--n", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_table3_cross_scheme(self, capsys):
        code = main(["table3", "--workloads", "mxm", "--pes", "1,2",
                     "--n", "8", "--versions", "ccdp,mesi,dir"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        for scheme in ("ccdp", "mesi", "dir"):
            assert scheme in out
        assert "WRONG" not in out

    def test_table3_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit):
            main(["table3", "--workloads", "mxm", "--pes", "1",
                  "--n", "8", "--versions", "ccdp,hyperspeed"])
        assert "registered schemes" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "exp.md"
        code = main(["report", "--workloads", "mxm", "--pes", "1,2",
                     "--n", "16", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "# EXPERIMENTS" in text


_UNKNOWN = ("ccdp: error: unknown workload 'nosuch' "
            "(valid: mxm, swim, tomcatv, vpenta)")
_MXM_SIZE = "ccdp: error: mxm: MXM size must be a multiple of 4, got 6"
#: (argv, the one expected ``error:`` line) for a bad workload or size
_BAD_WORKLOAD_ARGS = [
    (["run", "nosuch"], _UNKNOWN),
    (["compile", "nosuch"], _UNKNOWN),
    (["trace", "nosuch"], _UNKNOWN),
    (["profile", "nosuch"], _UNKNOWN),
    (["verify", "--workloads", "mxm,nosuch"], _UNKNOWN),
    (["table1", "--workloads", "nosuch", "--pes", "4"], _UNKNOWN),
    (["table2", "--workloads", "nosuch", "--pes", "4"], _UNKNOWN),
    (["table3", "--workloads", "nosuch", "--pes", "4"], _UNKNOWN),
    (["report", "--workloads", "mxm,nosuch", "--pes", "4"], _UNKNOWN),
    (["run", "mxm", "--n", "6"], _MXM_SIZE),
    (["compile", "mxm", "--n", "6"], _MXM_SIZE),
    (["trace", "mxm", "--n", "6"], _MXM_SIZE),
    (["profile", "mxm", "--n", "6"], _MXM_SIZE),
    (["table1", "--workloads", "mxm", "--n", "6", "--pes", "4"],
     _MXM_SIZE),
    (["report", "--workloads", "mxm", "--n", "6", "--pes", "4"],
     _MXM_SIZE),
    (["run", "swim", "--steps", "0"],
     "ccdp: error: swim: main: Loop: loop 'step' has zero trip count "
     "(1..0 step 1)"),
]


class TestErrors:
    def test_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "linpack"])
        assert exc.value.code == 2
        assert "unknown workload 'linpack'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", _BAD_WORKLOAD_ARGS,
                             ids=[" ".join(a) for a, _ in _BAD_WORKLOAD_ARGS])
    def test_bad_workload_or_size_is_a_usage_error(self, argv, message,
                                                   capsys):
        """An unknown workload or a size its builder rejects exits 2 with
        one ``error:`` line, before any cell runs, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines()
                if "error:" in line] == [message]
        assert "Traceback" not in captured.err
        assert "running" not in captured.err
        assert captured.out == ""

    def test_size_keys_a_workload_lacks_are_ignored(self, capsys):
        """``--steps`` means nothing to MXM, which has no time loop;
        ``compile`` ignores it like ``run`` does."""
        assert main(["compile", "mxm", "--n", "8", "--steps", "3"]) == 0
        assert "case" in capsys.readouterr().out

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCompileFile:
    def test_compile_and_run_dsl_file(self, capsys):
        assert main(["compile-file", "examples/programs/redblack.ccdp",
                     "--pes", "2", "--run"]) == 0
        out = capsys.readouterr().out
        assert "stale analysis" in out
        assert "0 stale reads" in out

    def test_write_transformed_output(self, tmp_path, capsys):
        out_file = tmp_path / "out.ccdp"
        assert main(["compile-file", "examples/programs/redblack.ccdp",
                     "--pes", "2", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "vprefetch" in text
        # the emitted DSL must be re-parseable
        from repro.ir.dsl import parse_program
        parse_program(text)


class TestProfile:
    def test_profile_prints_curves(self, capsys):
        assert main(["profile", "vpenta", "--n", "17", "--pes", "2"]) == 0
        out = capsys.readouterr().out
        assert "miss rate vs cache size" in out
        assert "most-conflicted cache sets" in out

    def test_profile_rejects_pe_past_the_last(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "mxm", "--n", "8", "--pes", "2", "--pe", "5"])
        assert exc.value.code == 2
        assert "--pe 5 is out of range" in capsys.readouterr().err

    def test_profile_rejects_negative_pe(self, capsys):
        """A negative index must not silently profile the last PE."""
        with pytest.raises(SystemExit) as exc:
            main(["profile", "mxm", "--n", "8", "--pes", "2", "--pe", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--pe -1 is out of range" in captured.err
        assert "PE -1" not in captured.out


class TestPeCountValidation:
    """A zero or negative ``--pes`` is a usage error (exit 2), not a
    MachineParams traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "mxm", "--n", "8", "--pes", "0"],
        ["run", "mxm", "--n", "8", "--pes=-2"],
        ["trace", "mxm", "--n", "8", "--pes", "0"],
        ["fuzz", "--seeds", "1", "--pes=-1"],
        ["table1", "--workloads", "mxm", "--n", "8", "--pes", "1,0"],
        ["table2", "--workloads", "mxm", "--n", "8", "--pes=-4"],
        ["table3", "--workloads", "mxm", "--n", "8", "--pes", "0"],
        ["report", "--workloads", "mxm", "--n", "8", "--pes=2,-1"],
        ["table1", "--workloads", "mxm", "--n", "8", "--pes", "two"],
    ])
    def test_non_positive_pes_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "PE count must be a positive integer" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("seeds", ["0", "-3", "many"])
def test_fuzz_non_positive_seeds_exits_2(seeds, capsys):
    """``fuzz --seeds 0`` used to reach the start banner with no seeds
    and die on ``seeds[0]``; a non-positive count is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", f"--seeds={seeds}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"ccdp fuzz: error: argument --seeds: seed count must be a "
        f"positive integer, got {seeds!r}"]
    assert "Traceback" not in err
