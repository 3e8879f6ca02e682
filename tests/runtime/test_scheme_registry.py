"""The scheme registry as single source of truth: every version list,
policy flag and validation error is derived from ``SCHEMES`` — no
hard-coded copies anywhere."""

import pytest

from repro.runtime import (SCHEMES, ExecutionConfig, SchemeSpec, Version,
                           run_program, scheme_names)


class TestRegistryDerivations:
    def test_version_all_is_the_registry(self):
        assert Version.ALL == tuple(SCHEMES)
        assert len(set(Version.ALL)) == len(Version.ALL)

    def test_coherent_is_everything_but_naive(self):
        assert Version.COHERENT == tuple(n for n in SCHEMES if n != "naive")
        assert Version.NAIVE not in Version.COHERENT

    def test_protocol_versions_carry_a_protocol(self):
        assert Version.PROTOCOL == ("mesi", "dir", "dir-lp", "dir-pp")
        for name in Version.PROTOCOL:
            assert SCHEMES[name].protocol == name

    def test_every_scheme_constructs_a_config(self):
        for name, spec in SCHEMES.items():
            cfg = ExecutionConfig.for_version(name)
            assert cfg.cache_shared == spec.cache_shared
            assert cfg.craft_overheads == spec.craft_overheads
            assert cfg.protocol == spec.protocol

    def test_direct_construction_autofills_protocol(self):
        # ExecutionConfig(version=...) without the factory must agree
        # with the registry about the hardware protocol.
        cfg = ExecutionConfig(version=Version.MESI)
        assert cfg.protocol == "mesi"
        assert ExecutionConfig(version=Version.CCDP).protocol is None

    @pytest.mark.parametrize("version", tuple(SCHEMES))
    def test_direct_config_runs_like_for_version(self, version):
        # Shared caching, CRAFT costs and the protocol follow the scheme
        # however the config is built: ExecutionConfig(version="base")
        # once ran with cached shared data and no CRAFT costs.
        from repro.machine.params import t3d
        from repro.runtime import make_interpreter
        from repro.workloads import workload
        program = workload("mxm").build(n=8)
        params = t3d(1 if version == "seq" else 4)
        direct = make_interpreter(program, params,
                                  ExecutionConfig(version=version)).run()
        factory = run_program(program, params, version)
        assert direct.elapsed == factory.elapsed
        assert direct.machine.stats.as_dict() == \
            factory.machine.stats.as_dict()
        assert [p.stats for p in direct.machine.pes] == \
            [p.stats for p in factory.machine.pes]

    def test_policy_per_array(self):
        from repro.ir.arrays import REPLICATED, ArrayDecl
        shared = ArrayDecl("a", (8,))
        private = ArrayDecl("b", (8,), dist=REPLICATED)
        assert shared.is_shared and not private.is_shared
        for name, spec in SCHEMES.items():
            assert spec.policy(private) == (True, False, True), name
            assert spec.policy(shared) == (
                spec.cache_shared, spec.craft_overheads,
                spec.cache_shared and spec.protocol is None), name
        assert SCHEMES["base"].policy(shared) == (False, True, False)
        assert SCHEMES["ccdp"].policy(shared) == (True, False, True)
        assert SCHEMES["mesi"].policy(shared) == (True, False, False)

    def test_fuzz_matrix_derives_from_registry(self):
        from repro.verify.fuzz import COHERENT_FUZZ, FUZZ_VERSIONS
        assert FUZZ_VERSIONS == tuple(n for n, s in SCHEMES.items() if s.fuzz)
        assert Version.NAIVE in FUZZ_VERSIONS        # the stale control
        assert Version.MESI in FUZZ_VERSIONS
        assert Version.DIR in FUZZ_VERSIONS
        assert set(COHERENT_FUZZ) == (set(FUZZ_VERSIONS)
                                      & set(Version.COHERENT)) - {"seq"}


class TestValidationErrors:
    def test_config_error_lists_every_registered_scheme(self):
        with pytest.raises(ValueError) as err:
            ExecutionConfig(version="hyperspeed")
        for name in SCHEMES:
            assert name in str(err.value)

    def test_factory_error_lists_every_registered_scheme(self):
        with pytest.raises(ValueError) as err:
            ExecutionConfig.for_version("hyperspeed")
        for name in SCHEMES:
            assert name in str(err.value)

    def test_run_program_rejects_unknown_version(self):
        from repro.ir.dsl import parse_program
        from repro.machine.params import t3d
        prog = parse_program(
            "program tiny\n"
            "  shared real a(4) dist(block, axis=-1)\n"
            "  procedure main\n"
            "    doall i = 1, 4 align(a) label(init)\n"
            "      a(i) = 1.0\n"
            "    end doall\n"
            "  end procedure\n"
            "end program\n")
        with pytest.raises(ValueError, match="hyperspeed"):
            run_program(prog, t3d(2), "hyperspeed")

    def test_cli_verify_error_lists_every_registered_scheme(self, capsys):
        from repro.harness.cli import main
        with pytest.raises(SystemExit):
            main(["verify", "--versions", "ccdp,hyperspeed"])
        err = capsys.readouterr().err
        assert "hyperspeed" in err
        for name in SCHEMES:
            assert name in err

    def test_cli_run_choices_come_from_registry(self, capsys):
        from repro.harness.cli import main
        with pytest.raises(SystemExit):
            main(["run", "mxm", "--version", "hyperspeed"])
        err = capsys.readouterr().err
        for name in SCHEMES:
            assert name in err

    def test_scheme_names_is_presentation_order(self):
        assert scheme_names() == ", ".join(SCHEMES)


class TestTransformedFlag:
    """``SchemeSpec.transformed`` alone decides who runs the CCDP
    program: a scheme registered with it runs the transformed program
    at every entry point, exactly as ccdp does."""

    NAME = "transformed-scratch"

    @pytest.fixture(autouse=True)
    def scratch_scheme(self, monkeypatch):
        # naive's policy plus the transform is ccdp's scheme, renamed
        monkeypatch.setitem(SCHEMES, self.NAME, SchemeSpec(
            self.NAME, "ccdp under another name", transformed=True))

    def test_experiment_run_version(self):
        from repro.harness.experiment import ExperimentRunner
        from repro.workloads import workload

        runner = ExperimentRunner(workload("mxm"), {"n": 8})
        got = runner.run_version(self.NAME, 4)
        want = runner.run_version(Version.CCDP, 4)
        assert got.ccdp_report is not None and got.correct
        assert (got.elapsed, got.stats) == (want.elapsed, want.stats)
        assert got.stats["vector_prefetches"] > 0
        assert runner.run_version(Version.NAIVE, 4).stats[
            "vector_prefetches"] == 0

    def test_equivalence_helper(self):
        from repro.harness.equivalence import check_workload
        from repro.machine import t3d

        got = check_workload("mxm", t3d(4), self.NAME, n=8)
        want = check_workload("mxm", t3d(4), Version.CCDP, n=8)
        assert got.exact
        assert got.stats_batched == want.stats_batched
        assert got.stats_batched["vector_prefetches"] > 0

    def test_fuzz_program_choice(self, monkeypatch):
        from repro.harness import equivalence
        from repro.verify import fuzz
        from repro.verify.gen import generate_program

        ran = {}
        compare = equivalence.compare_backends

        def spy(program, params, version, *args, **kwargs):
            ran[version] = program
            return compare(program, params, version, *args, **kwargs)

        monkeypatch.setattr(equivalence, "compare_backends", spy)
        monkeypatch.setattr(fuzz, "FUZZ_VERSIONS",
                            fuzz.FUZZ_VERSIONS + (self.NAME,))
        program = generate_program(0)
        assert fuzz.check_program(program) == []
        assert ran[self.NAME] is ran[Version.CCDP]
        assert ran[Version.NAIVE] is program

    def test_verify_program(self):
        from repro.verify.safety import verify_program
        from repro.workloads import workload

        program = workload("mxm").build(n=8)
        got = verify_program(program, self.NAME)
        assert got.ok and got.obligations > 0
        assert got.obligations == verify_program(program, "ccdp").obligations
        assert verify_program(program, Version.NAIVE).obligations == 0
