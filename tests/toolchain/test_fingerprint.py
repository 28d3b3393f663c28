"""Content-addressing: cache-key stability and sensitivity."""

from dataclasses import replace

import pytest

from repro.apps import gridmini, xsbench
from repro.bench.builds import (
    BUILD_ORDER,
    NEW_RT_NIGHTLY,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
    ablation_configs,
    build_options,
)
from repro.bench.harness import APPS
from repro.frontend.driver import CompileOptions, Target
from repro.ir.printer import print_module
from repro.passes.pass_manager import PipelineConfig
from repro.runtime.config import RuntimeConfig
from repro.toolchain.fingerprint import (
    _canonical_text,
    compile_fingerprint,
    fingerprint_options,
    fingerprint_program,
    module_fingerprint,
)

TINY = {"n_sites": 64}


class TestProgramFingerprint:
    def test_same_program_same_fingerprint(self):
        # Two independently built ASTs of the same app and size.
        a = gridmini.build_program(TINY)
        b = gridmini.build_program(TINY)
        assert a is not b
        assert fingerprint_program(a) == fingerprint_program(b)

    def test_structural_change_changes_fingerprint(self):
        from repro.frontend import ast as A
        from repro.ir.types import F64, I64, PTR

        def saxpy(scale: float) -> A.Program:
            iv = A.Var("iv")
            kernel = A.KernelDef(
                "saxpy",
                params=[A.Param("y", PTR), A.Param("n", I64)],
                trip_count=A.Arg("n"),
                body=[A.StoreIdx(A.Arg("y"), iv,
                                 A.Index(A.Arg("y"), iv) * scale)],
            )
            return A.Program("fp", kernels=[kernel])

        assert fingerprint_program(saxpy(2.0)) == fingerprint_program(saxpy(2.0))
        assert fingerprint_program(saxpy(2.0)) != fingerprint_program(saxpy(3.0))

    def test_different_apps_differ(self):
        a = gridmini.build_program(TINY)
        b = xsbench.build_program(xsbench.default_size())
        assert fingerprint_program(a) != fingerprint_program(b)


class TestOptionsFingerprint:
    def test_equal_options_equal_fingerprint(self):
        a = CompileOptions(Target.OPENMP_NEW)
        b = CompileOptions(Target.OPENMP_NEW)
        assert fingerprint_options(a) == fingerprint_options(b)

    def test_target_flip_changes_fingerprint(self):
        base = fingerprint_options(CompileOptions(Target.OPENMP_NEW))
        assert fingerprint_options(CompileOptions(Target.OPENMP_OLD)) != base
        assert fingerprint_options(CompileOptions(Target.CUDA)) != base

    @pytest.mark.parametrize("flag", [
        "enable_spmdization",
        "enable_globalization_elim",
        "enable_field_sensitive",
        "enable_reach_dom",
        "enable_assumed_content",
        "enable_invariant_prop",
        "enable_aligned_exec",
        "enable_barrier_elim",
        "enable_inlining",
    ])
    def test_any_pipeline_flag_flip_changes_fingerprint(self, flag):
        base = CompileOptions(Target.OPENMP_NEW)
        flipped = PipelineConfig(**{flag: False})
        assert fingerprint_options(base) != fingerprint_options(
            CompileOptions(Target.OPENMP_NEW, pipeline=flipped)
        )

    def test_runtime_config_flip_changes_fingerprint(self):
        base = CompileOptions(Target.OPENMP_NEW)
        tweaked = replace(base, runtime_config=RuntimeConfig(smem_stack_size=2048))
        assert fingerprint_options(base) != fingerprint_options(tweaked)

    def test_oversubscription_changes_fingerprint(self):
        base = CompileOptions(Target.OPENMP_NEW)
        assert fingerprint_options(base) != fingerprint_options(
            base.with_oversubscription()
        )

    def test_verify_flag_changes_fingerprint(self):
        base = CompileOptions(Target.OPENMP_NEW)
        assert fingerprint_options(base) != fingerprint_options(
            replace(base, verify=False)
        )


class TestCompileFingerprint:
    def test_combines_program_and_options(self):
        prog = gridmini.build_program(TINY)
        a = compile_fingerprint(prog, CompileOptions(Target.OPENMP_NEW))
        assert a == compile_fingerprint(
            gridmini.build_program(TINY), CompileOptions(Target.OPENMP_NEW)
        )
        assert a != compile_fingerprint(prog, CompileOptions(Target.CUDA))

    @pytest.mark.parametrize("app,target,digest", [
        ("gridmini", Target.OPENMP_NEW,
         "40a79ed826453f9207141d7859cb8c361093eb264d828a7252ad321ea2b58c14"),
        ("xsbench", Target.OPENMP_OLD,
         "413948b6e06412fbb588c5732b6c9fb7da15e779dbd47a2290990576bc7fbf9a"),
    ])
    def test_pinned_digest(self, app, target, digest):
        """Cache keys are persistent: a change to how programs or
        options are canonicalized must not change a digest."""
        mod = {"gridmini": gridmini, "xsbench": xsbench}[app]
        size = TINY if app == "gridmini" else xsbench.default_size()
        assert compile_fingerprint(
            mod.build_program(size), CompileOptions(target)) == digest


    def test_pinned_digests_of_every_compile_cold_pair(self):
        """The 54 (program, options) pairs of the compile-cold benchmark:
        the 24 matrix cells and the six Fig. 13 ablations of each app,
        every program at its default size."""
        options = dict(build_options())
        ablations = ablation_configs()
        for label in ABLATION_SLUGS:
            options[ABLATION_SLUGS[label]] = CompileOptions(
                Target.OPENMP_NEW, pipeline=ablations[label])
        slugs = dict(zip(BUILD_ORDER, BUILD_SLUGS))
        got = {}
        for app in sorted(APPS):
            program = APPS[app].build_program(APPS[app].default_size())
            for build, opts in options.items():
                key = (app, slugs.get(build, build))
                if key in COMPILE_COLD_DIGESTS:
                    got[key] = compile_fingerprint(program, opts)
        assert got == COMPILE_COLD_DIGESTS

    @pytest.mark.parametrize("value,text", [
        ((), "()"),
        ([7], "(('int', 7),)"),
        ({"b": (1,), "a": [2.5, None]},
         "(('a', (('float', 2.5), ('NoneType', None))), ('b', (('int', 1),)))"),
        (frozenset({"x", 2}), '''("(\'int\', 2)", "(\'str\', \'x\')")'''),
        (Target.OPENMP_NEW, "('Enum', 'Target', 'OPENMP_NEW')"),
        (CompileOptions, "('type', \"<class 'repro.frontend.driver.CompileOptions'>\")"),
        (True, "('bool', True)"),
        (b"z", "('bytes', b'z')"),
    ])
    def test_canonical_text_shapes(self, value, text):
        """The text is the repr of the nested-tuple form: sorted pairs
        for dicts, the sorted texts of the members for sets."""
        assert _canonical_text(value) == text


#: Build slugs of the compile-cold pairs, in BUILD_ORDER, then the
#: Fig. 13 ablations.
BUILD_SLUGS = ("oldrt-nightly", "newrt-nightly", "newrt-noassume", "newrt", "cuda")
ABLATION_SLUGS = {
    "no field-sensitive (IV-B1)": "no-ivb1",
    "no reach/dom (IV-B2)": "no-ivb2",
    "no assumed content (IV-B3)": "no-ivb3",
    "no invariant prop (IV-B4)": "no-ivb4",
    "no aligned exec (IV-C)": "no-ivc",
    "no barrier elim (IV-D)": "no-ivd",
}

#: compile_fingerprint of each (app, build slug) pair, at default size.
COMPILE_COLD_DIGESTS = {
    ("gridmini", "cuda"): "4de4de7757dd069f69d80bbad5e763625d75ee5c41fd15dc9277529ee5c4f34d",
    ("gridmini", "newrt"): "1bdb77a0f32b230842b331de0d2f0c83b62184144bacaf35ce5f257eb4cacbd2",
    ("gridmini", "newrt-nightly"): "f0a64489b0155c465c6a99014e54b5a7264865b6a94ad8d7573c4e2dcdb1f054",
    ("gridmini", "newrt-noassume"): "40a79ed826453f9207141d7859cb8c361093eb264d828a7252ad321ea2b58c14",
    ("gridmini", "no-ivb1"): "ac480caf6817f870ffd3c4d95d19021f02619d5501bda42cfe7107097a7f16ab",
    ("gridmini", "no-ivb2"): "7be44238ad18017b178c11ed15fb9d01fe3961927f1efd7c292fa5699665d612",
    ("gridmini", "no-ivb3"): "57ca9974b88c313b10ac40fd258728f2dd81e360fb58614f6e00413fe784d864",
    ("gridmini", "no-ivb4"): "6d274dff6a95de79cd3fa890557ebc600d9324de0d85330975763ab1fffaee73",
    ("gridmini", "no-ivc"): "b750484805aed9d714eec47cd60f69e623667548f0203884540d1b227b0cc145",
    ("gridmini", "no-ivd"): "a48cacc1a3deb394a46619d4b71ea56e5d9cfa4485a80bbd3754487eae1f8dde",
    ("gridmini", "oldrt-nightly"): "4d7a8c994002f04fb48068ff61f8f597d64e2c93a6f9a4abcde7de752eed76b1",
    ("minifmm", "cuda"): "8e73400f106ec26d1be1a31b0b12010f60e66d6dfc6f0b8c8a570318f3890ed5",
    ("minifmm", "newrt"): "f59f28c1467fac135145edc882f209877de51d44d11fb26a6c38ea70125e4dec",
    ("minifmm", "newrt-nightly"): "b9994e419a7c7bdb6582fa860f837c5f946c3210d17b1779e779139f77ddc24b",
    ("minifmm", "newrt-noassume"): "e29ae2ae42c42230e24799d8291ef90beb037ce3e370b9a4f75d2559bef6af10",
    ("minifmm", "no-ivb1"): "e6a2783efc141e97576a6c1072dd4c9f277edb691371224ae999446b6eda09d6",
    ("minifmm", "no-ivb2"): "2d42a7d2f30a49afa44e5286cda55716542fc018f5163cac27e2af5369492ae6",
    ("minifmm", "no-ivb3"): "4f638b1c8d8a70eb139b1648fa3988a93c9486c660706adc5da16389c47776bb",
    ("minifmm", "no-ivb4"): "6cc3ad3c8c22acf53f2665e14c7ea2927dfb3ad2dce2ffb2f0911a976683ddba",
    ("minifmm", "no-ivc"): "a9a5b16a24a46ae7785aa917fbd9b6173eb70c7e5a7c8e555232c2ab71bceac7",
    ("minifmm", "no-ivd"): "2b362b13719c429c2b3dbc255e331833cbbe8566394da0256d8244aa209f951b",
    ("minifmm", "oldrt-nightly"): "14638ab35ea665d4899d5ce580af3eafdbbb35d81a9ecc25c4c962c69ab00ac7",
    ("rsbench", "cuda"): "0b7c2ff622e4ca9667a24693ceaa34ec1c68e0326e3b13e5ba73f09d5b204bb3",
    ("rsbench", "newrt"): "8165edb78588f23260a1e0b9a6525ac4a23425de900f10b59a40bf46ffd8e3d6",
    ("rsbench", "newrt-nightly"): "bf21917376da7078dccb5c4a373d3770167f740432fbe7bb910edb504c885c64",
    ("rsbench", "newrt-noassume"): "06b7d0f262cbcec720b0c72faca27860c502de5da9418247d32b9cc6fcbeb8bd",
    ("rsbench", "no-ivb1"): "939994c915e74d3c8e41a5bef0e6efda3785681a7bc8fcfc6ef721e780635324",
    ("rsbench", "no-ivb2"): "02bdd8509b14464bc2bb5d5fc509eb5b92001de304d981ca452a117c4a6c423b",
    ("rsbench", "no-ivb3"): "f89a9216b78115f49a28bc4da39e154e03756af877fc6c6eab75f511acdc7aac",
    ("rsbench", "no-ivb4"): "7f02c316eea736194c9eaae5346b0a4a525035dc3a52cd3d945618a67ccde7bd",
    ("rsbench", "no-ivc"): "c9579ec1565deab2b750cd6e9ca4194e9d7dfcd73a70f808a39a8dd6ccebcc63",
    ("rsbench", "no-ivd"): "6a0ce419d24f9cbff34ccb11ddc8d0d21da27dc5a8e5f78f796a70d059630973",
    ("rsbench", "oldrt-nightly"): "81a6be615c9863e8eebc90199e70cc4b97eec5a778082e9d05799537d213d7d3",
    ("testsnap", "newrt"): "6586ffa3868ff834e0319e49ec2edb9fa5b5b993af793350658a4fac2561de7e",
    ("testsnap", "newrt-nightly"): "007c75a5177c7a2da86a848e9c9954be21853b82abe31e652f59ec66f22505f6",
    ("testsnap", "newrt-noassume"): "e7f84d71e774e850dd86292bee296f6ac530cdb02b7c035e36f4786f14fe64af",
    ("testsnap", "no-ivb1"): "e0cca3234d675b269878eebc888c9dbc414cc85d3787f832ab40658b2c0934f5",
    ("testsnap", "no-ivb2"): "7a9baf872a6a34bfbd75a28d16bebbc6c8b8601177fca359d06da7eeb1d132e7",
    ("testsnap", "no-ivb3"): "c2332cf3a142ae70e611e25549d9f1fb4af4cc6f5495497c00e33945b60c438d",
    ("testsnap", "no-ivb4"): "44edb913e2a0661ab6c98d8459762ba05692b225b1d01a88213c7d8af466a16b",
    ("testsnap", "no-ivc"): "e76ae71da6933f3423df78b1601eea79e5db738468675c68dba508122a8fa477",
    ("testsnap", "no-ivd"): "b26b5c5708ee0e1c8f9fe875f64212e4e3c92aa95ef01f9282949dad3d57b857",
    ("testsnap", "oldrt-nightly"): "153e7e6381c050d5f8e596882ee87484fd8d5a8184473be4bd51692fe40ce512",
    ("xsbench", "cuda"): "90cbfd5608aa15ee66f800f9dcae71595e5c6619a220dfad87421ec50a6ace39",
    ("xsbench", "newrt"): "5768217baf7201a76eb66e81b8640721ce6bc184ef18ad32a9d24bfeeb2cc7f9",
    ("xsbench", "newrt-nightly"): "e3cc3841041930d32da9224758659ac5a27b436d271da411835c68a4d3809e7b",
    ("xsbench", "newrt-noassume"): "8be866567d34e6d03a5d60ae2d2f2cb9d4fe3f8db30d22de4b26bc32caa0e816",
    ("xsbench", "no-ivb1"): "f925d6c5994c61ab3e3a53d0a0dcb88aae164d9bc225c4339dbe3668afe0861d",
    ("xsbench", "no-ivb2"): "60ba39642236bdb063b0e9ff6e02b16cb462ecbc0d8b8c9aced3519ac68d53af",
    ("xsbench", "no-ivb3"): "069a3320bbefac3dcc53c619ec200bce53347727b220f8e1372e9fc291b28f5e",
    ("xsbench", "no-ivb4"): "c90043525bfc0d035ec5fd2b6a810eb081de1399e96b59417bd1406ef18dd987",
    ("xsbench", "no-ivc"): "c8cb2c06579d18adf59f9f08f0f178cd99698f7a87d469140ed96f7720ffa43c",
    ("xsbench", "no-ivd"): "0bf75cfaa7a555a5a1d51a7fd27af9bd6e55dc97f99613146b28a76d87de4991",
    ("xsbench", "oldrt-nightly"): "20342c262ad551b1d281308610b0ca6d55bcd35baa4dc45a451b2bec5829dcf0",
}


class TestModuleFingerprint:
    @staticmethod
    def _assert_deterministic(build):
        # Nothing may depend on object identity, such as set order;
        # LICM hoisting in set order broke this for the nightly builds.
        from repro.frontend.driver import compile_program_uncached

        prog = gridmini.build_program(TINY)
        options = build_options()[build]
        a, b, c = (compile_program_uncached(prog, options) for _ in range(3))
        text = print_module(a.module, canonical=True)
        assert print_module(b.module, canonical=True) == text
        assert print_module(c.module, canonical=True) == text
        assert module_fingerprint(a.module) == module_fingerprint(b.module)

    def test_canonical_print_is_deterministic(self):
        self._assert_deterministic(NEW_RT_NO_ASSUME)

    @pytest.mark.parametrize("build", [NEW_RT_NIGHTLY, OLD_RT_NIGHTLY])
    def test_canonical_print_is_deterministic_nightly(self, build):
        self._assert_deterministic(build)

    def test_name_hints_do_not_matter_in_canonical_mode(self, module):
        from tests.conftest import make_function
        from repro.ir import I32, IRBuilder, Module

        def build(hint):
            m = Module("m")
            func, b = make_function(m, "f")
            v = b.add(func.args[0], func.args[0], name=hint)
            b.ret(v)
            return m

        a, b_ = build("alpha"), build("beta")
        assert print_module(a, canonical=True) == print_module(b_, canonical=True)
        assert print_module(a) != print_module(b_)


def _ir_slot_layout():
    """``qualname: slots`` of every slotted IR class a compiled module
    pickles (the values, instructions, blocks and functions), sorted."""
    from repro.ir import instructions, module, values

    rows = []
    for mod in (values, instructions, module):
        for cls in vars(mod).values():
            if (isinstance(cls, type) and cls.__module__ == mod.__name__
                    and "__slots__" in cls.__dict__):
                rows.append(f"{mod.__name__}.{cls.__qualname__}: "
                            f"{','.join(cls.__slots__)}")
    return "\n".join(sorted(rows))


#: sha256 of :func:`_ir_slot_layout` per CACHE_FORMAT_VERSION.  A slot
#: change must bump the version (and add its digest here), so on-disk
#: pickles of the old layout are never loaded.
IR_SLOT_LAYOUTS = {
    1: "70fe19f293b6080d672c9d4558cd97b7f39cc4a4493a3a6a30766c8f13b8ce21",
    # Instruction.attrs deleted.
    2: "b236dacf20e13c0e0802cbb3a98b803e002dd34aecb9a5740ebe3beda4abf88e",
}


def test_ir_slot_layout_is_pinned_to_the_cache_format_version():
    import hashlib

    from repro.toolchain.fingerprint import CACHE_FORMAT_VERSION

    layout = _ir_slot_layout()
    for name in ("Value", "Instruction", "Phi", "Call", "BasicBlock",
                 "Function", "GlobalVariable"):
        assert f".{name}: " in layout
    digest = hashlib.sha256(layout.encode()).hexdigest()
    assert IR_SLOT_LAYOUTS.get(CACHE_FORMAT_VERSION) == digest, (
        f"the IR slot layout changed: bump CACHE_FORMAT_VERSION and pin "
        f"{digest} for it\n{layout}")
