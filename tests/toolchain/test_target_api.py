"""The typed Target API of the compile options."""

from dataclasses import replace

import pytest

from repro.frontend.driver import CompileOptions, Target


class TestTarget:
    def test_unknown_mode_rejected(self):
        # Target is the only spelling: the old mode=/runtime= strings
        # are no longer accepted anywhere.
        with pytest.raises(TypeError):
            CompileOptions(mode="hip")
        with pytest.raises(ValueError):
            Target(("hip", "new"))

    def test_mode_runtime_views(self):
        assert Target.OPENMP_OLD.mode == "openmp"
        assert Target.OPENMP_OLD.runtime == "old"
        assert Target.CUDA.mode == "cuda"
        assert Target.OPENMP_NEW.is_openmp
        assert not Target.CUDA.is_openmp


class TestCompileOptions:
    def test_default_target(self):
        assert CompileOptions().target is Target.OPENMP_NEW

    def test_target_plus_legacy_rejected(self):
        with pytest.raises(TypeError):
            CompileOptions(Target.CUDA, mode="cuda")
        with pytest.raises(TypeError):
            CompileOptions(runtime="old")

    def test_replace_preserves_target(self):
        opts = CompileOptions(Target.OPENMP_OLD)
        assert replace(opts, verify=False).target is Target.OPENMP_OLD

    def test_builders_preserve_target(self):
        opts = CompileOptions(Target.OPENMP_NEW).with_oversubscription()
        assert opts.target is Target.OPENMP_NEW
        assert opts.runtime_config.assume_teams_oversubscription
        debug = CompileOptions(Target.OPENMP_OLD).with_debug()
        assert debug.target is Target.OPENMP_OLD
        assert debug.runtime_config.debug_enabled

    def test_frozen(self):
        with pytest.raises(Exception):
            CompileOptions().target = Target.CUDA
