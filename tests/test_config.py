import math
from dataclasses import fields

import pytest

from oscillab.config import RunConfig, load_config
from oscillab.errors import ConfigError


def test_defaults_resolve_fcgl_grid():
    cfg = load_config()
    assert cfg.system.kind == "fcgl"
    assert cfg.grid.n == 512
    assert cfg.grid.length == pytest.approx(20 * math.pi)


def test_defaults_resolve_pde_grid():
    cfg = load_config(overrides=["system.kind=pde"])
    assert cfg.grid.n == 1280
    assert cfg.grid.length == pytest.approx(200 * math.pi)


def test_explicit_grid_is_kept():
    cfg = load_config(overrides=["grid.n=64", "grid.length=10.0"])
    assert cfg.grid.n == 64
    assert cfg.grid.length == 10.0


def test_file_with_inline_comments(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[system]\n"
        "kind = pde   # forced model\n"
        "[params]\n"
        "epsilon = 0.5\n"
        "f = 2.3 ; strong forcing\n"
        "[continuation]\n"
        "classify = off\n"
    )
    cfg = load_config(str(path))
    assert cfg.system.kind == "pde"
    assert cfg.params.epsilon == 0.5
    assert cfg.params.f == 2.3
    assert cfg.continuation.classify is False


def test_override_wins_over_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[params]\ngamma = 1.3\n")
    cfg = load_config(str(path), overrides=["params.gamma=1.7"])
    assert cfg.params.gamma == 1.7


def test_override_type_coercion():
    cfg = load_config(overrides=[
        "continuation.max_points=42",
        "continuation.param_max=inf",
        "continuation.param_min=-inf",
        "output.snapshot_stride=5",
        "floquet.diagnostics=yes",
    ])
    assert cfg.continuation.max_points == 42
    assert cfg.continuation.param_max == math.inf
    assert cfg.continuation.param_min == -math.inf
    assert cfg.output.snapshot_stride == 5
    assert cfg.floquet.diagnostics is True


@pytest.mark.parametrize("override, fragment", [
    ("nosuch.key=1", "unknown config section"),
    ("params.nosuch=1", "unknown key"),
    ("params.gamma=abc", "cannot parse"),
    ("timestepping.dt=nan", "cannot parse"),
    ("continuation.newton_tol=NaN", "cannot parse"),
    ("continuation.classify=maybe", "cannot parse"),
    ("params.gamma", "must look like"),
    ("gamma=1.0", "must look like"),
])
def test_bad_overrides(override, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(overrides=[override])


@pytest.mark.parametrize("override, fragment", [
    ("system.kind=wave", "kind must be one of"),
    ("seed.kind=blob", "kind must be one of"),
    ("seed.kind=file", "requires a path"),
    ("seed.noise_seed=-1", "noise_seed"),
    ("params.alpha=-1", "alpha"),
    ("params.epsilon=0", "epsilon"),
    ("params.gamma=-0.1", "gamma"),
    ("params.f=-0.1", "f must be"),
    ("grid.n=33", "even integer"),
    ("grid.length=-1", "length"),
    ("timestepping.dt=0", "dt"),
    ("timestepping.t_end=-2", "t_end"),
    ("timestepping.max_periods=0", "max_periods"),
    ("continuation.ds_min=0.2", "ds_min <= ds0"),
    ("continuation.max_points=1", "max_points"),
    ("continuation.newton_tol=0", "newton_tol"),
    ("continuation.classify_stride=0", "classify_stride"),
    ("continuation.classify_stride=-2", "classify_stride"),
    ("floquet.j_trunc=1", "j_trunc"),
    ("floquet.n_samples=0", "n_samples"),
    ("floquet.n_samples=-4", "n_samples"),
    ("sweep.nu_count=0", "grid counts"),
    ("sweep.t_probe=-5", "t_probe"),
    ("sweep.t_probe=0.01", "t_probe"),
    ("output.norm_stride=0", "norm_stride"),
])
def test_validation_rejects(override, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(overrides=[override])


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.ini")


def test_malformed_text(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("params]\ngamma 1.0\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(str(path))


def test_fcgl_params_mapping():
    cfg = load_config(overrides=["params.gamma=1.6", "params.nu=2.5"])
    p = cfg.fcgl_params()
    assert p.gamma == 1.6
    assert p.nu == 2.5
    assert p.c_re == -1.0 and p.c_im == -2.5


def test_model_params_scaling():
    cfg = load_config(overrides=["system.kind=pde", "params.epsilon=0.5",
                                 "params.f=2.3"])
    mp = cfg.model_params()
    assert mp.mu == pytest.approx(-0.125)
    assert mp.omega == pytest.approx(1.5)
    assert mp.f == 2.3
    assert cfg.model_params(f=1.0).f == 1.0


def test_items_cover_every_field():
    cfg = RunConfig()
    seen = {(sec, key) for sec, key, _ in cfg.items()}
    expected = set()
    for sec_field in fields(cfg):
        section = getattr(cfg, sec_field.name)
        for f in fields(section):
            expected.add((sec_field.name, f.name))
    assert seen == expected
    # values round-trip through the same attribute path
    for sec, key, val in cfg.items():
        assert getattr(getattr(cfg, sec), key) == val
