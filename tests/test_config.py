"""Tests for the key = value run configuration parser."""

import pytest

from flowshape.config import ConfigError, RunConfig, parse_config, parse_items


def test_defaults_are_valid():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.nu == 0.01
    assert cfg.alpha_init == 1e-4
    assert cfg.alpha_dec == 0.1
    assert cfg.alpha_target == 1e-10
    assert cfg.eta_det == 5e-2
    assert cfg.eta_ext == 3.0
    assert cfg.algorithm == "direct"


def test_parse_basic_assignments():
    cfg = parse_items([
        "# reproduction run",
        "nu = 0.1",
        "eta_ext = 1.5   # stronger extension",
        "",
        "algorithm = iterative",
        "seed = 7",
    ])
    assert cfg.nu == 0.1
    assert cfg.eta_ext == 1.5
    assert cfg.algorithm == "iterative"
    assert cfg.seed == 7


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'viscosity'"):
        parse_items(["", "nu = 0.1", "viscosity = 2"])


def test_duplicate_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 2: duplicate key 'nu'"):
        parse_items(["nu = 0.1", "nu = 0.2"])


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
        parse_items(["just some words"])


def test_bad_numeric_value_rejected():
    with pytest.raises(ConfigError, match=r"invalid value"):
        parse_items(["nu = fast"])


def test_out_of_range_alpha_dec():
    with pytest.raises(ConfigError, match=r"alpha_dec"):
        parse_items(["alpha_dec = 1.5"])


def test_out_of_range_target():
    with pytest.raises(ConfigError, match=r"alpha_target"):
        parse_items(["alpha_init = 1e-6", "alpha_target = 1e-2"])


@pytest.mark.parametrize("line", [
    "nu = 0", "mu = -1", "delta = 0", "alpha_init = 0", "alpha_dec = 1",
    "alpha_target = 1", "beta = -1", "eta_det = 0", "eta_ext = -1",
    "newton_tol = 0", "nu = nan", "mu = nan", "delta = nan",
    "alpha_init = nan", "alpha_dec = nan", "alpha_target = nan",
    "beta = nan", "eta_det = nan", "eta_ext = nan", "newton_tol = nan"])
def test_out_of_range_parameter_names_its_key(line):
    """The schedule and ``KktParams`` make the range rules of these keys;
    the config error still names the key, and NaN fails every rule."""
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        parse_items([line])


def test_bad_mode_and_algorithm():
    with pytest.raises(ConfigError, match=r"mode"):
        parse_items(["mode = wind-tunnel"])
    with pytest.raises(ConfigError, match=r"algorithm"):
        parse_items(["algorithm = magic"])


def test_missing_mesh_file_rejected():
    with pytest.raises(ConfigError, match=r"mesh file not found"):
        parse_items(["mesh = /no/such/file.msh"])


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nu = 0.05\nbeta = 50\nmesh_n_obstacle = 32\n")
    cfg = parse_config(path)
    assert cfg.nu == 0.05
    assert cfg.beta == 50.0
    assert cfg.mesh_n_obstacle == 32


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match=r"config file not found"):
        parse_config("/no/such/run.cfg")


def test_file_errors_name_the_source(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("nu = 0.05\nwhatever = 3\n")
    with pytest.raises(ConfigError, match=r"broken\.cfg: line 2"):
        parse_config(path)
