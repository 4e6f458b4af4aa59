"""The experiment scripts run end to end on tiny grids."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rows", [
    ("gap_trend", ["--sizes", "2x2,3x3", "--seeds", "2"], 2),
])
def test_script_runs(name, argv, rows, capsys):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # a header, one row per size, then a summary comment
    assert len(lines) == rows + 2
    assert lines[-1].startswith("# ")


@pytest.mark.parametrize("encoding, frozen", [
    ("pm", "ORACLE_RELAXED_OPTIMUM"), ("zo", "ORACLE_ZO_RELAXED_OPTIMUM"),
])
def test_oracle_rederives_frozen_constants(encoding, frozen, capsys):
    import test_dars

    argv = ["--frozen-case", "--encoding", encoding]
    assert load_script("standard_sdp_oracle").main(argv) == 0
    line, = [s for s in capsys.readouterr().out.splitlines()
             if s.startswith("relaxation objective + offset")]
    value = float(line.split("=")[1])
    assert value == pytest.approx(getattr(test_dars, frozen), rel=1e-12)
