"""The README's examples run as written."""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import swarmscale
from swarmscale.config import config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_config_example_validates():
    (text,) = code_blocks("yaml")
    cfg = config_from_dict(yaml.safe_load(text))
    assert cfg.mode == "micromacro"
    assert cfg.penalty.beta0 == 1.0 and cfg.feasible_set.bound == -0.5


def test_readme_python_example_runs(capsys):
    (code,) = code_blocks("python")
    exec(compile(code, str(README), "exec"), {})
    # the free swarm's consensus, printed as a numpy array, ends near Ackley's minimizer
    point = np.array(capsys.readouterr().out.strip().strip("[]").split(), dtype=float)
    assert point.shape == (2,) and np.abs(point).max() < 0.25


def test_readme_raises_claims_hold():
    # each "`expr` raises `ValueError("msg")`" sentence, evaluated with the package's names
    claims = re.findall(r'`([^`]+)`\s+raises\s+`ValueError\("([^`]*)"\)`', README.read_text())
    assert len(claims) >= 3
    for expr, message in claims:
        with pytest.raises(ValueError) as exc:
            eval(expr, {**vars(swarmscale)})
        assert str(exc.value) == message, expr
