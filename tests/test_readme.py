"""The README's examples run as written."""

import re
from pathlib import Path

import yaml

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
    assert capsys.readouterr().out.strip()
