"""Smoke tests over the example scripts.

Each example must import cleanly, expose a ``main`` and run end to end
(each takes about a second; the CKKS ones assert their own error
bounds).
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(
        f"example_{name[:-3]}", path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestInventory:
    def test_at_least_five_examples(self):
        assert len(ALL_EXAMPLES) >= 5

    def test_quickstart_present(self):
        assert "quickstart.py" in ALL_EXAMPLES


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_importable_with_main(name):
    module = load_example(name)
    assert callable(getattr(module, "main", None)), (
        f"{name} must define a main()"
    )
    assert module.__doc__, f"{name} must carry a module docstring"


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_has_exactly_one_main_guard(name):
    """Regression: batch_serving.py once carried two copy-pasted
    ``if __name__ == "__main__":`` blocks, so running it as a script
    executed main() twice (doubling runtime and duplicating output).
    Every example must run main() exactly once."""
    source = (EXAMPLES_DIR / name).read_text(encoding="utf-8")
    guards = source.count('if __name__ == "__main__":')
    assert guards == 1, (
        f"{name} has {guards} __main__ guards; scripts must call "
        "main() exactly once"
    )


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()  # examples assert their own correctness
    out = capsys.readouterr().out
    assert out.strip(), f"{name} should print its findings"
