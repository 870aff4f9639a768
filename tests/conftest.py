import importlib.util
import os

import pytest

from choicerev import LanguageSpec, UniverseSpec


@pytest.fixture(scope="session")
def lang1():
    return LanguageSpec(1)


@pytest.fixture(scope="session")
def lang2():
    return LanguageSpec(2)


@pytest.fixture(scope="session")
def lang3():
    return LanguageSpec(3)


@pytest.fixture(scope="session")
def u1(lang1):
    return UniverseSpec(lang1, 2)


@pytest.fixture(scope="session")
def u2(lang2):
    return UniverseSpec(lang2, 2)


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded from the checkout as it stands."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
