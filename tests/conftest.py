import warnings
from pathlib import Path

import numpy as np
import pytest

import qdim as Q

LOG23 = np.log(2.0) / np.log(3.0)


def pytest_report_header(config):
    """Name the qdim under test: pyproject's ``pythonpath`` puts this
    checkout's ``src`` ahead of ``PYTHONPATH``, so a run meant for another
    tree shows here which one it imported."""
    return f"qdim under test: {Path(Q.__file__).parent}"


def pytest_runtest_makereport(item, call):
    """Import Hypothesis's patch writer before its plugin does, warnings muted.

    For a failing property test the plugin imports hypothesis.extra._patching,
    which (through libcst) raises a DeprecationWarning from mypy_extensions;
    pyproject's filterwarnings turns it into an error, and pytest would end
    with INTERNALERROR instead of printing the falsifying example.
    """
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


@pytest.fixture(scope="session")
def e1():
    return Q.cantor_system(), Q.log_weight_family([0.5, 0.5])


@pytest.fixture(scope="session")
def e2():
    return Q.similarity_system([1 / 3, 1 / 3], [0.0, 2 / 3]), Q.log_weight_family([0.7, 0.3])


@pytest.fixture(scope="session")
def e3():
    return Q.geometric_similarity_system(1 / 3), Q.geometric_weight_family(0.5)


@pytest.fixture(scope="session")
def gauss12():
    return Q.gauss_system((1, 2)), Q.derivative_family(0.6)


@pytest.fixture(scope="session")
def gauss_full():
    return Q.gauss_system(None), Q.derivative_family(0.6)


@pytest.fixture(scope="session")
def e1_sample_big(e1):
    system, family = e1
    return Q.sample_measure(system, family, 200_000, seed=11)
