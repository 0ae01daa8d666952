"""Suite-wide settings: one hypothesis profile, loaded for every test.

``derandomize`` draws the same examples on every run, so a failure
reproduces; ``database=None`` keeps no example store; ``deadline=None`` keeps
a slow machine from failing a test that is merely slow. Hypothesis also
caches what it reads from the source files; that goes to a temporary
directory removed at exit, so a run leaves no ``.hypothesis/`` behind.
"""

import tempfile
import warnings

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("emotionforge", derandomize=True, database=None, deadline=None)
settings.load_profile("emotionforge")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    config.stash[_HOME] = home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HOME].cleanup()


@pytest.fixture(scope="session")
def input_file(tmp_path_factory):
    """One file that a generated-input test rewrites for each input (hypothesis
    does not reset function-scoped fixtures such as ``tmp_path`` per input)."""
    path = tmp_path_factory.mktemp("generated") / "input"
    path.write_bytes(b"")
    return path


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # To report a failing example, hypothesis imports libcst, whose import
    # warns; under filterwarnings = error that would abort the whole run
    # instead of failing the one test.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield
