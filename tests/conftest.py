"""Shared fixtures for the test suite.

Marker registration and the reference model builders live in
:mod:`repro.testing`, shared with ``benchmarks/conftest.py``; this file
binds them to pytest fixtures and adds ``within``, which bounds a call that
could hang.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.compilers.bugs import BugConfig
from repro.graph.model import Model
from repro.testing import build_conv_model, build_mlp_model, register_markers


def pytest_configure(config):
    register_markers(config)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def mlp_model() -> Model:
    return build_mlp_model()


@pytest.fixture
def conv_model() -> Model:
    return build_conv_model()


@pytest.fixture
def no_bugs() -> BugConfig:
    return BugConfig.none()


@pytest.fixture
def all_bugs_config() -> BugConfig:
    return BugConfig.all()


@pytest.fixture
def within():
    """``within(seconds, body)`` runs ``body()`` on a daemon thread and
    returns its value (re-raising what it raised), failing the test if it
    is still running after ``seconds`` — a hung coordinator fails its test
    instead of stalling the suite."""

    def run(seconds, body):
        outcome = {}

        def target():
            try:
                outcome["value"] = body()
            except BaseException as exc:  # re-raised on the test's thread
                outcome["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        assert not thread.is_alive(), f"still running after {seconds} s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return run
