"""Shared test fixtures."""

import importlib.util
import pathlib

import pytest


@pytest.fixture(scope="session")
def bench_gen():
    """The benchmark's instance generator, bench/gen.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen
