"""Fixtures shared by the whole test suite."""

import pytest

from equator_forge.parallel import _one_blas_thread


@pytest.fixture(autouse=True)
def _tests_run_on_one_blas_thread():
    """Each test runs on one OpenBLAS thread, as each command of the CLI does: at the package's
    matrix sizes a second thread saves no time, and its idle worker busy-waits after every call.
    Tests of the guard itself request ``blas_counts``, which sets two threads inside this one."""
    with _one_blas_thread():
        yield
