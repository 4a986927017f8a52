"""fork_map: order, exceptions and reaping.  Every map here runs at most
four processes, the caller included."""

import os

import pytest

from tracecodes.errors import BudgetExceededError
from tracecodes.parallel import fork_map


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def describe(job):
    return {"job": job, "square": job * job, "parts": (str(job), [job] * job)}


def test_results_come_back_in_job_order():
    jobs = [3, 0, 2, 1]
    assert fork_map(describe, jobs) == [describe(j) for j in jobs]
    assert fork_map(describe, [5]) == [describe(5)]  # one job: no fork
    assert_no_child_left()


def test_a_child_exception_is_raised_again_in_the_caller():
    def fail_on_two(job):
        if job == 2:
            raise ValueError(f"job {job} is bad")
        return job

    with pytest.raises(ValueError, match="^job 2 is bad$"):
        fork_map(fail_on_two, [0, 1, 2])
    with pytest.raises(BudgetExceededError, match="^over$"):  # a package type too
        fork_map(_raise_budget, [0, 1])
    assert_no_child_left()


def _raise_budget(job):
    if job:
        raise BudgetExceededError("over")
    return job


def test_an_unsendable_result_is_an_error_in_the_caller():
    with pytest.raises(ValueError, match="unmarshallable"):
        fork_map(lambda job: object() if job else job, [0, 1])
    assert_no_child_left()


def test_a_failing_caller_job_still_reaps_its_children():
    def fail_in_caller(job):
        if job == 0:
            raise KeyError("first")
        return job

    with pytest.raises(KeyError):
        fork_map(fail_in_caller, [0, 1, 2, 3])
    assert_no_child_left()


def test_a_child_that_dies_without_a_result_is_an_error():
    with pytest.raises(ChildProcessError, match="without a result"):
        fork_map(lambda job: os._exit(3) if job else job, [0, 1])
    assert_no_child_left()
